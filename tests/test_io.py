import json
import math

import numpy as np
import pytest

from bvhknn import (
    Dataset,
    GroundTruth,
    MetricSpec,
    ReductionConfig,
    build_index,
    build_point_bvh,
    pipeline_metric_for,
    read_records,
    run_experiment,
    run_query,
    sweep,
    synthetic_points,
    transform_chain_for,
    transform_points,
    weights,
)
from bvhknn import experiments
from bvhknn.cli import main
from bvhknn.oracle import aggregate_recall, ground_truth


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- readers ----------------------------------------------------------------

def test_csv_xyz_split(tmp_path):
    p = write(tmp_path / "pts.csv", "0,0,0\n1,2,2\n5,5,5\n")
    records = read_records(p, "csv-xyz")
    assert records.shape == (3, 3)
    assert records[2:].tolist() == [[5.0, 5.0, 5.0]]


def test_csv_malformed_reports_record(tmp_path):
    p = write(tmp_path / "bad.csv", "0,0,0\n1,2\n")
    with pytest.raises(ValueError, match="record 2"):
        read_records(p, "csv-xyz")
    p2 = write(tmp_path / "bad2.csv", "0,0,0\n1,2,zap\n")
    with pytest.raises(ValueError, match="record 2"):
        read_records(p2, "csv-xyz")
    p3 = write(tmp_path / "bad3.csv", "0,0,0\n1,2,inf\n")
    with pytest.raises(ValueError, match="record 2: non-finite value"):
        read_records(p3, "csv-xyz")


def test_bin_f32x4(tmp_path):
    records = np.arange(12, dtype="<f4").reshape(3, 4)  # 3 records
    p = tmp_path / "pts.bin"
    records.tofile(p)
    got = read_records(str(p), "bin-f32x4")
    assert got.dtype == np.float64
    assert got[:2].tolist() == [[0, 1, 2], [4, 5, 6]]
    assert got[2:].tolist() == [[8, 9, 10]]


def test_bin_truncated(tmp_path):
    p = tmp_path / "trunc.bin"
    np.arange(10, dtype="<f4").tofile(p)  # not a multiple of 4
    with pytest.raises(ValueError, match="truncated"):
        read_records(str(p), "bin-f32x4")
    records = np.arange(12, dtype="<f4").reshape(3, 4)
    records[1, 2] = np.nan
    records.tofile(p)
    with pytest.raises(ValueError, match="record 2: non-finite value"):
        read_records(str(p), "bin-f32x4")


def test_bits_loader_maps_vertices(tmp_path):
    p = write(tmp_path / "bits.txt", "101\n110\n")
    assert read_records(p, "bits").tolist() == [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    bad = write(tmp_path / "bad_bits.txt", "101\n20\n")
    with pytest.raises(ValueError, match="record 2"):
        read_records(bad, "bits")


def test_synthetic_points_kinds():
    assert synthetic_points(5, 1, 2).shape == (5, 2)
    bits = synthetic_points(40, 1, kind="bits")
    assert bits.shape == (40, 3) and set(bits.ravel().tolist()) == {0.0, 1.0}
    with pytest.raises(ValueError, match="unknown synthetic kind 'gauss'"):
        synthetic_points(5, 1, kind="gauss")
    # n and dim are counts, and bits records are 3-D cube vertices
    assert synthetic_points(np.int64(5), 1, np.int64(2)).shape == (5, 2)
    for args, message in (((4, 0, 2, "bits"), "synthetic bits records are cube vertices of dim 3, got dim 2"),
                          ((True, 0), "n must be an integer, got True"),
                          ((np.True_, 0), "n must be an integer, got"),
                          ((-1, 0), "n must be >= 1, got -1"),
                          ((0, 0), "n must be >= 1, got 0"),
                          ((4, 0, 2.0), "dim must be an integer, got 2.0"),
                          ((4, 0, True), "dim must be an integer, got True"),
                          ((4, 0, 0), "dim must be >= 1, got 0")):
        with pytest.raises(ValueError, match=message):
            synthetic_points(*args)


def test_bits_empty_file_has_no_records(tmp_path):
    for name, text in (("empty.txt", ""), ("blank.txt", "\n  \n\n")):
        p = write(tmp_path / name, text)
        assert read_records(p, "bits").shape == (0, 3)


def test_csv_2d(tmp_path):
    p = write(tmp_path / "pts2.csv", "0,0\n1,2\n0.5,0.25\n")
    records = read_records(p, "csv-2d")
    assert records.shape == (3, 2)
    assert records[2:].tolist() == [[0.5, 0.25]]


def test_dataset_file_validation(tmp_path, capsys):
    p = write(tmp_path / "pts.csv", "0,0,0\n")
    with pytest.raises(ValueError, match="unknown format"):
        read_records(p, "vec")
    code, _, err = run_cli(["oracle", "--data", p, "--n", "0", "--queries", "1", "--metric", "lp:2"], capsys)
    assert code == 2 and "--n" in err


# --- experiment driver ------------------------------------------------------

def small_dataset(n=60, q=5, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, 3)), rng.random((q, 3)), {"source": "synthetic", "seed": seed})


def test_run_experiment_exact_when_radius_covers():
    ds = small_dataset()
    report = run_experiment(ds, ReductionConfig(MetricSpec.lp(1), 3.0, 5), repeats=1)
    assert report["recall"]["mean"] == 1.0
    assert report["counts"]["mean_hits"] >= report["counts"]["mean_candidates"]
    assert len(report["results"]) == 5


def test_run_experiment_repeats_structure():
    ds = small_dataset()
    report = run_experiment(ds, ReductionConfig(MetricSpec.linf(), 0.5, 3), repeats=5)
    assert len(report["timings"]["build_ms"]) == 5
    assert len(report["timings"]["search_ms"]) == 5
    assert report["timings"]["build_ms_mean"] == pytest.approx(
        sum(report["timings"]["build_ms"]) / 5
    )


def test_run_experiment_repeats_must_be_a_count():
    # a numpy integer is stored as an int, so the report's JSON takes it;
    # a float or a bool is refused rather than run or echoed as given
    ds = small_dataset()
    cfg = ReductionConfig(MetricSpec.lp(2), 0.5, 3)
    report = run_experiment(ds, cfg, repeats=np.int64(2))
    assert type(report["config"]["repeats"]) is int and len(report["timings"]["build_ms"]) == 2
    json.dumps(report)
    for bad in (1.5, True, np.True_, "2", None):
        with pytest.raises(ValueError, match="repeats must be an integer"):
            run_experiment(ds, cfg, repeats=bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"repeats must be >= 1, got {bad}"):
            run_experiment(ds, cfg, repeats=bad)


def test_run_experiment_rejects_empty_queries():
    ds = Dataset(np.random.default_rng(0).random((10, 3)), np.empty((0, 3)))
    with pytest.raises(ValueError, match="at least one query"):
        run_experiment(ds, ReductionConfig(MetricSpec.lp(2), 0.1, 3))


def test_run_experiment_rejects_truth_for_another_metric_or_k(tmp_path):
    rng = np.random.default_rng(5)
    ds = Dataset(rng.random((200, 3)), rng.random((15, 3)))
    cfg = ReductionConfig(MetricSpec.lp(2), 0.3, 5)
    own = ground_truth(ds.data, ds.queries, cfg.metric, cfg.k)
    (tmp_path / "truth.json").write_text(json.dumps(own.to_dict()))
    (tmp_path / "spelled.json").write_text(json.dumps({**own.to_dict(), "metric": "lp:2.0"}))  # --metric lp:2.0
    reports = [run_experiment(ds, cfg, truth=truth)
               for truth in (own, GroundTruth.load(tmp_path / "truth.json"), GroundTruth.load(tmp_path / "spelled.json"))]
    assert [report["recall"]["mean"] for report in reports] == [1.0, 1.0, 1.0]
    for metric, k in ((MetricSpec.lp(1), 5), (MetricSpec.lp(2), 10)):
        other = ground_truth(ds.data, ds.queries, metric, k)
        with pytest.raises(ValueError, match=f"metric {metric.canonical()} and k {k}, "
                                             f"but the config searches metric lp:2 and k 5"):
            run_experiment(ds, cfg, truth=other)
    # a truth for another query set: one row too many or too few
    for rows in (own.rows + own.rows[:1], own.rows[:-1]):
        with pytest.raises(ValueError, match=f"truth has {len(rows)} rows for 15 queries"):
            run_experiment(ds, cfg, truth=GroundTruth(own.metric, own.k, rows))


def test_report_recall_matches_recomputation():
    ds = small_dataset(seed=2)
    cfg = ReductionConfig(MetricSpec.lp(2), 0.15, 4)
    report = run_experiment(ds, cfg)
    truth = [
        [(int(i), float(d)) for i, d in row]
        for row in (r["neighbors"] for r in report["results"])
    ]
    # recompute the mean from the persisted per-query lists and the oracle
    from bvhknn import ground_truth

    oracle = ground_truth(ds.data, ds.queries, cfg.metric, cfg.k)
    ids = [[i for i, _ in r["neighbors"]] for r in report["results"]]
    assert aggregate_recall(ids, oracle) == pytest.approx(report["recall"]["mean"])
    assert truth is not None


@pytest.mark.parametrize("metric", [MetricSpec.lp(1), MetricSpec.lp(3), MetricSpec.cosine(), MetricSpec.linf()],
                         ids=lambda m: m.canonical())
def test_report_mean_recall_is_aggregate_recall(metric):
    # the mean is taken from the per-query list, bitwise as aggregate_recall takes it
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(400, 3)), rng.normal(size=(30, 3)), {})
    truth = ground_truth(ds.data, ds.queries, metric, 6)
    radii = [0.1, 0.2, 0.4, 0.8]
    reports = sweep(ds, ReductionConfig(metric, radii[-1], 6), "radius", radii)
    assert sum(0 < report["recall"]["mean"] < 1 for report in reports) >= 2
    for report in reports:
        ids = [[i for i, _ in r["neighbors"]] for r in report["results"]]
        assert report["recall"]["mean"] == aggregate_recall(ids, truth)


@pytest.mark.parametrize("metric, r", [(MetricSpec.lp(3), 0.12), (MetricSpec.cosine(), 0.2)],
                         ids=lambda v: v.canonical() if isinstance(v, MetricSpec) else str(v))
def test_report_fields_equal_the_per_query_result_formulas(metric, r):
    # the report is read from the batch's arrays; its results, counts and
    # recall equal those built from run_query's QueryResults one by one
    rng = np.random.default_rng(71)
    ds = Dataset(rng.normal(size=(500, 3)) * 0.3, rng.normal(size=(40, 3)) * 0.3, {})
    cfg = ReductionConfig(metric, r, 6)
    report = run_experiment(ds, cfg)
    chain, pcfg = transform_chain_for(metric), ReductionConfig(pipeline_metric_for(metric), r, 6)
    data3, queries3 = (transform_points(chain, x) for x in (ds.data, ds.queries))
    bvh = build_index(data3, pcfg)
    results = [run_query(bvh, data3, q, pcfg) for q in queries3]
    unit = (lambda c: 1.0 - c * c / 2.0) if metric == MetricSpec.cosine() else (lambda c: c)
    assert any(len(res.neighbors) < 6 for res in results) and any(res.candidate_count > 6 for res in results)
    assert report["results"] == [{"neighbors": [[i, unit(d)] for i, d in res.neighbors],
                                  "candidates": res.candidate_count, "hits": res.hit_count,
                                  "node_visits": res.node_visits} for res in results]
    n = len(results)
    assert report["counts"] == {"mean_candidates": sum(res.candidate_count for res in results) / n,
                                "mean_hits": sum(res.hit_count for res in results) / n,
                                "node_visits_total": sum(res.node_visits for res in results)}
    truth = [{i for i, _ in row} for row in ground_truth(ds.data, ds.queries, metric, 6).rows]
    per_query = [len(ids.intersection(res.ids())) / len(ids) if ids else None for res, ids in zip(results, truth)]
    scored = [v for v in per_query if v is not None]
    assert 0 < math.fsum(scored) / len(scored) < 1
    assert report["recall"] == {"mean": math.fsum(scored) / len(scored), "per_query": per_query,
                                "skipped_empty_truth": n - len(scored)}


def test_transform_metric_experiment():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(120, 3)), rng.normal(size=(4, 3)), {})
    report = run_experiment(ds, ReductionConfig(MetricSpec.cosine(), 2.0, 3))
    assert report["recall"]["mean"] == 1.0  # chord radius 2 covers the sphere


def test_bit_string_experiment():
    ds = Dataset(["000", "011", "111", "001"], ["010"], {})
    report = run_experiment(ds, ReductionConfig(MetricSpec.hamming3(), 3.0, 2))
    assert report["recall"]["mean"] == 1.0
    assert report["results"][0]["neighbors"][0] == [0, 1.0]


def test_sweep_radius_monotone():
    ds = small_dataset(n=300, q=8, seed=3)
    cfg = ReductionConfig(MetricSpec.lp(1), 0.05, 5)
    reports = sweep(ds, cfg, "radius", [0.1, 0.2, 0.4, 1.5])
    recalls = [r["recall"]["mean"] for r in reports]
    assert recalls == sorted(recalls)
    cands = [r["counts"]["mean_candidates"] for r in reports]
    assert cands == sorted(cands)
    assert all(r["sweep"]["axis"] == "radius" for r in reports)


def test_sweep_k_constant_candidates():
    # the ball within r is the same for every k; each query searches a
    # radius r_q <= r that holds k points, so its candidates lie between
    # min(k, ball) and the ball, and its hits are never fewer
    ds = small_dataset(n=200, q=6, seed=4)
    cfg = ReductionConfig(MetricSpec.linf(), 0.3, 1)
    reports = sweep(ds, cfg, "k", [1, 5, 20])
    ball = [int(np.count_nonzero(weights(MetricSpec.linf(), ds.data, q) <= 0.3)) for q in ds.queries]
    for k, report in zip([1, 5, 20], reports):
        for res, b in zip(report["results"], ball):
            assert min(k, b) <= res["candidates"] <= b
            assert res["hits"] >= res["candidates"]


def test_sweep_queries_axis():
    ds = small_dataset(n=100, q=10, seed=5)
    cfg = ReductionConfig(MetricSpec.lp(2), 0.4, 3)
    reports = sweep(ds, cfg, "queries", [2, 10])
    assert [len(r["results"]) for r in reports] == [2, 10]


def test_sweep_queries_search_time_trend():
    # 10x the queries should not be faster than half the small run
    ds = small_dataset(n=2000, q=100, seed=6)
    cfg = ReductionConfig(MetricSpec.lp(1), 0.3, 5)
    reports = sweep(ds, cfg, "queries", [10, 100])
    t_small = reports[0]["timings"]["search_ms_mean"]
    t_large = reports[1]["timings"]["search_ms_mean"]
    assert t_large >= t_small / 2


@pytest.mark.parametrize("axis, values", [
    ("k", [1, 4, 9]), ("queries", [2, 5, 10]), ("radius", [0.1, 0.2, 0.25]),
    # numpy scalars, and the floats the CLI parses on every axis
    ("k", [np.int64(1), 4.0, 9]), ("queries", [2.0, np.int32(5), 10]), ("radius", [np.float32(0.125), 0.2, 0.25]),
])
def test_sweep_builds_once_per_repeat_on_every_axis(monkeypatch, axis, values):
    ds = small_dataset(n=150, q=10, seed=7)
    cfg = ReductionConfig(MetricSpec.lp(3), 0.25, 3)
    calls = []
    build = experiments.build_index

    def counting_build(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "build_index", counting_build)
    reports = sweep(ds, cfg, axis, values, repeats=2)
    assert len(calls) == 2  # not one per value and repeat
    assert all(r["timings"]["build_ms"] == reports[0]["timings"]["build_ms"] for r in reports)
    assert all(len(r["timings"]["search_ms"]) == 2 for r in reports)

    def untimed(report):
        return {key: val for key, val in report.items() if key not in ("timings", "sweep")}

    for report, v in zip(reports, values):
        if axis == "k":
            alone = run_experiment(ds, ReductionConfig(cfg.metric, cfg.r, int(v)), repeats=2)
        elif axis == "queries":
            alone = run_experiment(Dataset(ds.data, ds.queries[:int(v)], dict(ds.meta)), cfg, repeats=2)
        else:
            alone = run_experiment(ds, ReductionConfig(cfg.metric, v, cfg.k), repeats=2)
        if axis == "radius":
            # searched on the index built for the largest radius: the answers
            # are the same, the counts of the wider boxes' filter may not be
            assert report["config"] == alone["config"] and report["recall"] == alone["recall"]
            assert [res["neighbors"] for res in report["results"]] == [res["neighbors"] for res in alone["results"]]
            assert all(res["hits"] >= res["candidates"] >= len(res["neighbors"]) for res in report["results"])
        else:
            assert untimed(report) == untimed(alone)
        assert report["sweep"] == {"axis": axis, "value": v}
        # a radius is reported as a float, a k or query count as an int, each as its config holds it
        assert type(report["sweep"]["value"]) is (float if axis == "radius" else int)
        json.dumps(report)
        assert set(report["timings"]) == set(alone["timings"])


def test_sweep_validates_values():
    ds = small_dataset()
    cfg = ReductionConfig(MetricSpec.lp(2), 0.4, 3)
    with pytest.raises(ValueError):
        sweep(ds, cfg, "radius", [0.2, 0.2])
    with pytest.raises(ValueError):
        sweep(ds, cfg, "radius", [])
    with pytest.raises(ValueError):
        sweep(ds, cfg, "altitude", [1, 2])
    with pytest.raises(ValueError):
        sweep(ds, cfg, "queries", [4, 99])
    with pytest.raises(ValueError):
        sweep(ds, cfg, "k", [0, 2])
    for axis in ("k", "queries"):  # a bool is no count, though int(True) == True
        with pytest.raises(ValueError, match=f"{axis} must be a real number, got True"):
            sweep(ds, cfg, axis, [True, 2])
    with pytest.raises(ValueError, match="radius must be a real number, got '0.1'"):
        sweep(ds, cfg, "radius", ["0.1", "0.2"])


# --- CLI --------------------------------------------------------------------

def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_query_on_file(tmp_path, capsys):
    lines = "\n".join(f"{x},0,0" for x in range(20))
    p = write(tmp_path / "pts.csv", lines + "\n")
    code, out, err = run_cli(
        ["query", "--data", p, "--n", "15", "--queries", "5", "--metric", "lp:1",
         "--radius", "4.0", "--k", "3"],
        capsys,
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["schema"] == "bvhknn.report/1"
    assert report["config"]["metric"] == "lp:1"
    assert report["dataset"]["n"] == 15


def test_cli_synthetic_query_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        ["query", "--n", "200", "--queries", "10", "--metric", "linf",
         "--radius", "0.3", "--k", "5", "--seed", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0, err
    report = json.loads(out_path.read_text())
    assert report["dataset"]["seed"] == 7
    assert report["dataset"]["source"] == "synthetic"


def test_cli_build_info(tmp_path, capsys):
    code, out, err = run_cli(
        ["build-info", "--n", "500", "--metric", "lp:2", "--radius", "0.1", "--seed", "1"],
        capsys,
    )
    assert code == 0, err
    info = json.loads(out)
    assert info["index"]["num_primitives"] == 500
    assert info["index"]["num_nodes"] >= 1
    assert info["index"]["box_half_width"] == 0.1
    assert info["index"]["num_leaves"] == (info["index"]["num_nodes"] + 1) // 2

    # tree-quality stats, exactly, on a fixed scene: boxes of side 1 around
    # x = 0, 1, 3; with leaf size 1 the root splits into {0} and {1, 3}
    pts = [[0, 0, 0], [1, 0, 0], [3, 0, 0]]
    expected = {
        # leaves 3 x 6, the {1, 3} node 2 * (3 + 1 + 3), the root 2 * (4 + 1 + 4);
        # sibling boxes at most touch, so nothing overlaps
        (1, 0.5): {"num_nodes": 5, "max_depth": 3, "num_leaves": 3, "leaf_fill_mean": 1.0,
                   "surface_area_sum": 50.0, "overlap_volume_sum": 0.0},
        (4, 0.5): {"num_nodes": 1, "max_depth": 1, "num_leaves": 1, "leaf_fill_mean": 0.75,
                   "surface_area_sum": 18.0, "overlap_volume_sum": 0.0},
        # side 1.5: the root's children [-0.75, 0.75] and [0.25, 3.75] share
        # 0.5 x 1.5 x 1.5 in x, y, z; the boxes around 1 and 3 stay apart
        (1, 0.75): {"num_nodes": 5, "num_leaves": 3, "overlap_volume_sum": 1.125},
    }
    for (leaf_size, half_width), want in expected.items():
        bvh = build_point_bvh(pts, half_width, leaf_size)
        index = {"num_nodes": bvh.num_nodes, "max_depth": bvh.max_depth(), **bvh.tree_stats()}
        assert {key: index[key] for key in want} == want

    # the CLI builds at the default leaf size, 8: one leaf holding 3 of its 8 slots
    data = write(tmp_path / "pts.csv", "0,0,0\n1,0,0\n3,0,0\n")
    args = ["build-info", "--data", data, "--n", "3", "--metric", "lp:2", "--radius", "0.5"]
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    info = json.loads(out)
    assert "leaf_size" not in info["config"]
    want = {"leaf_size": 8, "num_nodes": 1, "max_depth": 1, "num_leaves": 1, "leaf_fill_mean": 0.375,
            "surface_area_sum": 18.0, "overlap_volume_sum": 0.0}
    assert {key: info["index"][key] for key in want} == want
    with pytest.raises(SystemExit) as exc:  # the leaf size is no search option
        main(args + ["--leaf-size", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --leaf-size 16" in capsys.readouterr().err


def test_cli_subcommands_take_only_the_flags_they_read(tmp_path, capsys):
    # build-info ignores --repeats and the queries, and oracle --repeats and
    # --enhanced, so they refuse them as they refuse any unknown flag
    qf = write(tmp_path / "q.csv", "0.5,0.5,0.5\n")
    info = ["build-info", "--n", "200", "--metric", "lp:3", "--radius", "0.1"]
    oracle = ["oracle", "--n", "200", "--queries", "5", "--metric", "lp:2", "--k", "3"]
    for args, flag in ((info, ["--repeats", "2"]), (info, ["--k", "5"]), (info, ["--queries", "5"]),
                       (info, ["--query-file", qf]),
                       (oracle, ["--repeats", "2"]), (oracle, ["--enhanced", "true"])):
        with pytest.raises(SystemExit) as exc:
            main(args + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    # build-info reads --enhanced: the enhanced lp:3 scene has boxes of half width r
    code, out, err = run_cli(info + ["--enhanced", "true"], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["config"]["enhanced"] is True and report["index"]["box_half_width"] == 0.1
    code, out, err = run_cli(info, capsys)
    assert code == 0 and json.loads(out)["index"]["box_half_width"] > 0.1


def test_cli_build_info_needs_no_queries(tmp_path, capsys):
    data = write(tmp_path / "pts.csv", "0,0,0\n1,0,0\n2,0,0\n")
    for source, n in ((["--n", "1000"], 1000), (["--data", data, "--n", "3"], 3)):
        code, out, err = run_cli(
            ["build-info", *source, "--metric", "lp:2", "--radius", "0.05"], capsys
        )
        assert code == 0, err
        info = json.loads(out)
        assert info["dataset"]["q"] == 0
        assert info["index"]["num_primitives"] == n


def test_cli_sweep(capsys):
    code, out, err = run_cli(
        ["sweep", "--n", "300", "--queries", "5", "--metric", "lp:1",
         "--radius", "0.1", "--k", "5", "--seed", "3",
         "--axis", "radius", "--values", "0.1,0.3,0.9"],
        capsys,
    )
    assert code == 0, err
    reports = json.loads(out)
    assert len(reports) == 3
    recalls = [r["recall"]["mean"] for r in reports]
    assert recalls == sorted(recalls)


def test_cli_oracle(tmp_path, capsys):
    p = write(tmp_path / "pts.csv", "0,0,0\n1,0,0\n2,0,0\n0.5,0,0\n")
    code, out, err = run_cli(
        ["oracle", "--data", p, "--n", "3", "--queries", "1", "--metric", "lp:2", "--k", "2"],
        capsys,
    )
    assert code == 0, err
    truth = json.loads(out)
    assert truth["schema"] == "bvhknn.ground-truth/1"
    assert truth["rows"] == [[[0, 0.5], [1, 0.5]]]


def test_cli_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["query", "--data", str(tmp_path / "missing.csv"), "--n", "5", "--queries", "1",
         "--metric", "lp:1", "--radius", "1"],
        capsys,
    )
    assert code == 2
    assert "error" in err

    p = write(tmp_path / "pts.csv", "0,0,0\n1,0,0\n")
    code, _, _ = run_cli(
        ["query", "--data", p, "--n", "5", "--queries", "1", "--metric", "lp:1", "--radius", "1"],
        capsys,
    )
    assert code == 2

    code, _, _ = run_cli(
        ["query", "--n", "10", "--queries", "2", "--metric", "hamming3", "--radius", "1",
         "--data", p, "--format", "csv-xyz"],
        capsys,
    )
    assert code == 2  # hamming3 needs bits format

    code, _, _ = run_cli(
        ["query", "--n", "10", "--queries", "2", "--metric", "lp:0.5", "--radius", "1"],
        capsys,
    )
    assert code == 2

    code, _, err = run_cli(
        ["query", "--n", "100", "--queries", "0", "--metric", "lp:2", "--radius", "0.1"],
        capsys,
    )
    assert code == 2 and "at least one query" in err

    code, _, err = run_cli(
        ["query", "--n", "-3", "--queries", "2", "--metric", "lp:2", "--radius", "0.1"],
        capsys,
    )
    assert code == 2 and "--n" in err

    code, _, err = run_cli(
        ["query", "--data", p, "--n", "1", "--queries", "-1", "--metric", "lp:1", "--radius", "1"],
        capsys,
    )
    assert code == 2 and "--queries" in err

    for radius in ("nan", "-1"):
        code, _, err = run_cli(
            ["oracle", "--n", "10", "--queries", "2", "--metric", "lp:2", "--radius", radius], capsys
        )
        assert code == 2 and "radius" in err

    for axis in ("k", "queries"):
        code, _, err = run_cli(
            ["sweep", "--n", "10", "--queries", "2", "--metric", "lp:2", "--radius", "0.5",
             "--axis", axis, "--values", "1,inf"], capsys
        )
        assert code == 2 and "finite" in err


@pytest.mark.parametrize("args, message", [
    (["query", "--n", "50", "--queries", "2", "--metric", "linf", "--radius", "0.3", "--enhanced", "maybe"],
     "argument --enhanced: expected a boolean, got 'maybe'"),
    (["sweep", "--n", "50", "--queries", "2", "--metric", "lp:2", "--radius", "0.3", "--axis", "k",
      "--values", "1,x"], "argument --values: bad value list '1,x'"),
    (["query", "--data", "DATA", "--n", "2", "--metric", "lp:2", "--radius", "0.3"],
     "--data needs either --queries or --query-file"),
    (["query", "--n", "50", "--metric", "lp:2", "--radius", "0.3"], "synthetic datasets need --queries"),
    (["query", "--n", "50", "--queries", "2", "--metric", "lp:2"], "--radius is required for this command"),
])
def test_cli_usage_errors_exit_2(tmp_path, capsys, args, message):
    data = write(tmp_path / "d.csv", "0,0,0\n1,0,0\n")
    try:
        code = main([data if a == "DATA" else a for a in args])
    except SystemExit as exc:  # argparse errors leave through SystemExit(2)
        code = exc.code
    assert code == 2 and message in capsys.readouterr().err


@pytest.mark.parametrize("text, enhanced", [("yes", True), ("0", False), (" True ", True), ("no", False)])
def test_cli_parses_enhanced(capsys, text, enhanced):
    code, out, _ = run_cli(["query", "--n", "50", "--queries", "2", "--metric", "linf", "--radius", "0.3",
                            "--enhanced", text], capsys)
    assert code == 0 and json.loads(out)["config"]["enhanced"] is enhanced


def test_cli_internal_error_exit_3(monkeypatch, capsys):
    import bvhknn.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("result lists differ across repeats of the same run")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    code, _, err = run_cli(
        ["query", "--n", "10", "--queries", "2", "--metric", "lp:1", "--radius", "1"],
        capsys,
    )
    assert code == 3
    assert "internal error" in err


def test_cli_query_file(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "0,0,0\n1,0,0\n2,0,0\n")
    qf = write(tmp_path / "q.csv", "0.9,0,0\n")
    code, out, err = run_cli(
        ["query", "--data", data, "--n", "3", "--query-file", qf, "--metric", "lp:2",
         "--radius", "1.5", "--k", "2"],
        capsys,
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["results"][0]["neighbors"][0][0] == 1

    # --queries takes the first records of the query file
    qf3 = write(tmp_path / "q3.csv", "0.9,0,0\n1.9,0,0\n0.1,0,0\n")
    code, out, err = run_cli(
        ["oracle", "--data", data, "--n", "3", "--query-file", qf3, "--queries", "2", "--metric", "lp:2",
         "--k", "1"],
        capsys,
    )
    assert code == 0, err
    truth = json.loads(out)
    assert truth["dataset"]["q"] == 2 and truth["dataset"]["query_source"] == qf3
    assert truth["rows"] == [[[1, pytest.approx(0.1)]], [[2, pytest.approx(0.1)]]]


def test_cli_short_files_exit_2(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "0,0,0\n1,0,0\n2,0,0\n")
    qf = write(tmp_path / "q.csv", "0.9,0,0\n")
    binary = tmp_path / "pts.bin"
    np.arange(12, dtype="<f4").tofile(binary)  # 3 records
    empty = write(tmp_path / "empty.txt", "\n  \n")
    cases = [
        (data, ["--data", data, "--n", "3", "--queries", "1"], 4, 3),  # one file: n + q records
        (str(binary), ["--data", str(binary), "--format", "bin-f32x4", "--n", "3", "--queries", "1"], 4, 3),
        (data, ["--data", data, "--n", "5", "--query-file", qf], 5, 3),  # a short data file
        (qf, ["--data", data, "--n", "3", "--query-file", qf, "--queries", "2"], 2, 1),  # a short query file
    ]
    for path, source, need, have in cases:
        code, _, err = run_cli(["oracle", *source, "--metric", "lp:2", "--k", "1"], capsys)
        assert code == 2
        assert f"insufficient records in {path}: need {need}, have {have}" in err
    code, _, err = run_cli(["oracle", "--data", empty, "--format", "bits", "--n", "1", "--queries", "0",
                            "--metric", "hamming3", "--k", "1"], capsys)
    assert code == 2 and f"insufficient records in {empty}: need 1, have 0" in err


def test_cli_query_file_needs_data(tmp_path, capsys):
    qf = write(tmp_path / "q.csv", "0.5,0.5,0.5\n")
    code, out, err = run_cli(["query", "--queries", "3", "--radius", "0.3", "--k", "2",
                              "--n", "50", "--query-file", qf, "--metric", "lp:2"], capsys)
    assert code == 2 and out == ""
    assert "--query-file" in err and "--data" in err


def test_cli_format_needs_data(tmp_path, capsys):
    for command in (["query", "--queries", "2", "--radius", "0.3", "--k", "2"],
                    ["oracle", "--queries", "2"],
                    ["build-info", "--radius", "0.3"]):
        code, out, err = run_cli([*command, "--n", "50", "--format", "bits", "--metric", "lp:2"], capsys)
        assert code == 2 and out == ""
        assert "--format" in err and "--data" in err
    p = write(tmp_path / "pts.csv", "0,0,0\n1,0,0\n0.5,0,0\n")
    code, out, err = run_cli(["oracle", "--data", p, "--n", "2", "--queries", "1", "--metric", "lp:2"], capsys)
    assert code == 0, err
    assert json.loads(out)["dataset"]["format"] == "csv-xyz"


def test_cli_oracle_names_the_zero_query(tmp_path, capsys):
    p = write(tmp_path / "pts.csv", "1,0,0\n0,1,0\n0,0,1\n1,1,0\n0,0,0\n")
    for command in ("oracle", "query"):
        code, out, err = run_cli([command, "--data", p, "--n", "3", "--queries", "2", "--metric", "cosine",
                                  "--radius", "1.0", "--k", "1"], capsys)
        assert code == 2 and out == ""
        assert "zero vector at query index 1" in err
