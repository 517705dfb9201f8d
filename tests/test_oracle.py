import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvhknn import (
    Dataset,
    GroundTruth,
    MetricSpec,
    ReductionConfig,
    aggregate_recall,
    brute_force_knn,
    distances,
    ground_truth,
    pipeline_metric_for,
    recall,
    run_experiment,
    synthetic_points,
    transform_chain_for,
    transform_points,
    weights,
)
from bvhknn.cli import main
from bvhknn.oracle import _reachable


def test_l2_example():
    pts = np.array([[0, 0, 0], [1, 0, 0]], float)
    assert brute_force_knn(pts, [0, 0, 0], MetricSpec.lp(2), 2) == [(0, 0.0), (1, 1.0)]


def test_cosine_tie_breaks_by_id():
    pts = np.array([[2, 0, 0], [0, 3, 0]], float)
    row = brute_force_knn(pts, [1, 1, 0], MetricSpec.cosine(), 1)
    assert row[0][0] == 0
    assert row[0][1] == pytest.approx(math.cos(math.pi / 4), rel=1e-12)


def test_k_larger_than_n_returns_all_sorted():
    pts = np.array([[3, 0, 0], [1, 0, 0], [2, 0, 0]], float)
    row = brute_force_knn(pts, [0, 0, 0], MetricSpec.lp(1), 10)
    assert row == [(1, 1.0), (2, 2.0), (0, 3.0)]


def test_radius_bound_filters():
    pts = np.array([[1, 0, 0], [2, 0, 0], [4, 0, 0]], float)
    row = brute_force_knn(pts, [0, 0, 0], MetricSpec.lp(2), 5, radius=2.0)
    assert row == [(0, 1.0), (1, 2.0)]  # boundary inclusive
    assert brute_force_knn(pts, [0, 0, 0], MetricSpec.lp(2), 5, radius=0.5) == []


def test_hamming_rows():
    row = brute_force_knn(["000", "011", "111"], "001", MetricSpec.hamming3(), 3)
    assert row == [(0, 1.0), (1, 1.0), (2, 2.0)]


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        brute_force_knn(np.zeros((2, 3)), [0, 0, 0], MetricSpec.lp(2), 0)


ALL_METRICS = [MetricSpec.parse(m) for m in
               ("lp:1", "lp:1.5", "lp:2", "lp:3", "linf", "cosine", "angular", "euclid2d", "hamming3")]


def _scene(metric, n):
    """Small data and a query in the source form `metric` takes."""
    if metric.kind == "hamming3":
        return ["000", "011", "111"][:n], "001"
    cols = 2 if metric.kind == "euclid2d" else 3
    return np.arange(1.0, 1.0 + n * cols).reshape(n, cols), np.full(cols, 0.5)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.canonical())
def test_rejects_bad_radius(metric):
    pts, q = _scene(metric, 3)
    with pytest.raises(ValueError, match="radius must be finite.*, got nan"):
        brute_force_knn(pts, q, metric, 2, radius=math.nan)
    with pytest.raises(ValueError, match="radius must be finite.*, got nan"):
        ground_truth(pts, [q], metric, 2, radius=float("nan"))
    # radius=None is the unbounded search, so an infinite radius is refused like a NaN one
    for bad, message in ((np.True_, "a real number, got"), ("0.3", "a real number, got '0.3'"),
                         (math.inf, "finite.*, got inf")):
        with pytest.raises(ValueError, match=f"radius must be {message}"):
            brute_force_knn(pts, q, metric, 2, radius=bad)
        with pytest.raises(ValueError, match=f"radius must be {message}"):
            ground_truth(pts, [q], metric, 2, radius=bad)
    # every radius is in pipeline units, a chord for cosine and angular, so none is negative
    with pytest.raises(ValueError, match=">= 0"):
        brute_force_knn(pts, q, metric, 2, radius=-1.0)
    assert brute_force_knn(pts, q, metric, 2, radius=0.0) == []


def test_zero_query_vector_named_by_its_batch_index():
    pts = np.eye(3)
    for metric in (MetricSpec.cosine(), MetricSpec.angular()):
        with pytest.raises(ValueError, match="zero vector at query index 1"):
            ground_truth(pts, [[1, 0, 0], [0, 0, 0]], metric, 1)


@pytest.mark.parametrize("metric", [m for m in ALL_METRICS if m.kind != "hamming3"],
                         ids=lambda m: m.canonical())
def test_rejects_non_finite_queries(metric):
    pts, q = _scene(metric, 3)
    for bad in (math.nan, math.inf, -math.inf):
        row = q.copy()
        row[0] = bad
        with pytest.raises(ValueError, match="non-finite coordinates"):
            brute_force_knn(pts, row, metric, 2)
        with pytest.raises(ValueError, match="non-finite coordinates"):
            ground_truth(pts, [q, q, row], metric, 2)


def test_rejects_bad_euclid2d_queries_naming_them():
    pts, q = _scene(MetricSpec.euclid2d(), 3)
    with pytest.raises(ValueError, match="query index 1 has non-finite"):
        ground_truth(pts, [q, [math.nan, 0.5]], MetricSpec.euclid2d(), 2)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        brute_force_knn(pts, [0.5, 0.5, 0.5], MetricSpec.euclid2d(), 2)


@pytest.mark.parametrize("metric", [MetricSpec.lp(2), MetricSpec.hamming3()], ids=lambda m: m.canonical())
def test_no_queries_give_no_rows(metric):
    pts, _ = _scene(metric, 3)
    assert ground_truth(pts, [], metric, 2).rows == []
    assert ground_truth(pts, [], metric, 2, radius=1.0).rows == []


def test_query_forms_give_the_one_query_rows():
    rng = np.random.default_rng(5)
    pts = rng.random((60, 3))
    queries = rng.random((4, 3)).astype(np.float32)
    for metric in (MetricSpec.lp(2), MetricSpec.lp(3), MetricSpec.cosine()):
        want = [brute_force_knn(pts, q.tolist(), metric, 5) for q in queries]
        assert ground_truth(pts, queries, metric, 5).rows == want
        assert ground_truth(pts, queries.tolist(), metric, 5).rows == want
    bits = ["0", "01", "110", "111", "101"]
    vertices = transform_points(transform_chain_for(MetricSpec.hamming3()), bits)
    want = [brute_force_knn(bits, b, MetricSpec.hamming3(), 3) for b in bits]
    assert want == [brute_force_knn(bits, v, MetricSpec.hamming3(), 3) for v in vertices]
    for form in (bits, vertices, vertices.tolist()):
        assert ground_truth(bits, form, MetricSpec.hamming3(), 3).rows == want
    with pytest.raises(ValueError, match="hamming input must be bit strings or 0/1 vertex rows"):
        ground_truth(bits, [[0.0, 2.0, 1.0]], MetricSpec.hamming3(), 3)


def test_matches_math_reference():
    # distances by math.fsum/math.sqrt and a Python sort on (distance, id),
    # independent of the weight kernel
    rng = np.random.default_rng(17)
    pts = rng.random((300, 3))
    for q in rng.random((5, 3)):
        for metric in (MetricSpec.lp(1), MetricSpec.lp(2), MetricSpec.lp(3), MetricSpec.linf()):
            def dist(row):
                d = [abs(x - y) for x, y in zip(row, q)]
                if metric.kind == "linf":
                    return max(d)
                w = math.fsum(v ** metric.p for v in d)
                return math.sqrt(w) if metric.p == 2 else w ** (1 / metric.p)

            want = sorted((dist(row), i) for i, row in enumerate(pts.tolist()))[:7]
            got = brute_force_knn(pts, q, metric, 7)
            assert [i for i, _ in got] == [i for _, i in want]
            for (_, got_d), (want_d, _) in zip(got, want):
                assert got_d == pytest.approx(want_d, rel=1e-12)


def _pipeline_distances(points, q, metric):
    """Every point's weight and distance to q under the pipeline metric, in pipeline space."""
    chain = transform_chain_for(metric)
    native = pipeline_metric_for(metric)
    key = weights(native, transform_points(chain, points), transform_points(chain, [q])[0])
    return key, distances(native, key)


def _argsort_reference(points, q, metric, k, radius):
    """Every key computed, then a stable argsort of all of them: the oracle's answer.

    Every metric is weighed in pipeline space by its pipeline metric, as
    the library ranks it, and a radius keeps the points whose pipeline
    distance is at most it: cosine and angular by the chord between unit
    vectors, reported as the similarity 1 - c * c / 2 or the angle
    2 asin(min(1, c / 2)).
    """
    key, pdist = _pipeline_distances(points, q, metric)
    dist = pdist
    if metric.kind == "cosine":
        dist = 1.0 - pdist * pdist / 2.0
    elif metric.kind == "angular":
        dist = 2.0 * np.arcsin(np.minimum(pdist / 2.0, 1.0))
    ids = np.arange(len(key))
    if radius is not None:
        keep = pdist <= radius
        ids, dist, key = ids[keep], dist[keep], key[keep]
    order = np.argsort(key, kind="stable")[:k]
    return [(int(ids[i]), float(dist[i])) for i in order]


@st.composite
def oracle_cases(draw):
    metric = draw(st.sampled_from(ALL_METRICS))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["random", "lattice", "duplicated"]))
    if metric.kind == "hamming3":
        bits = ["".join(row) for row in rng.choice(["0", "1"], size=(n + 1, 3))]
        points, q = bits[:n], bits[n]
    else:
        cols = 2 if metric.kind == "euclid2d" else 3
        if layout == "random":
            rows = rng.normal(size=(n + 1, cols))
        elif layout == "lattice":
            rows = rng.integers(-4, 5, size=(n + 1, cols)) * 0.125
        else:
            rows = np.repeat(rng.normal(size=(n // 7 + 2, cols)), 7, axis=0)[: n + 1]
            rng.shuffle(rows)
        if metric.kind in ("cosine", "angular"):
            rows[~rows.any(axis=1)] = 0.125  # no zero vectors to normalise
        points, q = rows[:n], rows[n]
    k = draw(st.sampled_from([1, max(1, n - 1), n, n + 3]))
    radius = None
    if draw(st.booleans()):
        # one point's own pipeline distance: it and every tie sit exactly on the radius
        radius = float(_pipeline_distances(points, q, metric)[1][draw(st.integers(0, n - 1))])
    return points, q, metric, k, radius


@given(oracle_cases())
@settings(deadline=None, max_examples=300)
def test_selection_matches_stable_argsort(case):
    points, q, metric, k, radius = case
    want = _argsort_reference(points, q, metric, k, radius)
    assert brute_force_knn(points, q, metric, k, radius) == want
    # the batch maps the data once and answers each query as the one-query call does
    assert ground_truth(points, [q, q], metric, k, radius).rows == [want, want]


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0], ids=lambda p: f"lp:{p:g}")
@pytest.mark.parametrize("k", [1, 10])
def test_pruned_selection_matches_stable_argsort(p, k):
    # large enough that the L-inf prune drops rows for every query before the pow kernel
    rng = np.random.default_rng(23)
    metric = MetricSpec.lp(p)
    for points in (rng.random((2000, 3)), rng.integers(-8, 9, size=(2000, 3)) * 0.125):
        queries = np.concatenate([points[:5], rng.random((10, 3)) * 2 - 0.5])
        kept = [len(_reachable(np.asfortranarray(points), tuple(q), metric, k)) for q in queries]
        assert max(kept) < len(points)
        want = [_argsort_reference(points, q, metric, k, None) for q in queries]
        assert ground_truth(points, queries, metric, k).rows == want


@pytest.mark.parametrize("p, tiny", [(1.5, 1e-220), (3.0, 1e-110), (4.0, 1e-85)])
def test_pruned_selection_keeps_ties_lost_to_underflow(p, tiny):
    # rows 0-4 lie `tiny` away, but their weight underflows to 0 and ties
    # with the 12 copies of the query; the k-th L-inf offset is then 0
    rng = np.random.default_rng(29)
    points = np.concatenate([np.tile([tiny, 0.0, 0.0], (5, 1)), np.zeros((12, 3)), rng.random((30, 3))])
    metric = MetricSpec.lp(p)
    assert weights(metric, points[:1], [0.0, 0.0, 0.0])[0] == 0.0
    want = _argsort_reference(points, [0.0, 0.0, 0.0], metric, 10, None)
    assert [i for i, _ in want] == list(range(10))
    assert brute_force_knn(points, [0.0, 0.0, 0.0], metric, 10) == want


def test_pruned_selection_keeps_ties_at_inf():
    # every weight past the first three overflows to inf; the inf rows tie
    # and the smallest ids win, although rows 0-9 lie farthest on every axis
    rng = np.random.default_rng(31)
    points = np.concatenate([rng.random((10, 3)) * 1e155 + 1e155, rng.random((3, 3)),
                             rng.random((20, 3)) * 1e150 + 1e150])
    metric = MetricSpec.lp(3)
    with np.errstate(over="ignore"):
        want = _argsort_reference(points, [0.0, 0.0, 0.0], metric, 10, None)
        got = brute_force_knn(points, [0.0, 0.0, 0.0], metric, 10)
    ids = [i for i, _ in want]
    assert sorted(ids[:3]) == [10, 11, 12] and ids[3:] == list(range(7))
    assert got == want


def test_angular_consistent_with_chord_ranking():
    # rank by L2 in the normalized space, re-rank by derived angle: must
    # agree with the direct angular oracle (validates the transform without
    # touching the indexed pipeline)
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(4000, 3))
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    for q in rng.normal(size=(8, 3)):
        uq = q / np.linalg.norm(q)
        chord_row = brute_force_knn(unit, uq, MetricSpec.lp(2), 12)
        rederived = [(i, 2 * math.asin(min(1.0, d / 2))) for i, d in chord_row]
        direct = brute_force_knn(pts, q, MetricSpec.angular(), 12)
        assert [i for i, _ in rederived] == [i for i, _ in direct]
        for (_, a), (_, b) in zip(rederived, direct):
            assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("metric", [MetricSpec.cosine(), MetricSpec.angular()], ids=lambda m: m.canonical())
def test_chord_ranking_agrees_with_dot_products(metric):
    # an independent reference: the plain dot product of unit vectors from
    # np.linalg.norm, clipped, and its arccos for the angle.  Gaussian
    # scenes are tie-free, so the ids and their order must be equal; the
    # distances round differently, and agree within TOL.
    TOL = 1e-12  # the angles here are >= 1e-3, where an ulp of cosine moves the angle by < 1e-12
    rng = np.random.default_rng(43)
    k = 15
    short = {0.1: 0, 0.15: 0}
    for _ in range(4):
        pts = rng.normal(size=(3000, 3))
        queries = rng.normal(size=(10, 3))
        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        # chord radii: about 3000 * c**2 / 4 points lie within c, so many rows hold fewer than k
        for radius in (None, *short):
            truth = ground_truth(pts, queries, metric, k, radius)
            for q, row in zip(queries, truth.rows):
                cos = np.clip(unit @ (q / np.linalg.norm(q)), -1.0, 1.0)
                dist = cos if metric.kind == "cosine" else np.arccos(cos)
                ids = np.argsort(-cos, kind="stable")
                if radius is not None:
                    # the chord c as a similarity or an angle
                    limit = 1.0 - radius * radius / 2.0 if metric.kind == "cosine" else 2.0 * math.asin(radius / 2.0)
                    assert np.abs(dist - limit).min() > 1e-9  # no point on the radius either
                    ids = ids[(dist >= limit if metric.kind == "cosine" else dist <= limit)[ids]]
                    short[radius] += len(ids) < k
                assert np.diff(-cos[ids[:k + 1]]).min() > 1e-9  # no near-tie: the scene is tie-free
                assert np.arccos(cos[ids[0]]) >= 1e-3
                assert [i for i, _ in row] == ids[:k].tolist()
                assert np.allclose([d for _, d in row], dist[ids[:k]], rtol=0, atol=TOL)
    assert all(short.values())  # each radius leaves rows shorter than k, so membership is checked


def test_recall_worked_example():
    assert recall([1, 2, 5, 6], [1, 2, 3, 4]) == 0.5


def test_recall_identity_and_empty_result():
    truth = [(7, 0.1), (9, 0.2)]
    assert recall(truth, truth) == 1.0
    assert recall([], truth) == 0.0
    assert recall([(9, 0.2), (7, 0.1)], truth) == 1.0  # order-invariant


def test_recall_rejects_empty_truth():
    with pytest.raises(ValueError):
        recall([1, 2], [])


def test_aggregate_recall():
    truths = [[(1, 0.0)], [(2, 0.0), (3, 0.1)]]
    assert aggregate_recall([[1], [2, 5]], truths) == 0.75  # mean of 1.0 and 0.5
    assert aggregate_recall([[1], [2, 3]], truths) == 1.0
    with pytest.raises(ValueError):
        aggregate_recall([], [])
    with pytest.raises(ValueError, match="3 results vs 2 truth rows"):
        aggregate_recall([[1], [2], [3]], truths)
    # empty-truth queries are skipped, not averaged as zero
    assert aggregate_recall([[1], [5]], [[(1, 0.0)], []]) == 1.0


def test_ground_truth_roundtrip(tmp_path):
    pts = np.random.default_rng(0).random((50, 3))
    queries = np.random.default_rng(1).random((4, 3))
    truth = ground_truth(pts, queries, MetricSpec.linf(), 5)
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth.to_dict()))
    loaded = GroundTruth.load(path)
    assert loaded.metric == "linf"
    assert loaded.k == 5
    assert loaded.rows == truth.rows
    # a file's k is a count: a float, a bool or a string is refused, not truncated or parsed
    for bad in (2.5, True, "3"):
        path.write_text(json.dumps({**truth.to_dict(), "k": bad}))
        with pytest.raises(ValueError, match=f"k must be an integer, got {bad!r}"):
            GroundTruth.load(path)
    # a file's metric is a metric name, stored canonical: "lp:2.0" is the lp:2 that run_experiment searches
    for name, canonical in (("lp:2.0", "lp:2"), (" LINF ", "linf"), ("lp:1.50", "lp:1.5")):
        path.write_text(json.dumps({**truth.to_dict(), "metric": name}))
        assert GroundTruth.load(path).metric == canonical
    # one prefix on MetricSpec.parse's own refusal, for a non-string as for a bad name
    for bad, message in ((5, "'metric': metric must be a metric name, got 5"),
                         (None, "'metric': metric must be a metric name, got None"),
                         ("lp:x", "'metric': bad lp exponent in metric 'lp:x'"),
                         ("manhattan", "'metric': unknown metric 'manhattan'")):
        path.write_text(json.dumps({**truth.to_dict(), "metric": bad}))
        with pytest.raises(ValueError, match=f"a truth file's {message}"):
            GroundTruth.load(path)
    # a row's ids are integers >= 0 and its distances finite reals: nothing is truncated, cast or parsed
    good = {**truth.to_dict(), "rows": [[[np.int64(3), -0.5], [0, np.float32(0.25)]]]}
    assert GroundTruth.from_dict(good).rows == [[(3, -0.5), (0, 0.25)]]  # a cosine similarity may be negative
    assert [type(v) for pair in GroundTruth.from_dict(good).rows[0] for v in pair] == [int, float] * 2
    for row, message in (([[2.5, "0.1"], [True, "inf"]], r"truth row 0 slot 0 id must be an integer >= 0, got 2\.5"),
                         ([[2, "0.1"], [True, "inf"]], "truth row 0 slot 0 distance must be a real number, got '0.1'"),
                         ([[2, 0.1], [True, "inf"]], "truth row 0 slot 1 id must be an integer >= 0, got True"),
                         ([[2, 0.1], [1, "inf"]], "truth row 0 slot 1 distance must be a real number, got 'inf'"),
                         ([[2, 0.1], [1, math.inf]], "truth row 0 slot 1 distance must be finite, got inf"),
                         ([[2, 0.1], [-1, 0.2]], "truth row 0 slot 1 id must be an integer >= 0, got -1"),
                         ([[2, 0.1], [np.True_, 0.2]], "truth row 0 slot 1 id must be an integer >= 0, got"),
                         # rows recall cannot score: extra or repeated ids would skew its denominator
                         ([[i, 0.1] for i in range(6)], "truth row 0 holds 6 pairs, more than k = 5"),
                         ([[2, 0.1], [2, 0.1]], "truth row 0 slot 1 repeats id 2"),
                         ([[2, 0.1], [1, 0.2, 0.3]], r"truth row 0 slot 1 must be an \[id, distance\] pair, got \[1, 0\.2, 0\.3\]"),
                         ([[2, 0.1], 7], r"truth row 0 slot 1 must be an \[id, distance\] pair, got 7"),
                         (7, r"truth row 0 must be a list of \[id, distance\] pairs, got 7")):
        with pytest.raises(ValueError, match=message):
            GroundTruth.from_dict({**truth.to_dict(), "rows": [row]})
        # in a file, after a good row; JSON writes a numpy bool as true
        path.write_text(json.dumps({**truth.to_dict(), "rows": truth.to_dict()["rows"][:1] + [row]}, default=bool))
        with pytest.raises(ValueError, match=message.replace("row 0", "row 1")):
            GroundTruth.load(path)
    # a file that is no truth object: each refusal names the key
    for obj, message in (([truth.to_dict()], "a truth file holds a JSON object, got list"),
                         ({**truth.to_dict(), "rows": {"0": []}}, "a truth file's 'rows' must be a list, got dict"),
                         *(({key: v for key, v in truth.to_dict().items() if key != missing},
                            f"a truth file needs the key '{missing}'") for missing in ("metric", "k", "rows"))):
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=message):
            GroundTruth.load(path)


def test_oracle_out_file_loads(tmp_path, capsys):
    # `bvhknn oracle --out` is the one writer of a truth file: GroundTruth.load
    # reads it, schema and dataset keys included, with or without a radius
    data, queries = np.split(synthetic_points(210, 4), [200])
    ds = Dataset(data, queries)
    cfg = ReductionConfig(MetricSpec.lp(2), 0.2, 5)
    want = run_experiment(ds, cfg)["recall"]
    for radius in ([], ["--radius", "0.1"]):
        path = tmp_path / "truth.json"
        assert main(["oracle", "--n", "200", "--queries", "10", "--metric", "lp:2", "--k", "5",
                     "--seed", "4", *radius, "--out", str(path)]) == 0, capsys.readouterr().err
        assert {"schema", "dataset"} <= json.loads(path.read_text()).keys()
        loaded = GroundTruth.load(path)
        assert loaded == ground_truth(data, queries, cfg.metric, 5, radius=float(radius[1]) if radius else None)
        if not radius:
            assert run_experiment(ds, cfg, truth=loaded)["recall"] == want
    # a radius-bounded truth has rows shorter than k, some empty
    assert any(len(row) < 5 for row in loaded.rows) and not all(loaded.rows)
