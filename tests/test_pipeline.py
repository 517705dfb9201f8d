import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bvhknn import (
    Dataset,
    MetricSpec,
    ReductionConfig,
    batch_query,
    brute_force_knn,
    build_index,
    build_point_bvh,
    ground_truth,
    knn_search,
    pipeline_metric_for,
    run_experiment,
    run_query,
    scene_half_width,
    sweep,
    transform_chain_for,
    transform_points,
)
from bvhknn import bvh as bvh_module
from bvhknn import metrics as metrics_module
from bvhknn import pipeline as pipeline_module
from bvhknn.geometry import IDENTITY
from bvhknn.metrics import frame_for, source_distances
from bvhknn.pipeline import BatchResult, _run_order
from test_bvh import split_path

L1 = MetricSpec.lp(1)
L2 = MetricSpec.lp(2)
L3 = MetricSpec.lp(3)
LINF = MetricSpec.linf()


# --- scene geometry ---------------------------------------------------------

def test_scene_half_width_values():
    assert scene_half_width(ReductionConfig(LINF, 1.0, 1)) == math.sqrt(3)
    assert scene_half_width(ReductionConfig(LINF, 1.0, 1, enhanced=True)) == 1.0
    assert scene_half_width(ReductionConfig(L1, 2.0, 1)) == 2.0
    assert scene_half_width(ReductionConfig(L1, 2.0, 1, enhanced=True)) == 2.0


def test_scene_half_width_rejects_transform_metric():
    with pytest.raises(ValueError):
        scene_half_width(ReductionConfig(MetricSpec.cosine(), 1.0, 1))
    with pytest.raises(ValueError):
        scene_half_width(ReductionConfig(MetricSpec.cosine(), 1.0, 1, enhanced=True))


def test_config_validation():
    with pytest.raises(ValueError):
        ReductionConfig(L1, 0.0, 1)
    with pytest.raises(ValueError):
        ReductionConfig(L1, 1.0, 0)
    with pytest.raises(ValueError):
        build_point_bvh([[0.0, 0.0, 0.0]], 0.1, leaf_size=0)


def test_k_and_leaf_size_must_be_integers():
    pts = np.random.default_rng(3).random((50, 3))
    for bad in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            ReductionConfig(L2, 0.3, bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            knn_search(pts, pts[:2], L2, r=0.3, k=bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            brute_force_knn(pts, pts[0], L2, k=bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            ground_truth(pts, pts[:2], L2, k=bad)
        with pytest.raises(ValueError, match="leaf_size must be an integer"):
            build_point_bvh(pts, 0.1, leaf_size=bad)
    # numpy integers are integers, and the config and the index keep them as ints
    cfg = ReductionConfig(L2, 0.3, np.int64(2))
    assert cfg.k == 2 and type(cfg.k) is int
    for size in (np.int32(4), np.int64(4)):
        bvh = build_point_bvh(pts, 0.1, leaf_size=size)
        assert bvh.leaf_size == 4 and type(bvh.leaf_size) is int
    assert knn_search(pts, pts[:2], L2, r=0.3, k=np.int64(2)) == knn_search(pts, pts[:2], L2, r=0.3, k=2)
    assert brute_force_knn(pts, pts[0], L2, k=np.uint8(3)) == brute_force_knn(pts, pts[0], L2, k=3)
    assert type(ground_truth(pts, pts[:2], L2, k=np.int64(3)).k) is int


def test_counts_refuse_bools():
    # operator.index(True) is 1: a bool must not pass as k or leaf size 1
    pts = np.random.default_rng(3).random((50, 3))
    for flag in (True, np.True_, False, np.False_):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {flag!r}")):
            ReductionConfig(L2, 0.3, flag)
        with pytest.raises(ValueError, match=re.escape(f"leaf_size must be an integer, got {flag!r}")):
            build_point_bvh(pts, 0.1, flag)


def test_enhanced_must_be_a_bool():
    # a numpy bool is stored as a bool, so the report's JSON takes it; any
    # other value is refused rather than read as true, which builds the
    # narrower enhanced scene
    pts = np.random.default_rng(3).random((50, 3))
    for flag in (np.True_, np.False_):
        cfg = ReductionConfig(L2, 0.3, 2, enhanced=flag)
        assert cfg.enhanced is bool(flag)
        json.dumps(run_experiment(Dataset(pts, pts[:2]), cfg))
    for bad in ("no", 1, 0, None, np.array([True])):
        with pytest.raises(ValueError, match="enhanced must be a bool"):
            ReductionConfig(L3, 0.3, 2, enhanced=bad)
        with pytest.raises(ValueError, match="enhanced must be a bool"):
            knn_search(pts, pts[:2], L2, r=0.3, k=2, enhanced=bad)


def test_radius_must_be_a_real_number():
    # a numpy float is stored as a float, so the report's JSON takes it; a
    # bool or a string is refused rather than searched at 1.0 or failing in math
    pts = np.random.default_rng(3).random((50, 3))
    for r in (np.float32(0.3), np.float64(0.3), 1, np.int64(1)):
        cfg = ReductionConfig(L2, r, 2)
        assert type(cfg.r) is float and cfg.r == float(r)
        json.dumps(run_experiment(Dataset(pts, pts[:2]), cfg))
    assert ReductionConfig(L2, 0.3, 2).r == 0.3
    for bad in (True, np.True_, "0.3", None, np.array([0.3]), 1j):
        with pytest.raises(ValueError, match="radius must be a real number"):
            ReductionConfig(L2, bad, 2)
        with pytest.raises(ValueError, match="radius must be a real number"):
            knn_search(pts, pts[:2], L2, r=bad, k=2)
    with pytest.raises(ValueError, match=r"radius must be a real number, got '0.3'"):
        ReductionConfig(L2, "0.3", 2)


def test_metric_must_be_a_metric_spec():
    # a metric name or any other value is refused by name, where it used to
    # raise AttributeError deep in the search
    pts = np.random.default_rng(3).random((50, 3))
    ds = Dataset(pts, pts[:3])
    for bad in ("lp:2", None, 2):
        refused = re.escape(f"metric must be a MetricSpec, got {bad!r}")
        with pytest.raises(ValueError, match=refused):
            ReductionConfig(bad, 0.2, 3)
        with pytest.raises(ValueError, match=refused):
            dataclasses.replace(ReductionConfig(L2, 0.2, 3), metric=bad)
        with pytest.raises(ValueError, match=refused):
            knn_search(pts, pts[:3], bad, 0.3, 3)
        with pytest.raises(ValueError, match=refused):
            brute_force_knn(pts, pts[0], bad, 3)
        with pytest.raises(ValueError, match=refused):
            ground_truth(pts, pts[:3], bad, 3)
        with pytest.raises(ValueError, match=refused):
            transform_chain_for(bad)
        with pytest.raises(ValueError, match=refused):
            pipeline_metric_for(bad)
        # a config whose check was bypassed still meets the route's own
        cfg = ReductionConfig(L2, 0.2, 3)
        object.__setattr__(cfg, "metric", bad)
        with pytest.raises(ValueError, match=refused):
            run_experiment(ds, cfg)
        with pytest.raises(ValueError, match=refused):
            sweep(ds, cfg, "radius", [0.1, 0.2])
    for bad in (None, 2, b"lp:2", ["lp:2"]):
        with pytest.raises(ValueError, match=re.escape(f"metric must be a metric name, got {bad!r}")):
            MetricSpec.parse(bad)


# --- filter-refine pipelines ------------------------------------------------

def test_plain_three_point_l1():
    pts = np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], float)
    cfg = ReductionConfig(L1, 1.0, 2)
    bvh = build_index(pts, cfg)
    res = run_query(bvh, pts, [0.4, 0, 0], cfg)
    assert res.neighbors == [(0, pytest.approx(0.4)), (1, pytest.approx(0.6))]
    assert res.hit_count >= res.candidate_count >= len(res.neighbors)


def test_plain_linf_sphere_prefilter_admits_corner():
    # plain boxes of half width r' = sqrt(3) circumscribe the unit cube, so
    # the corner point is hit and kept although its L2 distance is > 1
    pts = np.array([[0.9, 0.9, 0.9]])
    cfg = ReductionConfig(LINF, 1.0, 1)
    bvh = build_index(pts, cfg)
    res = run_query(bvh, pts, [0, 0, 0], cfg)
    assert res.neighbors == [(0, pytest.approx(0.9))]


def test_enhanced_equals_plain_on_three_point_scene():
    pts = np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], float)
    plain_cfg = ReductionConfig(L1, 1.0, 2)
    enh_cfg = ReductionConfig(L1, 1.0, 2, enhanced=True)
    plain = run_query(build_index(pts, plain_cfg), pts, [0.4, 0, 0], plain_cfg)
    enh = run_query(build_index(pts, enh_cfg), pts, [0.4, 0, 0], enh_cfg)
    assert plain.neighbors == enh.neighbors


def test_enhanced_linf_excludes_point_outside_box():
    pts = np.array([[0.9, 0.9, 0.9], [1.1, 0, 0]])
    cfg = ReductionConfig(LINF, 1.0, 2, enhanced=True)
    bvh = build_index(pts, cfg)
    res = run_query(bvh, pts, [0, 0, 0], cfg)
    assert res.neighbors == [(0, pytest.approx(0.9))]
    assert res.hit_count == 1  # the second box does not contain the origin


def test_tie_keeps_smaller_id():
    # three points at L1 distance 1.0; the BVH delivers them as ids 2, 1, 0
    pts = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0]], float)
    res = knn_search(pts, [[0, 0, 0]], L1, r=1.0, k=2)[0]
    assert res.neighbors == [(0, 1.0), (1, 1.0)]


def test_fewer_than_k_in_range_returns_short_list():
    pts = np.array([[0, 0, 0], [5, 5, 5]], float)
    res = knn_search(pts, [[0.1, 0, 0]], L2, r=1.0, k=10)[0]
    assert res.ids() == [0]


@pytest.mark.parametrize("metric", [L1, L2, L3, LINF])
@pytest.mark.parametrize("enhanced", [False, True])
def test_matches_brute_force_within_radius(metric, enhanced):
    rng = np.random.default_rng(hash((metric.kind, metric.p, enhanced)) % 2**32)
    pts = rng.random((2000, 3))
    queries = rng.random((20, 3))
    k = 10
    truth = [brute_force_knn(pts, q, metric, k) for q in queries]
    r = max(row[-1][1] for row in truth) * (1 + 1e-9)
    results = knn_search(pts, queries, metric, r=r, k=k, enhanced=enhanced)
    for res, row in zip(results, truth):
        assert res.ids() == [i for i, _ in row]
        for (_, got), (_, want) in zip(res.neighbors, row):
            assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("metric", [L1, L3, LINF])
def test_plain_enhanced_equivalence_random(metric):
    rng = np.random.default_rng(17)
    pts = rng.random((1500, 3))
    queries = rng.random((15, 3))
    plain = knn_search(pts, queries, metric, r=0.2, k=5, enhanced=False)
    enh = knn_search(pts, queries, metric, r=0.2, k=5, enhanced=True)
    for a, b in zip(plain, enh):
        assert a.neighbors == b.neighbors
        assert b.hit_count <= a.hit_count
        assert a.hit_count >= a.candidate_count >= len(a.neighbors)
        assert b.hit_count >= b.candidate_count >= len(b.neighbors)


def test_radius_monotone_recall():
    rng = np.random.default_rng(23)
    pts = rng.random((3000, 3))
    queries = rng.random((10, 3))
    k = 8
    truth = [set(i for i, _ in brute_force_knn(pts, q, L1, k)) for q in queries]
    last = -1.0
    for r in (0.02, 0.05, 0.1, 0.2, 0.5):
        results = knn_search(pts, queries, L1, r=r, k=k)
        rec = sum(len(set(res.ids()) & t) / len(t) for res, t in zip(results, truth)) / len(truth)
        assert rec >= last
        last = rec
    assert last == 1.0


# --- batched path -----------------------------------------------------------

BATCH_METRICS = [L1, MetricSpec.lp(1.5), L2, L3, LINF]


def batch_scene(kind, rng):
    if kind == "random":
        return rng.random((600, 3))
    if kind == "lattice":
        return rng.integers(0, 9, size=(600, 3)) * 0.125  # ties on weight everywhere
    return rng.permutation(np.repeat(rng.random((90, 3)), 7, axis=0))  # 7 copies of each point


@pytest.mark.parametrize("leaf_size", [1, 4, 8, 16])
@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", BATCH_METRICS, ids=lambda m: m.canonical())
@pytest.mark.parametrize("kind", ["random", "lattice", "duplicates"])
def test_batch_query_equals_run_query(kind, metric, enhanced, leaf_size):
    rng = np.random.default_rng(leaf_size)
    pts = batch_scene(kind, rng)
    queries = np.vstack([
        rng.random((40, 3)),
        rng.integers(0, 17, size=(20, 3)) * 0.0625,  # on and between lattice points
        pts[:10],
        [[5.0, 5.0, 5.0], [-3.0, 0.5, 0.5]],  # far outside the cloud
    ])
    k = 8
    seen = []
    for r in (0.03, 0.2):
        cfg = ReductionConfig(metric, r, k, enhanced)
        bvh = build_point_bvh(pts, scene_half_width(cfg), leaf_size, frame_for(metric))
        got = batch_query(bvh, pts, queries, cfg)
        assert got == [run_query(bvh, pts, q, cfg) for q in queries]
        assert got[-1].hit_count == got[-2].hit_count == 0
        seen += got
    assert any(0 < res.candidate_count < k for res in seen)  # lists shorter than k
    assert any(res.candidate_count > k for res in seen)


def cluster_scene(rng, r):
    """Four 24-point clusters far apart, each one node of the tree, and a query per cluster.

    A dense slab, shaped like the heaviest queries of clustered data:
    2.2r long on x, 0.5r on y and 0.04r thin on z, so its points, spread
    at their density over a cube of side 2r, would number about 440k
    (k = 10), past the probe's bar of 30k; the same slab spread 1.9r on
    y and z (sparse, about 2.4k); a flat sheet, a plane tilted across the
    axes through 2.2r on x and 1.8r on y and z (about 2.7k); and a second
    dense slab.  Each query sits at the centre of the half of its cluster
    on its way, so that half lies within r of it on every axis, while the
    whole cluster overhangs that reach on x.
    """
    def box(y, z):
        return rng.uniform(-1, 1, size=(24, 3)) * [1.1 * r, y * r, z * r]

    sheet = box(0.9, 0.0)
    sheet[:, 2] = 0.45 * (sheet[:, 0] + sheet[:, 1])
    shapes = [box(0.25, 0.02), box(0.95, 0.95), sheet, box(0.25, 0.02)]
    centres = np.array([[0, 0, 0], [0, 100, 0], [200, 0, 0], [200, 100, 0]]) * r
    pts = np.vstack([shape + c for shape, c in zip(shapes, centres)])
    queries = []
    for shape, c in zip(shapes, centres):
        low = shape[np.argsort(shape[:, 0])[:12]] + c  # the half that the split on x puts on the left
        queries.append((low.min(axis=0) + low.max(axis=0)) / 2)
    return pts, np.array(queries)


@pytest.mark.parametrize("metric", [L1, L2], ids=lambda m: m.canonical())
def test_probe_takes_the_dense_gate_that_overhangs_the_reach(metric):
    # the probe's second rule: a gate whose box overhangs q ± (r + H) is
    # still probed when its child on the way lies inside and it is dense.
    # The rule reads the tree's frame, at the probe radius there: r itself
    # in the identity frame, r / 2 for lp:1, whose source rows are mapped
    # back from a scene laid out in its face frame.  There the scene's
    # scale is 3/4 of the probe radius, inside the (0.61, 1] that the rule
    # allows, so that the window's k-th L1 distance in the source rows,
    # about 4 times the frame's offsets, falls below r.
    rng = np.random.default_rng(30)
    r, k = 1.0, 10
    cfg = ReductionConfig(metric, r, k)
    frame = frame_for(metric)
    probe = pipeline_module._probe_params(cfg)[0]
    framed_pts, framed_queries = cluster_scene(rng, probe if frame is IDENTITY else 0.75 * probe)
    if frame is IDENTITY:
        pts, queries = framed_pts, framed_queries
    else:  # u = S x / 4, so x = (S / 4)^-1 u
        S = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]]) / 4
        pts, queries = (np.linalg.solve(S, u.T).T for u in (framed_pts, framed_queries))
    bvh = build_index(pts, cfg)
    assert bvh.frame is frame
    reach = probe + bvh.half_width
    for q in frame.rows(queries):  # the scene is as cluster_scene says: the gate, a cluster, overhangs; its child does not
        path = split_path(bvh, q)
        gate, child = path[2], path[3]
        assert bvh.counts[gate] == 24 and bvh.counts[child] == 12
        lo, hi = bvh.bounds[:, :3], -bvh.bounds[:, 3:]
        assert (q - reach <= lo[child]).all() and (hi[child] <= q + reach).all()
        assert not ((q - reach <= lo[gate]).all() and (hi[gate] <= q + reach).all())
    params = pipeline_module._probe_params(cfg)
    probed = [bvh_module.probe_window(bvh, tuple(q), *params) is not None for q in frame.rows(queries).tolist()]
    assert probed == [True, False, False, True]  # the dense slabs, not the sparse slab or the flat sheet
    assert bvh_module.probe_windows(bvh, frame.rows(queries), *params)[0].tolist() == [0, 3]
    got = batch_query(bvh, pts, queries, cfg)
    assert got == [run_query(bvh, pts, q, cfg) for q in queries]
    assert (got.radii[[0, 3]] < r).all() and (got.radii[[1, 2]] == r).all()
    for j, q in enumerate(queries):
        assert got[j].neighbors == brute_force_knn(pts, q, metric, k, r)


def test_work_counts_of_a_two_density_scene():
    # The work batch_query does is a pure function of the data, the config
    # and the tree, so it is pinned here bit for bit: a change to the probe
    # gate, the build or the walk shows as an edited number.  Half the
    # points are uniform, half in eight tight clusters, like clustered-l1.
    rng = np.random.default_rng(12)
    centres = rng.random((8, 3))
    pts = np.vstack([rng.random((1500, 3)), centres.repeat(190, axis=0) + rng.normal(0, 0.01, size=(1520, 3))])
    queries = np.vstack([rng.random((100, 3)), pts[rng.choice(len(pts), 200, replace=False)] + 0.001])
    cfg = ReductionConfig(L1, 0.02, 10)
    got = batch_query(build_index(pts, cfg), pts, queries, cfg)
    # (queries probed with a radius below r, hits, node boxes tested), in
    # lp:1's face frame; walked in the identity frame they read (39, 10456, 12328)
    counts = int((got.radii < cfg.r).sum()), int(got.hits.sum()), int(got.nodes_tested.sum())
    assert counts == (38, 3827, 9808)


@pytest.mark.parametrize("metric", BATCH_METRICS, ids=lambda m: m.canonical())
def test_leaf_size_never_changes_an_answer(metric):
    # a duplicated lattice: weights tie everywhere, at the k-th place too;
    # every leaf size gives the same neighbors, and they are the oracle's
    rng = np.random.default_rng(66)
    grid = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), axis=-1).reshape(-1, 3) * 0.2
    pts = rng.permutation(np.vstack([grid, grid[rng.integers(0, len(grid), 80)]]))
    queries = np.vstack([grid[::3], rng.integers(0, 11, size=(60, 3)) * 0.1])
    for r, k in ((0.2, 4), (0.45, 11)):
        want = [brute_force_knn(pts, q, metric, k, radius=r) for q in queries]
        for leaf_size in (1, 4, 8, 16):
            cfg = ReductionConfig(metric, r, k)
            got = batch_query(build_point_bvh(pts, scene_half_width(cfg), leaf_size, frame_for(metric)), pts, queries, cfg)
            assert [res.neighbors for res in got] == want


# Slot-test block sizes, None for the default: multi-block slot tests on
# both paths, for inset queries and for queries at inset 0.
@pytest.mark.parametrize("budget, block", [pytest.param(p, b, id=str(p) if b is None else f"{p}-block{b}")
                                           for p in (1, 50, 2000) for b in (None, 1, 7, 64)])
def test_batch_query_spans_runs(monkeypatch, budget, block):
    # a small pair budget splits the queries into many runs, down to one
    # query; a dense cluster makes many queries search a radius below r,
    # so their insets must follow them into whichever run they land in
    rng = np.random.default_rng(61)
    pts = np.vstack([rng.random((500, 3)), 0.5 + rng.uniform(-0.02, 0.02, (300, 3))])
    queries = np.vstack([rng.random((1031, 3)), 0.5 + rng.uniform(-0.02, 0.02, (200, 3))])
    queries = queries[rng.permutation(len(queries))]
    cfg = ReductionConfig(L2, 0.1, 5)
    bvh = build_index(pts, cfg)
    monkeypatch.setattr(bvh_module, "PAIR_BUDGET", budget)
    if block is not None:
        monkeypatch.setattr(bvh_module, "_SLOT_BLOCK", block)
    got = batch_query(bvh, pts, queries, cfg)
    assert 150 < np.count_nonzero(got.radii < cfg.r) < len(queries) - 500
    assert got == [run_query(bvh, pts, q, cfg) for q in queries]


@pytest.mark.parametrize("budget", [1, 50, 2000])
def test_batch_query_ties_across_runs(monkeypatch, budget):
    # a 5x5x5 lattice with duplicated points: lattice and half-lattice
    # queries tie on weight many times over, at the k-th place too, in runs
    # that split wherever the budget falls
    rng = np.random.default_rng(64)
    grid = np.stack(np.meshgrid(*[np.arange(5)] * 3, indexing="ij"), axis=-1).reshape(-1, 3) * 0.25
    pts = rng.permutation(np.vstack([grid, grid[rng.integers(0, len(grid), 60)], grid[:20]]))
    queries = rng.permutation(np.vstack([grid, rng.integers(0, 9, size=(100, 3)) * 0.125]))
    monkeypatch.setattr(bvh_module, "PAIR_BUDGET", budget)
    for metric, r, k in ((L1, 0.5, 7), (L2, 0.3, 12), (LINF, 0.25, 9)):
        cfg = ReductionConfig(metric, r, k)
        bvh = build_index(pts, cfg)
        got = batch_query(bvh, pts, queries, cfg)
        assert got == [run_query(bvh, pts, q, cfg) for q in queries]
        assert [res.neighbors for res in got] == [brute_force_knn(pts, q, metric, k, radius=r) for q in queries]


def test_run_order_is_the_three_key_lexsort():
    # exact weight ties, -0.0 beside +0.0, inf and subnormal weights, the
    # same id in several rows, single-row and empty runs
    rng = np.random.default_rng(65)
    pool = np.array([0.0, -0.0, np.inf, 5e-324, 0.25, 0.5, 1.0, 1.0 + 2.0 ** -52])
    for _ in range(300):
        lo = int(rng.integers(0, 50))
        hi = lo + int(rng.integers(1, 9))
        n = int(rng.integers(1, 40))
        per_row = rng.integers(0, n + 1, size=hi - lo)
        rows = np.repeat(np.arange(lo, hi), per_row)
        ids = np.concatenate([rng.permutation(n)[:c] for c in per_row]).astype(np.int64)
        w = np.where(rng.random(len(rows)) < 0.7, rng.choice(pool, len(rows)), rng.random(len(rows)))
        mix = rng.permutation(len(rows))
        rows, ids, w = rows[mix], ids[mix], w[mix]
        assert np.array_equal(_run_order(rows, ids, w, lo, hi, n), np.lexsort((ids, w, rows)))
    empty = np.zeros(0, dtype=np.int64)
    assert _run_order(empty, empty, np.zeros(0), 3, 5, 10).size == 0


def test_run_order_key_limit():
    # the largest key is (hi - lo) * R * n - 1: at 2**63 it still fits, above it is refused
    rows = np.array([2**16 - 1] * 2)
    ids = np.array([2**47 - 1, 2**47 - 2])
    assert _run_order(rows, ids, np.zeros(2), 0, 2**16, 2**47).tolist() == [1, 0]
    with pytest.raises(OverflowError):
        _run_order(rows, ids, np.zeros(2), 0, 2**16, 2**47 + 1)
    with pytest.raises(OverflowError):
        _run_order(rows, ids, np.array([0.0, 1.0]), 0, 2**16, 2**47)


def test_batch_query_memory_bounded_at_large_radius():
    # every box contains every query: 1.2M (query, hit) pairs in all, which
    # the runs must not hold at once.  The queries sit at the centre of the
    # cloud; all but 5 points lie outside their L2 radius, so no window
    # holds k points within r and no query shrinks its radius.
    rng = np.random.default_rng(62)
    cloud = rng.random((6000, 3))
    shell = cloud[np.linalg.norm(cloud - 0.5, axis=1) > 0.62][:1995]
    pts = rng.permutation(np.vstack([shell, 0.5 + rng.uniform(-0.05, 0.05, (5, 3))]))
    queries = 0.5 + rng.uniform(-0.02, 0.02, (600, 3))
    cfg = ReductionConfig(L2, 0.55, 10)
    bvh = build_index(pts, cfg)
    tracemalloc.start()
    try:
        got = batch_query(bvh, pts, queries, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.radii == cfg.r).all()
    assert [res.hit_count for res in got] == [len(pts)] * len(queries)
    assert [res.candidate_count for res in got] == [5] * len(queries)
    assert got[::97] == [run_query(bvh, pts, q, cfg) for q in queries[::97]]
    # 5,184,710 bytes traced, about 79 bytes a pair; PAIR_BUDGET's comment allows about 140
    assert peak < 160 * bvh_module.PAIR_BUDGET


def test_float32_data_is_searched_as_it_is():
    # the same points as float32 and widened to float64 give the same
    # results, counts included, and a query call does not copy the float32 data
    rng = np.random.default_rng(67)
    pts32 = np.vstack([rng.random((200_000, 3)), 0.5 + rng.uniform(-0.01, 0.01, (400, 3))]).astype(np.float32)
    pts64 = pts32.astype(np.float64)
    queries = np.vstack([rng.random((300, 3)), 0.5 + rng.uniform(-0.01, 0.01, (100, 3))])
    for metric, r in ((L2, 0.02), (L1, 0.03), (L3, 0.02), (LINF, 0.015)):
        cfg = ReductionConfig(metric, r, 10)
        bvh = build_index(pts64, cfg)
        assert build_index(pts32, cfg).boxes.tobytes() == bvh.boxes.tobytes()
        want = batch_query(bvh, pts64, queries, cfg)
        assert any(res.candidate_count > 10 for res in want)  # the k-th place is decided
        got = batch_query(bvh, pts32, queries, cfg)
        assert got == want and got.radii.tobytes() == want.radii.tobytes()
        assert [run_query(bvh, pts32, q, cfg) for q in queries[::20]] == want[::20]
    tracemalloc.start()
    try:
        run_query(bvh, pts32, queries[0], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pts64.nbytes


def test_strided_points_are_gathered_without_a_copy():
    # a column slice of wider records, and a Fortran-ordered copy: gathers
    # from them must not copy the whole array, as ndarray.take does
    rng = np.random.default_rng(63)
    records = rng.random((100_000, 4))
    pts = np.ascontiguousarray(records[:, :3])
    q = pts[7] + 0.001
    cfg = ReductionConfig(L1, 0.05, 10)
    bvh = build_index(pts, cfg)
    want = run_query(bvh, pts, q, cfg)
    assert want.radius < cfg.r  # the probe gathers too
    for view in (records[:, :3], np.asfortranarray(pts)):
        assert not view.flags.c_contiguous
        tracemalloc.start()
        try:
            got = run_query(bvh, view, q, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < pts.nbytes // 8
        assert batch_query(bvh, view, [q], cfg) == [want]


def test_batch_query_no_queries():
    # an empty list is an empty batch, as an empty (0, 3) array is; run_query
    # reads [] as one query of no coordinates
    pts = np.array([[0, 0, 0], [1, 0, 0]], float)
    cfg = ReductionConfig(L2, 0.5, 1)
    bvh = build_index(pts, cfg)
    for none in (np.empty((0, 3)), []):
        got = batch_query(bvh, pts, none, cfg)
        assert got == [] and got.radii.shape == (0,)
    for metric, data in ((L2, pts), (MetricSpec.cosine(), pts + 1), (MetricSpec.euclid2d(), pts[:, :2]),
                         (MetricSpec.hamming3(), pts)):
        assert knn_search(data, [], metric, 0.5, 1) == []
        assert ground_truth(data, [], metric, 1).rows == []
    with pytest.raises(ValueError, match=re.escape("expected an (n, 3) array of query points, got shape (1, 0)")):
        run_query(bvh, pts, [], cfg)


def test_batch_result_layout():
    # (m, k) arrays in cKDTree.query's layout: a short row is padded with
    # id n and distance inf; items are run_query's results, built on access
    rng = np.random.default_rng(72)
    pts = rng.random((400, 3))
    queries = np.vstack([rng.random((30, 3)), [[5.0, 5.0, 5.0]]])
    cfg = ReductionConfig(L2, 0.15, 6)
    bvh = build_index(pts, cfg)
    got = batch_query(bvh, pts, queries, cfg)
    want = [run_query(bvh, pts, q, cfg) for q in queries]
    assert isinstance(got, BatchResult) and len(got) == len(queries)
    assert got.ids.shape == got.distances.shape == (len(queries), 6)
    assert got.ids.dtype == np.int64 and got.distances.dtype == np.float64
    filled = np.minimum(got.candidates, 6)
    assert {0, 6} <= set(filled.tolist()) and ((0 < filled) & (filled < 6)).any()  # empty, short and full rows
    for row, res in enumerate(want):
        f = len(res.neighbors)
        assert got.ids[row, :f].tolist() == res.ids()
        assert got.distances[row, :f].tolist() == [d for _, d in res.neighbors]
        assert (got.ids[row, f:] == len(pts)).all() and (got.distances[row, f:] == np.inf).all()
    assert got.candidates.tolist() == [res.candidate_count for res in want]
    assert got.hits.tolist() == [res.hit_count for res in want]
    assert got.nodes_tested.tolist() == [res.node_visits for res in want]
    assert got.radii.dtype == np.float64 and got.radii.tolist() == [res.radius for res in want]
    assert got[0] == want[0] and got[-1] == want[-1] and got[np.int64(3)] == want[3]
    assert got[-1].neighbors == [] and got[-1].hit_count == 0
    # the probe passes over the far query: both entry points report r itself, as a float
    assert got[-1].radius == got.radii[-1] == want[-1].radius == cfg.r and type(want[-1].radius) is float
    with pytest.raises(IndexError):
        got[len(queries)]
    with pytest.raises(IndexError):
        got[-len(queries) - 1]
    assert list(got) == want and got == want and got == tuple(want) and want == got
    assert got[5:9] == want[5:9] and isinstance(got[5:9], BatchResult)
    assert got != want[:-1] and got != want[::-1] and got != "x" * len(want)
    none = batch_query(bvh, pts, [], cfg)
    assert none.ids.shape == none.distances.shape == (0, 6) and none == [] and list(none) == []


def test_source_units_are_the_per_pair_formulas():
    # cosine and angular distances convert bitwise as c -> 1 - c * c / 2 and
    # c -> 2 arcsin(min(1, c / 2)) do, the angle by np.arcsin over the whole
    # array; the padding stays (n, inf)
    rng = np.random.default_rng(37)
    data = rng.normal(size=(100_000, 3))
    queries = rng.normal(size=(40, 3))
    unit = transform_points(transform_chain_for(MetricSpec.cosine()), data)
    cfg = ReductionConfig(L2, 0.02, 10)
    chords = batch_query(build_index(unit, cfg), unit, transform_points(transform_chain_for(MetricSpec.cosine()), queries), cfg)
    assert (chords.candidates < 10).any() and (chords.candidates > 10).any()
    formulas = {"cosine": lambda c: 1.0 - c * c / 2.0, "angular": lambda c: 2.0 * np.arcsin(np.minimum(c / 2.0, 1.0))}
    for name, formula in formulas.items():
        got = knn_search(data, queries, MetricSpec.parse(name), 0.02, 10)
        assert np.array_equal(got.ids, chords.ids)
        padded = chords.distances == np.inf
        assert (got.distances[padded] == np.inf).all()
        want = formula(chords.distances[~padded])
        assert got.distances[~padded].tobytes() == want.tobytes()


def test_source_units_keep_the_radii_in_chords():
    # knn_search converts the distances of cosine and angular, but not the
    # radii r_q: they stay chords <= r, bitwise the pipeline-space batch's
    rng = np.random.default_rng(38)
    data = rng.normal(size=(20_000, 3))
    queries = rng.normal(size=(200, 3))
    unit = transform_points(transform_chain_for(MetricSpec.cosine()), data)
    cfg = ReductionConfig(L2, 0.1, 10)
    chords = batch_query(build_index(unit, cfg), unit, transform_points(transform_chain_for(MetricSpec.cosine()), queries), cfg)
    assert (chords.radii < cfg.r).any() and (chords.radii == cfg.r).any()
    for name in ("cosine", "angular"):
        got = knn_search(data, queries, MetricSpec.parse(name), cfg.r, 10)
        assert got.radii.tobytes() == chords.radii.tobytes() and (got.radii <= cfg.r).all()
        assert [res.radius for res in got] == chords.radii.tolist()
        filled = chords.distances < np.inf
        assert filled.any() and (got.distances[filled] != chords.distances[filled]).all()


def test_batch_query_rejects_bad_query_arrays():
    pts = np.array([[0, 0, 0], [1, 0, 0]], float)
    cfg = ReductionConfig(L2, 0.5, 1)
    bvh = build_index(pts, cfg)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        batch_query(bvh, pts, np.array([0.0, 0.0, 0.0]), cfg)
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        batch_query(bvh, pts, np.zeros((2, 2)), cfg)
    with pytest.raises(ValueError, match=r"shape \(2, 4\)"):
        batch_query(bvh, pts, np.zeros((2, 4)), cfg)
    for bad in (np.nan, np.inf, -np.inf):
        queries = np.zeros((4, 3))
        queries[2, 1] = bad
        with pytest.raises(ValueError, match="query index 2"):
            batch_query(bvh, pts, queries, cfg)


def test_an_index_in_another_frame_is_refused():
    # lp:1 and Hamming filter in the face frame, every other metric in the
    # identity: a tree built in the other frame is refused by both entry
    # points, naming both frames, however wide its boxes
    pts = np.random.default_rng(5).random((40, 3))
    faces = frame_for(L1)
    assert frame_for(MetricSpec.hamming3()) is faces and frame_for(L2) is IDENTITY is not faces
    cases = [
        (build_point_bvh(pts, 1.0), ReductionConfig(L1, 0.2, 3), "lp:1", faces, IDENTITY),
        (build_point_bvh(pts, 1.0, 4), ReductionConfig(L1, 0.2, 3, enhanced=True), "lp:1", faces, IDENTITY),
        (build_index(pts, ReductionConfig(L1, 1.0, 3)), ReductionConfig(L2, 0.2, 3), "lp:2", IDENTITY, faces),
        (build_point_bvh(pts, 1.0, frame=faces), ReductionConfig(LINF, 0.2, 3), "linf", IDENTITY, faces),
    ]
    for index, config, name, wanted, built in cases:
        assert index.frame is built and config.frame is wanted
        message = re.escape(f"metric {name!r} filters in the {wanted.name} frame but the index was built in "
                            f"the {built.name} frame")
        with pytest.raises(ValueError, match=message):
            run_query(index, pts, pts[0], config)
        with pytest.raises(ValueError, match=message):
            batch_query(index, pts, pts[:2], config)
    # the same points in the right frame answer as the oracle does
    cfg = ReductionConfig(L1, 0.2, 3)
    index = build_point_bvh(pts, 1.0, frame=faces)
    assert index.half_width == 0.25 and index.frame is faces
    assert [res.neighbors for res in batch_query(index, pts, pts[:5], cfg)] == \
        [brute_force_knn(pts, q, L1, 3, radius=0.2) for q in pts[:5]]


def test_query_entry_points_share_input_checks():
    pts = np.array([[0, 0, 0], [1, 0, 0]], float)
    cfg = ReductionConfig(L2, 0.5, 1)
    bvh = build_index(pts, cfg)
    cases = [
        (bvh, pts[:1], cfg, "2 primitives but dataset has 1"),
        # boxes narrower than the config needs: an index built at r/2, and
        # enhanced lp:3 and linf indexes asked for the wider plain scene
        (build_index(pts, ReductionConfig(L2, 0.25, 1)), pts, cfg, "half width 0.5 but the index was built with 0.25"),
    ]
    for metric in (L3, LINF):
        plain = ReductionConfig(metric, 0.5, 1)
        enhanced = build_index(pts, ReductionConfig(metric, 0.5, 1, enhanced=True))
        cases.append((enhanced, pts, plain, f"half width {scene_half_width(plain)} but the index was built with 0.5"))
    # data of the wrong width or rank: 2-D distances, say, must not answer a 3-D index
    for data in (pts[:, :2], np.zeros((2, 4)), pts.ravel()[:2]):
        cases.append((bvh, data, cfg, f"expected an (n, 3) array of data points, got shape {data.shape}"))
    for index, data, config, message in cases:
        message = re.escape(message)
        with pytest.raises(ValueError, match=message) as single:
            run_query(index, data, [0, 0, 0], config)
        with pytest.raises(ValueError, match=message) as batch:
            batch_query(index, data, [[0, 0, 0]], config)
        assert str(single.value) == str(batch.value)
    # one bad query fails alike at every entry point, as a one-query batch
    for q, message in (([0, np.nan, 0], "query index 0 has non-finite coordinates"),
                       (np.array([np.inf, 0, 0]), "query index 0 has non-finite coordinates"),
                       ([0, 0], "expected an (n, 3) array of query points, got shape (1, 2)"),
                       (np.zeros(4), "expected an (n, 3) array of query points, got shape (1, 4)")):
        message = re.escape(message)
        with pytest.raises(ValueError, match=message) as single:
            run_query(bvh, pts, q, cfg)
        with pytest.raises(ValueError, match=message) as batch:
            batch_query(bvh, pts, [q], cfg)
        assert str(single.value) == str(batch.value)


def test_query_calls_refuse_a_transform_backed_metric():
    # one refusal, from the scene's inclusion radius, names the route into pipeline space
    pts = np.array([[0, 0, 0], [1, 0, 0]], float)
    bvh = build_index(pts, ReductionConfig(L2, 0.5, 1))
    for metric in (MetricSpec.cosine(), MetricSpec.angular(), MetricSpec.euclid2d(), MetricSpec.hamming3()):
        cfg = ReductionConfig(metric, 0.5, 1)
        message = (f"metric {metric.canonical()!r} has no L2 inclusion radius; "
                   "map the points with transform_chain_for and search with pipeline_metric_for")
        with pytest.raises(ValueError, match=re.escape(message)) as single:
            run_query(bvh, pts, [0, 0, 0], cfg)
        with pytest.raises(ValueError, match=re.escape(message)) as batch:
            batch_query(bvh, pts, [[0, 0, 0]], cfg)
        assert str(single.value) == str(batch.value)


def test_build_and_search_name_the_bad_data_row():
    data = np.array([[0, 0, 0], [np.nan, 0, 0], [1, 1, 1]])
    cfg = ReductionConfig(L2, 1.0, 1)
    with pytest.raises(ValueError, match="data index 1 has non-finite coordinates"):
        build_index(data, cfg)
    for metric in (L2, MetricSpec.cosine()):
        with pytest.raises(ValueError, match="data index 1 has non-finite coordinates"):
            knn_search(data, [[0.5, 0.5, 0.5]], metric, 1.0, 1)
        with pytest.raises(ValueError, match="data index 1 has non-finite coordinates"):
            brute_force_knn(data, [0.5, 0.5, 0.5], metric, 1)


# --- transforms -------------------------------------------------------------

# The chains of the routes' three maps: unit vectors, the (x, y, 0) lift and cube vertices.
NORMALIZE = transform_chain_for(MetricSpec.cosine())
EMBED_2D = transform_chain_for(MetricSpec.euclid2d())
HAMMING_VERTEX = transform_chain_for(MetricSpec.hamming3())


def test_apply_transform_examples():
    assert transform_points(NORMALIZE, [(3, 4, 0)]).tolist() == [[0.6, 0.8, 0.0]]
    assert transform_points(EMBED_2D, [(1, 2)]).tolist() == [[1, 2, 0]]
    assert transform_points(HAMMING_VERTEX, ["101"]).tolist() == [[1, 0, 1]]
    assert transform_points(HAMMING_VERTEX, ["1"]).tolist() == [[0, 0, 1]]  # left-padded


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        transform_points(NORMALIZE, [(0, 0, 0)])
    with pytest.raises(ValueError, match="index 1"):
        transform_points(NORMALIZE, np.array([[1, 0, 0], [0, 0, 0]], float))


def normalized(rows):
    """NORMALIZE's one path, row-wise: y = x / max |x_i|, then y / sqrt(sum y_i**2)."""
    rows = np.asarray(rows, dtype=np.float64)
    y = rows / np.abs(rows).max(axis=1)[:, None]
    return y / np.sqrt((y * y).sum(axis=1))[:, None]


def test_normalize_scales_norms_that_overflow_or_underflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or underflow warning escapes
        unit = transform_points(NORMALIZE, [[1e-170, 0, 0], [0, -1e-320, 0], [1e200, 0, 0],
                                            [3e300, 4e300, 0], [3e-200, 4e-200, 0]])
        assert unit.tolist() == [[1, 0, 0], [0, -1, 0], [1, 0, 0], [0.6, 0.8, 0], [0.6, 0.8, 0]]
        big = transform_points(NORMALIZE, [[1e200] * 3])
        assert np.allclose(big, 3 ** -0.5, rtol=1e-15, atol=0)
        # every row takes the one path, bit for bit: Gaussian rows, a subnormal
        # row and a row whose small component underflows against its large one
        rows = np.concatenate([np.random.default_rng(8).normal(size=(500, 3)),
                               [[5e-324, 0.0, -1e-323], [3e-320, -4e-321, 7e-322], [1e300, 1e-300, 0.0]]])
        unit = transform_points(NORMALIZE, rows)
        assert unit.tobytes() == normalized(rows).tobytes()
        assert unit[-3].tolist() == (np.array([0.5, 0.0, -1.0]) / np.sqrt(1.25)).tolist()
        assert unit[-1].tolist() == [1.0, 0.0, 0.0]
        # an exact positive multiple maps to the same bits: every c * v below
        # is exact (checked in Fractions), as 3 * v and 0.5 * v all are
        grid = np.stack(np.meshgrid(*[np.arange(-6.0, 7.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[grid.any(axis=1)]
        base = transform_points(NORMALIZE, grid)
        for c in (3.0, 0.5, 1e-170, 1e200):
            scaled = c * grid
            exact = np.array([all(Fraction(x) == Fraction(c) * Fraction(v) for x, v in zip(cv, v))
                              for cv, v in zip(scaled.tolist(), grid.tolist())])
            assert exact.all() if c in (3.0, 0.5) else exact.sum() >= 300
            assert transform_points(NORMALIZE, scaled[exact]).tobytes() == base[exact].tobytes()
    with pytest.raises(ValueError, match="zero vector at point index 1"):
        transform_points(NORMALIZE, [[1e-170, 0, 0], [0, 0, 0]])


def test_cosine_finds_the_parallel_vector_of_a_huge_query():
    data = [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
    for q in ([1e200] * 3, [1e-170] * 3):
        truth = brute_force_knn(data, q, MetricSpec.cosine(), 2)
        found = knn_search(data, [q], MetricSpec.cosine(), 1.9, 2)[0].neighbors
        for row in (truth, found):
            assert row[0][0] == 0 and row[0][1] == pytest.approx(1.0, abs=1e-12)
        assert [i for i, _ in found] == [i for i, _ in truth]


def test_hamming_vertex_rejects_bad_strings():
    for bad in ("", "0110", "21", 5):
        with pytest.raises(ValueError):
            transform_points(HAMMING_VERTEX, [bad])
    # vertex rows that are not 0/1: the first bad row is named, data or query
    phrase = "hamming input must be bit strings or 0/1 vertex rows"
    chain = transform_chain_for(MetricSpec.hamming3())
    with pytest.raises(ValueError, match=f"^query index 1: {phrase}$"):
        transform_points(chain, [[0, 1, 0], [0, 2, 0], [0.5, 0, 0]], label="query")
    with pytest.raises(ValueError, match=f"^data index 2: {phrase}$"):
        knn_search([[0, 1, 0], [1, 1, 1], [0, 0, float("nan")]], [[0, 1, 0]], MetricSpec.hamming3(), 1.0, 1)
    with pytest.raises(ValueError, match=f"^query index 1: {phrase}$"):
        knn_search([[0, 1, 0]], [[0, 1, 0], [-1, 0, 0]], MetricSpec.hamming3(), 1.0, 1)
    with pytest.raises(ValueError, match=f"^query index 0: {phrase}$"):
        brute_force_knn([[0, 1, 0]], [0, 2, 0], MetricSpec.hamming3(), 1)


def test_a_bare_bit_string_is_no_collection():
    # "101" as the query collection once read as three 1-bit queries
    codes = ["000", "001", "010", "011", "100", "101", "110", "111"]
    h3 = MetricSpec.hamming3()
    with pytest.raises(ValueError, match="collection of query rows, got the bare string '101'"):
        knn_search(codes, "101", h3, 3.0, 2)
    with pytest.raises(ValueError, match="collection of query rows, got the bare string '110'"):
        ground_truth(codes, "110", h3, 2)
    with pytest.raises(ValueError, match="collection of data rows, got the bare string '0101'"):
        knn_search("0101", ["101"], h3, 3.0, 2)
    with pytest.raises(ValueError, match="collection of point rows"):
        transform_points(HAMMING_VERTEX, np.str_("11"))
    # one query in a list is one query, and brute_force_knn wraps its one query itself
    want = [(5, 0.0), (1, 1.0)]
    assert brute_force_knn(codes, "101", h3, 2) == want
    assert ground_truth(codes, ["101"], h3, 2).rows == [want]
    assert [res.neighbors for res in knn_search(codes, ["101"], h3, 3.0, 2)] == [want]


def test_transform_points_rejects_an_unknown_transform():
    # a chain holds the routes' maps, not their names, and no other function
    for bad in ("normalize", None, np.asarray):
        with pytest.raises(ValueError, match=re.escape(f"unknown transform {bad!r}")):
            transform_points([bad], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="unknown transform 'normalize'"):
        transform_points(NORMALIZE + ["normalize"], [[1.0, 0.0, 0.0]])


def test_transform_points_matches_scalar():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 3))
    batch = transform_points(NORMALIZE, pts)
    for (x, y, z), out in zip(pts.tolist(), batch):
        norm = math.sqrt(x * x + y * y + z * z)
        single = (x / norm, y / norm, z / norm)
        assert single == pytest.approx(tuple(out), rel=1e-15)


def test_chain_resolution():
    assert transform_chain_for(MetricSpec.cosine()) == transform_chain_for(MetricSpec.angular())
    assert transform_chain_for(MetricSpec.euclid2d()) != transform_chain_for(MetricSpec.cosine())
    assert pipeline_metric_for(MetricSpec.hamming3()) == L1
    assert pipeline_metric_for(MetricSpec.angular()) == L2
    assert transform_chain_for(L2) == []
    assert pipeline_metric_for(L2) == L2
    # Every kind MetricSpec.parse accepts has exactly one route: a native kind is
    # searched as it is, any other through one transform into a native metric.
    kinds = {value for name, value in vars(metrics_module).items() if name.startswith("KIND_")}
    specs = [MetricSpec.parse(f"lp:{p}") for p in (1, 1.5, 2, 3)]
    specs += [MetricSpec.parse(kind) for kind in sorted(kinds - {metrics_module.KIND_LP})]
    assert {spec.kind for spec in specs} == kinds
    for spec in specs:
        chain, native = transform_chain_for(spec), pipeline_metric_for(spec)
        if spec.is_native:
            assert chain == [] and native == spec
        else:
            assert chain == [metrics_module._REDUCTIONS[spec.kind][0]] and native.is_native
        assert scene_half_width(ReductionConfig(native, 0.5, 3)) >= 0.5  # the route reaches a scene
    assert set(metrics_module._REDUCTIONS) == {spec.kind for spec in specs if not spec.is_native}


@pytest.mark.parametrize("name", ["lp:1", "lp:2", "lp:3", "linf", "euclid2d", "hamming3", "cosine", "angular"])
def test_to_source_units_per_kind(name):
    metric = MetricSpec.parse(name)
    rng = np.random.default_rng(17)
    if metric.kind == "hamming3":
        data, queries, r = rng.integers(0, 2, size=(10, 3)), rng.integers(0, 2, size=(12, 3)), 1.0
    elif metric.kind == "euclid2d":
        data, queries, r = rng.random((300, 2)), rng.random((30, 2)), 0.08
    else:
        data, queries, r = rng.normal(size=(300, 3)), rng.normal(size=(30, 3)), 0.3
    k = 8
    chain, config = transform_chain_for(metric), ReductionConfig(pipeline_metric_for(metric), r, k)
    data3, queries3 = transform_points(chain, data), transform_points(chain, queries)
    batch = batch_query(build_index(data3, config), data3, queries3, config)
    filled = batch.filled
    assert (filled < k).any() and (filled > 0).any()  # padded slots and neighbours both
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the padding converts without a RuntimeWarning
        dist = source_distances(metric, batch.distances)
        out = knn_search(data, queries, metric, r, k)
    # knn_search's batch is this one, its distances mapped back
    for field in ("ids", "candidates", "hits", "nodes_tested", "radii"):
        assert getattr(out, field).tobytes() == getattr(batch, field).tobytes()
    assert out.distances.tobytes() == dist.tobytes()
    if metric.kind not in ("cosine", "angular"):
        assert dist is batch.distances
        return
    pad = np.arange(k) >= filled[:, None]
    assert (out.ids[pad] == len(data)).all() and (out.distances[pad] == np.inf).all()
    # each filled slot is the oracle's conversion of the same chord, bit for bit
    truth = ground_truth(data, queries, metric, k, radius=r).rows
    assert [d for row in truth for _, d in row] == out.distances[~pad].tolist()
    assert [i for row in truth for i, _ in row] == out.ids[~pad].tolist()
    assert not np.array_equal(out.distances[~pad], batch.distances[~pad])


def test_transformed_query_angular_example():
    data = np.array([[0, 1, 0], [1, 1, 0]], float)
    res = knn_search(data, [[1, 0, 0]], MetricSpec.angular(), r=1.5, k=2)[0]
    assert res.neighbors[0][0] == 1
    assert res.neighbors[0][1] == pytest.approx(math.pi / 4, rel=1e-12)
    assert res.neighbors[1] == (0, pytest.approx(math.pi / 2, rel=1e-12))


def test_transformed_query_cosine_reports_similarity():
    data = np.array([[0, 1, 0], [1, 1, 0]], float)
    res = knn_search(data, [[1, 0, 0]], MetricSpec.cosine(), r=1.5, k=2)[0]
    assert res.neighbors[0] == (1, pytest.approx(math.cos(math.pi / 4), rel=1e-12))
    assert res.neighbors[1][1] == pytest.approx(0.0, abs=1e-12)  # 90 degrees


def test_transformed_query_hamming_tie():
    data = ["000", "011", "111"]
    res = knn_search(data, ["001"], MetricSpec.hamming3(), r=3.0, k=1)[0]
    assert res.neighbors == [(0, 1.0)]  # ties at distance 1 break by id


def test_transformed_query_euclid2d():
    rng = np.random.default_rng(31)
    data = rng.random((500, 2))
    queries = rng.random((5, 2))
    truth = [brute_force_knn(data, q, MetricSpec.euclid2d(), 5) for q in queries]
    r = max(row[-1][1] for row in truth) * (1 + 1e-9)
    results = knn_search(data, queries, MetricSpec.euclid2d(), r=r, k=5)
    for res, row in zip(results, truth):
        assert res.ids() == [i for i, _ in row]
        for (_, got), (_, want) in zip(res.neighbors, row):
            assert got == pytest.approx(want, rel=1e-10)


def test_angular_top_k_matches_dot_product_oracle():
    rng = np.random.default_rng(37)
    data = rng.normal(size=(100_000, 3))
    queries = rng.normal(size=(5, 3))
    k = 10
    # independent oracle: rank by descending cosine similarity via raw dots
    unit = data / np.linalg.norm(data, axis=1, keepdims=True)
    truth_rows = [brute_force_knn(data, q, MetricSpec.angular(), k) for q in queries]
    r = max(row[-1][1] for row in truth_rows)  # max angular distance at rank k
    chord = 2 * math.sin(min(r, math.pi) / 2) * (1 + 1e-9)
    results = knn_search(data, queries, MetricSpec.angular(), r=chord, k=k)
    for res, q in zip(results, queries):
        uq = q / np.linalg.norm(q)
        dots = unit @ uq
        want = np.argsort(-dots, kind="stable")[:k]
        assert res.ids() == list(want)


def test_cosine_order_reversed_against_chord():
    # larger chord means smaller similarity, order for order
    rng = np.random.default_rng(53)
    q = rng.normal(size=(2000, 3))
    a = rng.normal(size=(2000, 3))
    b = rng.normal(size=(2000, 3))
    uq, ua, ub = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (q, a, b))
    sim_a, sim_b = (uq * ua).sum(axis=1), (uq * ub).sum(axis=1)
    chord_a = np.linalg.norm(uq - ua, axis=1)
    chord_b = np.linalg.norm(uq - ub, axis=1)
    not_tied = (sim_a != sim_b) & (chord_a != chord_b)
    assert (((sim_a > sim_b) == (chord_a < chord_b))[not_tied]).all()


def test_reported_distances_within_radius():
    rng = np.random.default_rng(59)
    pts = rng.random((800, 3))
    queries = rng.random((10, 3))
    for metric in (L1, L3, LINF):
        for res in knn_search(pts, queries, metric, r=0.25, k=50):
            assert all(d <= 0.25 * (1 + 1e-12) for _, d in res.neighbors)
            ids = res.ids()
            assert len(set(ids)) == len(ids)
            assert res.neighbors == sorted(res.neighbors, key=lambda t: (t[1], t[0]))


def test_composed_embed_then_l1():
    # 2D data under Manhattan distance: lift to 3D, then run the L1 pipeline
    rng = np.random.default_rng(41)
    data2 = rng.random((800, 2))
    queries2 = rng.random((6, 2))
    lift = transform_chain_for(MetricSpec.euclid2d())
    data3 = transform_points(lift, data2)
    queries3 = transform_points(lift, queries2)
    cfg = ReductionConfig(L1, 0.4, 5)
    bvh = build_index(data3, cfg)
    results = batch_query(bvh, data3, queries3, cfg)
    for res, q in zip(results, queries2):
        l1 = np.abs(data2 - q).sum(axis=1)
        in_range = np.flatnonzero(l1 <= 0.4)
        want = in_range[np.argsort(l1[in_range], kind="stable")][:5]
        assert res.ids() == list(want)
