"""Exact radius boundaries: the pipeline must equal the oracle with r unpadded.

Every case runs `knn_search` and `brute_force_knn(..., radius=r)` at the
same r and asserts identical (id, distance) lists, and that no reported
distance exceeds r.  The scenes put points on or next to the radius:
exactly r along one axis, the oracle's own k-th distance used as r, and
duplicate points that tie on weight.

Cosine and angular are searched as chords between NORMALIZE's unit
vectors, and the oracle ranks them by the same chords and takes its
radius as a chord too, so exact ties in angle break by smaller id on both
sides: exact multiples of one direction, lattice directions and scaled
lattice rows must give the oracle's ids, order and distances.  Every
metric, plain and enhanced, on Gaussian, lattice and duplicated scenes,
searched at one data point's own pipeline distance, must give the
radius-bounded oracle's rows bit for bit.

Dense scenes do the same for the radius r_q < r that the probe gives a
query (`BatchResult.radii`): points exactly r_q away along an axis, ties at
r_q inside and outside the probe's window, duplicates that make r_q 0,
and scenes too small for a window of 4k points.  Each dense scene is
also searched at r on indexes built with wider boxes, which must give
the same neighbors.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvhknn import (
    MetricSpec,
    ReductionConfig,
    batch_query,
    brute_force_knn,
    build_index,
    build_point_bvh,
    containment_scan,
    distances,
    ground_truth,
    knn_search,
    pipeline_metric_for,
    run_query,
    scene_half_width,
    transform_chain_for,
    transform_points,
    weights,
)
from bvhknn.geometry import IDENTITY
from bvhknn.metrics import frame_for
from bvhknn.pipeline import _insets

METRICS = [MetricSpec.lp(1), MetricSpec.lp(1.5), MetricSpec.lp(2), MetricSpec.lp(3), MetricSpec.linf()]
SCENES = 100


def assert_matches_oracle(pts, queries, metric, r, k, enhanced):
    results = knn_search(pts, queries, metric, r=r, k=k, enhanced=enhanced)
    for res, q in zip(results, queries):
        assert res.neighbors == brute_force_knn(pts, q, metric, k, radius=r)
        assert all(d <= r for _, d in res.neighbors)
    return results


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_points_exactly_r_along_an_axis(metric, enhanced):
    rng = np.random.default_rng(101)
    for _ in range(SCENES):
        q = rng.random(3)
        r = float(rng.uniform(0.05, 0.5))
        axis = np.vstack([q + r * np.eye(3), q - r * np.eye(3)])
        fill = q + rng.uniform(-r, r, size=(20, 3))
        pts = rng.permutation(np.vstack([axis, fill]))
        assert_matches_oracle(pts, [q], metric, r, len(pts), enhanced)


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_oracle_kth_distance_as_radius(metric, enhanced):
    rng = np.random.default_rng(202)
    k = 5
    for _ in range(SCENES):
        pts = rng.random((150, 3))
        queries = rng.random((4, 3))
        r = brute_force_knn(pts, queries[0], metric, k)[-1][1]
        results = assert_matches_oracle(pts, queries, metric, r, k, enhanced)
        assert len(results[0].neighbors) == k  # the k-th neighbor sits on r and is kept


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_duplicate_points_tie_by_id(metric, enhanced):
    rng = np.random.default_rng(303)
    k = 6
    for _ in range(SCENES // 4):
        distinct = rng.random((12, 3))
        pts = distinct[rng.integers(0, len(distinct), size=60)]
        q = rng.random(3)
        r = brute_force_knn(pts, q, metric, k)[-1][1]
        res = assert_matches_oracle(pts, [q], metric, r, k, enhanced)[0]
        assert len(res.neighbors) == k
        # every copy of the k-th point is on r; the smallest ids are kept, in order
        copies = np.flatnonzero((pts == pts[res.neighbors[-1][0]]).all(axis=1)).tolist()
        kept = [i for i, _ in res.neighbors if i in copies]
        assert kept == copies[: len(kept)]


@pytest.mark.parametrize("enhanced", [False, True])
def test_euclid2d_oracle_kth_distance_as_radius(enhanced):
    rng = np.random.default_rng(404)
    metric, k = MetricSpec.euclid2d(), 5
    for _ in range(SCENES // 4):
        pts = rng.random((150, 2))
        queries = rng.random((4, 2))
        r = brute_force_knn(pts, queries[0], metric, k)[-1][1]
        results = assert_matches_oracle(pts, queries, metric, r, k, enhanced)
        assert len(results[0].neighbors) == k


@pytest.mark.parametrize("enhanced", [False, True])
def test_hamming3_ties_at_oracle_kth_distance(enhanced):
    # every vertex of the cube, plus duplicates: distances are 0..3 bit
    # flips, so nearly every neighbor ties with others on weight
    rng = np.random.default_rng(505)
    metric = MetricSpec.hamming3()
    vertices = [format(v, "03b") for v in range(8)]
    for _ in range(SCENES // 4):
        codes = rng.permutation(vertices + list(rng.choice(vertices, size=24))).tolist()
        queries = rng.choice(vertices, size=4).tolist()
        # past the query's own copies, so the k-th distance is a positive r
        k = int(rng.integers(codes.count(queries[0]) + 1, len(codes) + 1))
        r = brute_force_knn(codes, queries[0], metric, k)[-1][1]
        results = assert_matches_oracle(codes, queries, metric, r, k, enhanced)
        assert len(results[0].neighbors) == k


def assert_probed_matches_oracle(pts, queries, metric, r, k, enhanced):
    """Both entry points equal the oracle at r, on the index built at r and on wider ones.

    The wider indexes are built at 2r and 4r, and for an enhanced config
    also plain at r, which is wider for lp:3 and linf.  Returns the
    batch on the index built at r, with the radii its queries were
    searched with.
    """
    cfg = ReductionConfig(metric, r, k, enhanced)
    builds = [cfg, replace(cfg, r=2 * r), replace(cfg, r=4 * r)] + [replace(cfg, enhanced=False)] * enhanced
    indexes = [build_index(pts, c) for c in builds]
    runs = [batch_query(index, pts, queries, cfg) for index in indexes]
    want = [brute_force_knn(pts, q, metric, k, radius=r) for q in queries]
    for index, results in zip(indexes, runs):
        assert results == [run_query(index, pts, q, cfg) for q in queries]
        assert [res.neighbors for res in results] == want
    return runs[0]


def kth_distance(pts, q, metric, k):
    return brute_force_knn(pts, q, metric, k)[-1][1]


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_inset_boxes_pass_points_within_r_q(metric, enhanced):
    # the bound of _insets, with the node walk's comparison: a point p whose
    # offset p - q rounds to at most r_q on an axis stays inside its box of
    # half width H >= h(r), inset for r_q, whether H is the index's own
    # width for r or wider.  r_q = r on the index's own width needs the
    # boxes widened: p - q may round down to r from just past it.  This is
    # the identity frame's bound, for lp:1 too; the face frame's pad has its
    # own test.
    rng = np.random.default_rng(1111)
    for _ in range(200):
        r = float(rng.uniform(0.01, 0.25))
        cfg = ReductionConfig(metric, r, 1, enhanced)
        H = scene_half_width(cfg) * float(rng.choice([1.0, 2.0, rng.uniform(1.0, 4.0)]))
        r_q = r * 2.0 ** -rng.uniform(0, 40, size=500)
        r_q[:100] = r
        q = H * rng.uniform(-2, 2, size=500) * 2.0 ** -rng.uniform(0, 20, size=500)
        p = q + r_q
        inset = _insets(SimpleNamespace(half_width=H, frame=IDENTITY), scene_half_width(cfg), r_q, cfg, q)
        assert ((p - H <= q - inset) | (p - q > r_q)).all()


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_points_exactly_r_q_along_an_axis(metric, enhanced):
    # the six points s away along an axis are the k = 6 nearest, and with
    # 20 points the window holds them all, so the probe takes r_q = s: each
    # lies exactly on a face of the boxes inset to r_q.  r is not dyadic,
    # so the inset rounds.  lp:1 probes in its face frame at 2r, which holds
    # the points within L1 distance 2r >= 4s, so there the far points' other
    # two offsets are halved, to keep their L1 offsets within 4s.
    rng = np.random.default_rng(111)
    k = 6
    spread = 0.5 if frame_for(metric) is not IDENTITY else 1.0
    for _ in range(SCENES):
        q = rng.integers(0, 64, size=3) / 64
        s = 2.0 ** -int(rng.integers(3, 8))
        r = float(rng.uniform(2.0, 3.0)) * s
        far = rng.uniform(-2, 2, size=(14, 3)) * spread  # within r on every axis, farther than s on one
        far[np.arange(14), rng.integers(0, 3, size=14)] = rng.choice([-1, 1], size=14) * rng.uniform(1.25, 2, size=14)
        pts = rng.permutation(np.vstack([q + s * np.eye(3), q - s * np.eye(3), q + s * far]))
        results = assert_probed_matches_oracle(pts, [q], metric, r, k, enhanced)
        assert results.radii[0] == kth_distance(pts, q, metric, k) < r
        assert len(results[0].neighbors) == k


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_lattice_ties_at_the_probed_radius(metric, enhanced):
    # a 5x5x5 lattice: every distance ties many times over, and the window
    # of 4k of the 125 points holds only some of the points at its own k-th
    # distance r_q; those outside it must still pass the inset boxes
    rng = np.random.default_rng(606)
    grid = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    shrunk = 0
    for _ in range(SCENES // 2):
        q = rng.integers(0, 64, size=3) / 64
        s = 2.0 ** -int(rng.integers(3, 8))
        pts = rng.permutation(q + s * grid)
        queries = q + s * rng.integers(-2, 3, size=(4, 3)) / 2
        r = float(rng.uniform(2.5, 4.0)) * s
        k = int(rng.integers(1, 16))
        results = assert_probed_matches_oracle(pts, queries, metric, r, k, enhanced)
        shrunk += np.count_nonzero(results.radii < r)
    assert shrunk > SCENES  # most of the 200 queries search a radius below r


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_duplicates_give_zero_probed_radius(metric, enhanced):
    # 3k copies of the query point: when the window holds k of them (the
    # build may scatter copies between subtrees), its k-th distance is 0,
    # and the boxes inset to r_q = 0 pass the copies and nothing else.
    # lp:1 probes in its face frame at 2r, so there the near points lie
    # within 2r / 3 on every axis, within L1 distance 2r.
    rng = np.random.default_rng(707)
    spread = 2 / 3 if frame_for(metric) is not IDENTITY else 1.0
    zero = 0
    for _ in range(SCENES // 2):
        q = rng.random(3)
        k = int(rng.integers(1, 9))
        r = float(rng.uniform(0.05, 0.2))
        near = q + rng.uniform(-r, r, size=(40, 3)) * spread
        pts = rng.permutation(np.vstack([np.tile(q, (3 * k, 1)), near]))
        results = assert_probed_matches_oracle(pts, [q], metric, r, k, enhanced)
        if results.radii[0] == 0.0:
            zero += 1
            assert results[0].hit_count == 3 * k
    assert zero > SCENES // 4


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.canonical())
def test_small_scenes_fall_back_or_probe_every_point(metric):
    # fewer than 2k points: no subtree is big enough, and fewer than k would
    # not fill a window, so the radius stays r and every box keeps its full
    # size; 2k <= n < 4k: the window is every point, so r_q is the oracle's
    # own k-th distance
    rng = np.random.default_rng(808)
    k, r = 5, 0.3
    for n in (1, k - 1, k, 2 * k - 1, 2 * k, 4 * k - 1):
        for _ in range(10):
            q = rng.random(3)
            pts = q + rng.uniform(-0.1, 0.1, size=(n, 3))
            results = assert_probed_matches_oracle(pts, [q], metric, r, k, False)
            if n < 2 * k:
                h = scene_half_width(ReductionConfig(metric, r, k))
                assert results.radii[0] == r
                assert results[0].hit_count == len(containment_scan(pts, h, q))
            else:
                assert results.radii[0] == kth_distance(pts, q, metric, k)


lattice = st.integers(0, 4).map(lambda i: i * 0.25)
half_lattice = st.integers(0, 8).map(lambda i: i * 0.125)


@given(
    pts=st.lists(st.tuples(lattice, lattice, lattice), min_size=1, max_size=40),
    q=st.tuples(half_lattice, half_lattice, half_lattice),
    metric=st.sampled_from(METRICS),
    enhanced=st.booleans(),
    k=st.integers(1, 8),
    r=st.one_of(st.none(), st.integers(1, 8).map(lambda i: i * 0.25)),
)
@settings(deadline=None, max_examples=200)
def test_pipeline_matches_oracle_on_lattice(pts, q, metric, enhanced, k, r):
    # quantized coordinates make equal weights common: ties must break by
    # smaller id whatever order the BVH delivers the hits in
    pts = np.array(pts)
    if r is None:  # the oracle's own k-th distance, when it is positive
        r = brute_force_knn(pts, q, metric, k)[-1][1] or 0.25
    res = assert_matches_oracle(pts, [q], metric, r, k, enhanced)[0]
    ids = res.ids()
    keys = list(zip(weights(metric, pts[ids], q).tolist(), ids))
    assert keys == sorted(keys)


def nudge(x, step):
    """x moved one ulp towards x + step, or x itself for step 0."""
    return float(np.nextafter(x, x + step)) if step else x


near_lattice = st.builds(nudge, lattice, st.sampled_from([-1.0, 0.0, 0.0, 1.0]))


@given(
    pts=st.lists(st.tuples(near_lattice, near_lattice, near_lattice), min_size=1, max_size=40),
    queries=st.lists(st.tuples(half_lattice, half_lattice, half_lattice), min_size=1, max_size=6),
    metric=st.sampled_from(METRICS),
    enhanced=st.booleans(),
    leaf_size=st.sampled_from([1, 4, 8, 16]),
    k=st.integers(1, 8),
    r=st.one_of(st.none(), st.integers(1, 8).map(lambda i: i * 0.25)),
)
@settings(deadline=None, max_examples=200)
def test_batch_query_matches_oracle_near_lattice(pts, queries, metric, enhanced, leaf_size, k, r):
    # one batch_query call answers every query; points sit on or one ulp
    # off the lattice, so weights tie or nearly tie at the radius
    pts, queries = np.array(pts), np.array(queries)
    if r is None:  # the oracle's own k-th distance for the first query, when positive
        r = brute_force_knn(pts, queries[0], metric, k)[-1][1] or 0.25
    cfg = ReductionConfig(metric, r, k, enhanced)
    bvh = build_point_bvh(pts, scene_half_width(cfg), leaf_size, frame_for(metric))
    results = batch_query(bvh, pts, queries, cfg)
    assert len(results) == len(queries)
    for res, q in zip(results, queries):
        assert res.neighbors == brute_force_knn(pts, q, metric, k, radius=r)


ANGLES = [MetricSpec.cosine(), MetricSpec.angular()]


def assert_angles_match_oracle(data, queries, metric, r, k, enhanced):
    """knn_search at chord r equals the oracle at r, a prefix of its unbounded rows, whole when r = 2.

    Both sides keep the chords <= r, a prefix of the oracle's chord order,
    ties in angle included.  Returns the batch.
    """
    got = knn_search(data, queries, metric, r, k, enhanced)
    bounded = ground_truth(data, queries, metric, k, radius=r).rows
    truth = ground_truth(data, queries, metric, k).rows
    for res, q, row, full in zip(got, queries, bounded, truth):
        assert brute_force_knn(data, q, metric, k) == full
        assert res.neighbors == row == full[:len(row)]
        if r == 2.0:
            assert len(row) == len(full)
    return got


def lattice_rows(rng, n, span=3):
    """n nonzero integer rows with coordinates in [-span, span]: many directions tie in angle."""
    rows = rng.integers(-span, span + 1, size=(2 * n, 3)).astype(float)
    return rows[rows.any(axis=1)][:n]


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", ANGLES, ids=lambda m: m.canonical())
def test_exact_multiples_tie_in_angle(metric, enhanced):
    # a few lattice directions, each given as several exact positive
    # multiples (small integers and powers of two), so every copy of a
    # direction ties at the same angle; the copies parallel to a query come
    # first, by id, at angle exactly 0 and similarity exactly 1
    rng = np.random.default_rng(909)
    scales = np.array([1.0, 2.0, 3.0, 5.0, 7.0, 0.25, 2.0 ** -600, 2.0 ** 600])
    same = 0.0 if metric.kind == "angular" else 1.0
    radii, parallels = [], 0
    for _ in range(SCENES // 4):
        directions = lattice_rows(rng, 8)
        which = rng.integers(0, len(directions), size=40)
        data = directions[which] * rng.choice(scales, size=(40, 1))
        d = directions[which]  # small integers: the cross and dot products below are exact
        aims = rng.integers(0, len(directions), size=4)
        queries = directions[aims] * rng.choice(scales, size=(4, 1))
        k = int(rng.integers(1, 16))
        for r in (2.0, 0.5):
            got = assert_angles_match_oracle(data, queries, metric, r, k, enhanced)
            radii.append(got.radii / r)
            for res, aim in zip(got, aims):
                parallel = np.flatnonzero(~np.cross(d, directions[aim]).any(axis=1) & (d @ directions[aim] > 0))
                assert res.neighbors[:len(parallel)] == [(i, same) for i in parallel[:k].tolist()]
                parallels += len(parallel) > 1
    radii = np.concatenate(radii)
    assert (radii < 1).any() and (radii == 1).any()  # probed queries and unprobed ones
    assert parallels > SCENES // 4  # queries with two or more parallel copies


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", ANGLES, ids=lambda m: m.canonical())
def test_lattice_directions_tie_in_angle(metric, enhanced):
    # integer lattice rows, as they are and times random scales: directions
    # that are parallel, or sit at equal angles from a query, tie exactly in
    # chord, so both sides break the tie by smaller id
    rng = np.random.default_rng(919)
    radii = []
    for _ in range(SCENES // 4):
        data = lattice_rows(rng, 60)
        queries = lattice_rows(rng, 6, span=2)
        k = int(rng.integers(1, 20))
        for scaled in (False, True):
            if scaled:
                data = data * 10.0 ** rng.uniform(-5, 5, size=(len(data), 1))
                queries = queries * 10.0 ** rng.uniform(-5, 5, size=(len(queries), 1))
            for r in (2.0, 0.7):
                got = assert_angles_match_oracle(data, queries, metric, r, k, enhanced)
                radii.append(got.radii / r)
    radii = np.concatenate(radii)
    assert (radii < 1).any() and (radii == 1).any()


def test_parallel_vectors_from_two_scales_tie():
    # [3, -3, -3] and [2, -2, -2] once normalised one ulp apart, so the
    # pipeline put id 1 first and reported an angle of 1.9e-16 for it
    data = [[3.0, -3.0, -3.0], [2.0, -2.0, -2.0]]
    q = [2.0, -2.0, -2.0]
    for metric, same in ((MetricSpec.cosine(), 1.0), (MetricSpec.angular(), 0.0)):
        want = [(0, same), (1, same)]
        assert brute_force_knn(data, q, metric, 2) == ground_truth(data, [q], metric, 2).rows[0] == want
        for enhanced in (False, True):
            assert knn_search(data, [q], metric, 2.0, 2, enhanced)[0].neighbors == want


ALL_METRICS = [*METRICS, *ANGLES, MetricSpec.euclid2d(), MetricSpec.hamming3()]


def source_scene(rng, metric, layout, n):
    """n rows in the source form of `metric`: Gaussian, lattice, or a few rows copied many times."""
    cols = 2 if metric.kind == "euclid2d" else 3
    if layout == "gaussian":
        rows = rng.normal(size=(n, cols))
    elif layout == "lattice":
        rows = rng.integers(-3, 4, size=(n, cols)) * 0.25
    else:
        rows = rng.normal(size=(n // 3 + 1, cols))[rng.integers(0, n // 3 + 1, size=n)]
    if metric.kind == "hamming3":
        return ["".join("1" if x > 0 else "0" for x in row) for row in rows.tolist()]
    if metric.kind in ("cosine", "angular"):
        rows[~rows.any(axis=1)] = 0.125  # no zero vectors to normalise
    return rows


def bits(row):
    """A neighbor row with each distance as its exact bits, so that -0.0 and 0.0 differ."""
    return [(i, d.hex()) for i, d in row]


@pytest.mark.parametrize("layout", ["gaussian", "lattice", "duplicated"])
@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.canonical())
def test_knn_search_equals_radius_bounded_oracle(metric, enhanced, layout):
    # the oracle takes its radius in pipeline units, as knn_search does (a
    # chord for cosine and angular), so the two keep the same points; r is
    # one data point's own pipeline distance, so that point sits on r
    rng = np.random.default_rng(1212)
    chain, native = transform_chain_for(metric), pipeline_metric_for(metric)
    short = probed = 0
    for _ in range(SCENES // 5):
        data = source_scene(rng, metric, layout, int(np.exp(rng.uniform(np.log(10), np.log(200)))))
        queries = source_scene(rng, metric, layout, 4)
        k = int(rng.integers(1, 17))
        w = weights(native, transform_points(chain, data), transform_points(chain, queries[:1])[0])
        own = distances(native, w)
        own = own[own > 0]  # a search radius is > 0
        r = float(rng.choice(own))
        got = knn_search(data, queries, metric, r, k, enhanced)
        truth = ground_truth(data, queries, metric, k, radius=r).rows
        for res, q, row in zip(got, queries, truth):
            assert bits(res.neighbors) == bits(row) == bits(brute_force_knn(data, q, metric, k, radius=r))
        short += sum(len(row) < min(k, len(data)) for row in truth)
        probed += np.count_nonzero(got.radii < r)
    assert short and probed  # rows cut by the radius, and queries searched with r_q < r


# lp:1 and Hamming filter in the face frame, u = S x / 4
# (bvhknn.geometry.face_rows).  The frame's rounding grows with the
# coordinates' size, not with r, so these scenes sit where _insets' pad
# decides: at scales near the smallest normals and the largest doubles, and
# far from the origin with a radius of a few ulps there.

L1 = MetricSpec.lp(1)


def assert_face_frame_matches_oracle(pts, queries, r, k, enhanced):
    """On lp:1's face-frame index, batch_query == [run_query ...] == the oracle at r, and so is knn_search."""
    cfg = ReductionConfig(L1, r, k, enhanced)
    bvh = build_index(pts, cfg)
    assert bvh.frame is frame_for(L1) is not IDENTITY
    got = batch_query(bvh, pts, queries, cfg)
    assert got == [run_query(bvh, pts, q, cfg) for q in queries]
    want = [brute_force_knn(pts, q, L1, k, radius=r) for q in queries]
    assert [res.neighbors for res in got] == want
    assert [res.neighbors for res in knn_search(pts, queries, L1, r, k, enhanced)] == want
    return got


# (centre of the cloud, its lattice step): coordinates near 1e-300 and
# 1e300 of either sign, near +1.7e308 and -1.7e308, whose face map would
# overflow without its quarter, and near 1e6 with steps of about 9 ulps.
EXTREMES = {
    "tiny": (lambda rng: rng.uniform(-1, 1, size=3) * 1e-300, 1e-302),
    "huge": (lambda rng: rng.uniform(-1, 1, size=3) * 1e300, 1e298),
    "top": (lambda rng: np.full(3, 1.7e308) - rng.uniform(0, 1, size=3) * 1e307, 1e306),
    "bottom": (lambda rng: np.full(3, -1.7e308) + rng.uniform(0, 1, size=3) * 1e307, 1e306),
    "far": (lambda rng: 1e6 + rng.uniform(-1, 1, size=3), 1e-9),
}


@pytest.mark.parametrize("layout", ["lattice", "duplicated", "random"])
@pytest.mark.parametrize("where", sorted(EXTREMES))
def test_face_frame_is_exact_where_the_pad_decides(where, layout):
    # a 5x5x5 lattice (weights tie many times over, at the k-th place too),
    # the same lattice with every point three times, or random points, at
    # the scene's scale; the queries sit on and between lattice points and
    # on data points, and r is the first query's own k-th distance, so
    # points lie exactly on the radius, or a lattice multiple of the step
    rng = np.random.default_rng(sorted(EXTREMES).index(where) * 3 + ["lattice", "duplicated", "random"].index(layout))
    centre_of, step = EXTREMES[where]
    for _ in range(4):
        centre = centre_of(rng)
        if layout == "random":
            grid = rng.uniform(0, 4, size=(150, 3))
        else:
            grid = rng.integers(0, 5, size=(150, 3)).astype(float)
            if layout == "duplicated":
                grid = np.repeat(grid[:50], 3, axis=0)
        pts = rng.permutation(centre + step * grid)
        queries = np.vstack([centre + step * rng.integers(0, 9, size=(10, 3)) / 2, pts[:4],
                             centre + step * rng.uniform(-1, 5, size=(4, 3))])
        assert np.isfinite(pts).all() and np.isfinite(frame_for(L1).rows(pts)).all()
        k = int(rng.integers(1, 12))
        kth = brute_force_knn(pts, queries[0], L1, k)[-1][1]
        for r in (kth or step, 2.0 * step, 0.75 * step):
            for enhanced in (False, True):
                assert_face_frame_matches_oracle(pts, queries, r, k, enhanced)


def test_face_frame_maps_every_finite_row_to_finite_boxes():
    # (1e308, 1e308, 0) sums to inf unscaled; scaled by 1/4 no finite row
    # maps to an infinity, nor do its boxes at any finite r, so such data
    # builds, in a spread whose coordinate extents the build can take, and
    # answers as the oracle does
    big = np.finfo(np.float64).max
    rows = np.array([[1e308, 1e308, 0.0], [big, big, big], [-big, -big, -big], [big, -big, big], [-big, big, big]])
    u = frame_for(L1).rows(rows)
    assert np.isfinite(u).all() and abs(u).max() == 0.75 * big
    pts = np.array([[1e308, 1e308, 0.0], [big, big, big], [1e308, 1e308, 1e-300], [2e307, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for r in (1.0, 1e307, big):
        bvh = build_index(pts, ReductionConfig(L1, r, 2))
        assert np.isfinite(bvh.bounds).all() and np.isfinite(bvh.boxes).all() and np.isfinite(bvh.split_plane).all()
    # rows at the top of the range, whose L1 distances stay finite
    top = np.array([[big, big, big], [big, big, 1.7e308], [1.7e308, 1.75e308, big], [1.6e308, 1.7e308, 1.7e308]])
    for r in (1e306, 3e307, 4e307):
        assert_face_frame_matches_oracle(top, top, r, 2, False)


@pytest.mark.parametrize("enhanced", [False, True])
def test_hamming3_in_the_face_frame(enhanced):
    # every vertex of the cube three times over, plus more copies: Hamming
    # distances 0..3 tie everywhere, and the walk runs in the face frame of
    # lp:1, which Hamming is searched as
    rng = np.random.default_rng(808)
    metric = MetricSpec.hamming3()
    vertices = [format(v, "03b") for v in range(8)]
    codes = rng.permutation(vertices * 3 + list(rng.choice(vertices, size=16))).tolist()
    chain = transform_chain_for(metric)
    data, queries = transform_points(chain, codes), transform_points(chain, vertices)
    for k in (1, 3, 5, 12, 40):
        for r in (0.5, 1.0, 2.0, 3.0):
            cfg = ReductionConfig(pipeline_metric_for(metric), r, k, enhanced)
            bvh = build_index(data, cfg)
            assert bvh.frame is frame_for(metric) is frame_for(L1)
            got = batch_query(bvh, data, queries, cfg)
            assert got == [run_query(bvh, data, q, cfg) for q in queries]
            want = [brute_force_knn(codes, v, metric, k, radius=r) for v in vertices]
            assert [res.neighbors for res in got] == want
            assert [res.neighbors for res in knn_search(codes, vertices, metric, r, k, enhanced)] == want
