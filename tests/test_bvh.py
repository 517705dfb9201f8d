import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bvhknn import (Bvh, MetricSpec, ReductionConfig, build_index, build_point_bvh, containment_scan,
                    transform_chain_for, transform_points, traverse_points)
from bvhknn import bvh as bvh_module
from bvhknn.geometry import IDENTITY
from bvhknn.metrics import frame_for


def collect_hits(bvh, q):
    """Ids of the boxes that contain the query row `q`, in the order the walk of `q` reports them."""
    return bvh_module.point_hits(bvh, tuple(q))[0].tolist()


def nodes_tested(bvh, q):
    """Node boxes the walk of the query row `q` tests."""
    return bvh_module.point_hits(bvh, tuple(q))[1]


def children(bvh, node):
    """(left, right) for an internal node, None for a leaf: the right child is left + 1."""
    left = int(bvh.left[node])
    return None if left < 0 else (left, left + 1)


def leaf_ids(bvh, node):
    """Dataset ids stored in a leaf, read from its slots of `perm`."""
    assert bvh.left[node] < 0
    start = int(bvh.starts[node])
    return bvh.perm[start:start + bvh.counts[node]].tolist()


def lo_hi(rows):
    """Box rows as the index stores them, (lo, -hi), turned back into (lo, hi): the negation is exact."""
    rows = np.asarray(rows)
    return np.concatenate([rows[..., :3], -rows[..., 3:]], axis=-1)


def same_tree(a, b):
    """Whether two indexes hold equal tables, compared table by table, and equal scalars."""
    tables = ("bounds", "left", "starts", "counts", "perm", "boxes", "split_axis", "split_plane")
    return (all(np.array_equal(getattr(a, t), getattr(b, t)) for t in tables)
            and (a.half_width, a.leaf_size, a.max_depth()) == (b.half_width, b.leaf_size, b.max_depth()))


def walk_boxes(bvh):
    """(node, its box as a (lo, hi) list, children or None) for every node, by full recursion."""
    out = []

    def walk(idx):
        box = lo_hi(bvh.bounds[idx]).tolist()
        kids = children(bvh, idx)
        out.append((idx, box, kids))
        if kids:
            walk(kids[0])
            walk(kids[1])

    walk(0)
    return out


def test_single_primitive_tree():
    bvh = build_point_bvh([[1.0, 2.0, 3.0]], 0.5, leaf_size=4)
    assert bvh.num_nodes == 1
    assert bvh.bounds[0].tolist() == [0.5, 1.5, 2.5, -1.5, -2.5, -3.5]  # the upper faces negated
    assert lo_hi(bvh.bounds[0]).tolist() == [0.5, 1.5, 2.5, 1.5, 2.5, 3.5]
    assert leaf_ids(bvh, 0) == [0]
    assert bvh.max_depth() == 1
    assert nodes_tested(bvh, (1, 2, 3)) == 1


def test_two_separated_primitives_leaf1():
    bvh = build_point_bvh([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]], 1.0, leaf_size=1)
    assert bvh.num_nodes == 3
    root = lo_hi(bvh.bounds[0])
    assert root[:3].tolist() == [-1, -1, -1]
    assert root[3:].tolist() == [11, 1, 1]
    left, right = children(bvh, 0)
    assert leaf_ids(bvh, left) == [0]
    assert leaf_ids(bvh, right) == [1]
    assert bvh.max_depth() == 2


def test_structure_1000_random():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-5, 5, size=(1000, 3))
    bvh = build_point_bvh(pts, 0.25, leaf_size=4)
    seen = []
    leaves = 0
    depth = {0: 1}  # walk_boxes is pre-order, so a parent precedes its children
    for idx, box, kids in walk_boxes(bvh):
        if kids is None:
            ids = leaf_ids(bvh, idx)
            assert 1 <= len(ids) <= 4
            seen.extend(ids)
            leaves += 1
        else:
            depth[kids[0]] = depth[kids[1]] = depth[idx] + 1
            lb, rb = lo_hi(bvh.bounds[kids[0]]), lo_hi(bvh.bounds[kids[1]])
            # parent box is exactly the union of its children
            assert box[:3] == np.minimum(lb[:3], rb[:3]).tolist()
            assert box[3:] == np.maximum(lb[3:], rb[3:]).tolist()
    assert sorted(seen) == list(range(1000))
    assert bvh.num_nodes == 2 * leaves - 1
    assert bvh.max_depth() == max(depth.values())


def signed_zeros(rng, n):
    """-0.0 and 0.0, which compare equal, mixed with -1, -0.5, 0.5 and 1 on every axis."""
    return np.where(rng.random((n, 3)) < 0.5, -1.0, 1.0) * rng.integers(0, 3, size=(n, 3)) * 0.5


def reference_tree(pts, half_width, leaf_size):
    """The documented split rule by plain recursion.

    Split on the longest centroid extent (ties x, then y, then z); the left
    child takes the first m // 2 primitives in (coordinate, id) order; a leaf
    holds at most leaf_size primitives, in (x, id) order.  Returns the
    depth-first list of (node box as a (lo, hi) list, leaf ids or None), the
    leaf storage order and the depth.
    """
    nodes, order = [], []

    def build(ids):
        box = (pts[ids] - half_width).min(axis=0).tolist() + (pts[ids] + half_width).max(axis=0).tolist()
        if len(ids) <= leaf_size:
            leaf = sorted(ids, key=lambda i: (pts[i, 0], i))
            nodes.append((box, leaf))
            order.extend(leaf)
            return 1
        nodes.append((box, None))
        extent = (pts[ids].max(axis=0) - pts[ids].min(axis=0)).tolist()
        axis = extent.index(max(extent))
        ids = sorted(ids, key=lambda i: (pts[i, axis], i))
        mid = len(ids) // 2
        return 1 + max(build(ids[:mid]), build(ids[mid:]))

    depth = build(list(range(len(pts))))
    return nodes, order, depth


@pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "signed zeros", "identical", "collinear"])
@pytest.mark.parametrize("leaf_size", [1, 2, 3, 4, 8])
def test_build_matches_reference_split_rule(kind, leaf_size):
    rng = np.random.default_rng(leaf_size)
    for n in (1, leaf_size, leaf_size + 1, 97, 300):
        if kind == "random":
            pts = rng.random((n, 3))
        elif kind == "lattice":
            pts = rng.integers(0, 4, size=(n, 3)) * 0.25  # ties on every axis
        elif kind == "signed zeros":
            pts = signed_zeros(rng, n)
        elif kind == "identical":  # every key ties on every axis: the id alone orders the points
            pts = np.tile(rng.random(3), (n, 1))
        elif kind == "collinear":  # x and y constant: every split is on z, every leaf in id order
            pts = np.column_stack([np.full(n, 0.5), np.full(n, -0.25), rng.random(n)])
        else:
            pts = rng.permutation(np.repeat(rng.random((n // 5 + 1, 3)), 5, axis=0))[:n]
        bvh = build_point_bvh(pts, 0.1, leaf_size)
        nodes, order, depth = reference_tree(pts, 0.1, leaf_size)
        got = [(box, None if kids else leaf_ids(bvh, idx)) for idx, box, kids in walk_boxes(bvh)]
        assert got == nodes
        assert bvh.perm.tolist() == order
        assert bvh.num_nodes == len(nodes)
        assert bvh.max_depth() == depth


def order_violations(bvh, pts):
    """Slots that break the split rule's (coordinate, id) order, checked for all nodes at once.

    A leaf stores its ids in (x, id) order, and an internal node's left
    child holds the first m // 2 of its m primitives in (coordinate on
    split_axis, id) order.  np.lexsort, a stable sort on each key, gives
    the reference order of every (node, slot) pair.
    """
    counts = bvh.counts
    node = np.repeat(np.arange(bvh.num_nodes), counts)
    slot = np.arange(len(node)) + np.repeat(bvh.starts - (np.cumsum(counts) - counts), counts)
    ids = bvh.perm[slot]
    internal = bvh.left[node] >= 0
    coord = pts[ids, np.where(internal, bvh.split_axis[node], 0)]
    order = np.lexsort((ids, coord, node))
    place = np.empty_like(order)
    place[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    # a leaf's slots follow the reference order; an internal node's left half holds its first half
    wrong_leaf = ~internal & (place != slot - bvh.starts[node])
    half = counts[node] // 2
    wrong_split = internal & ((place < half) != (slot - bvh.starts[node] < half))
    return int(np.count_nonzero(wrong_leaf | wrong_split))


@pytest.mark.parametrize("kind", ["float32", "clipped clusters", "lattice", "signed zeros", "identical", "collinear"])
@pytest.mark.parametrize("leaf_size", [1, 8])
def test_build_keeps_coordinate_id_order_on_large_scenes(kind, leaf_size):
    # 20,000 points: numpy sorts arrays this large on its vectorized path
    rng = np.random.default_rng(leaf_size + 90)
    n = 20_000
    if kind == "float32":
        pts = rng.random((n, 3)).astype(np.float32).astype(np.float64)
    elif kind == "clipped clusters":  # many exact 0.0 and 1.0
        pts = np.clip(rng.normal(rng.random((16, 3)), 0.3, size=(n // 16, 16, 3)).reshape(n, 3), 0.0, 1.0)
    elif kind == "lattice":
        pts = rng.integers(0, 9, size=(n, 3)) * 0.125
    elif kind == "identical":  # every axis is one run of n ties
        pts = np.tile(rng.random(3), (n, 1))
    elif kind == "collinear":  # x and y constant
        pts = np.column_stack([np.full(n, 0.5), np.full(n, -0.25), rng.random(n)])
    else:
        pts = signed_zeros(rng, n)
    bvh = build_point_bvh(pts, 0.01, leaf_size)
    internal = np.flatnonzero(bvh.left >= 0)
    assert (bvh.starts[bvh.left[internal]] == bvh.starts[internal]).all()
    assert (bvh.counts[bvh.left[internal]] == bvh.counts[internal] // 2).all()
    assert order_violations(bvh, pts) == 0
    # On a tied axis the extent read at the rank ends is exactly 0: with every axis tied the
    # split falls on x, and with x and y tied on z.
    if kind == "identical":
        assert (bvh.split_axis[internal] == 0).all()
    elif kind == "collinear":
        assert (bvh.split_axis[internal] == 2).all()


def test_axis_ranks_refuse_keys_past_int64():
    class Huge:  # the smallest point count with n * n > 2**63; refused before any allocation
        def __len__(self):
            return 3_037_000_500

    with pytest.raises(OverflowError):
        bvh_module._axis_ranks(Huge())


# sha256 of every table of the scenes of test_build_tables_match_recorded_digests, with
# bounds and boxes hashed as (lo, hi) rows: the (lo, -hi) layout holds the same boxes bit
# for bit.  The two 20,000-point scenes were recorded from the stable-sort build, and the
# 200,000-point sphere, ingest-cosine-200k's scale, from the argsort build before the
# build sorted values.  A change to the build that moves any table fails here.
RECORDED_TABLE_DIGESTS = {
    "uniform float32": {
        "bounds": "8e637b59df3a3637845ec08f5ea1477a906de65f35d218e2a0c03313a124f3a0",
        "left": "1a7f2f1fb4b0564bc6845f9b80c68ab62c8859a324a3a648f4856476220cf226",
        "starts": "46837656079ccc58212220c61c9857ab70a9d03b464f103bc8f6b5d580112bb9",
        "counts": "535d7452bd38cd7e981f33875bb5dacbeb60112a741093c163d35fc61823ed3f",
        "perm": "dc6d321176fb30e9e0703b0556f075f3146cdd2be7460c1e8dd541bcb6d89d3d",
        "boxes": "a5a5daebf2e16879932fa9412a274d1a018f2848e19db82440c89a94ff9e62c6",
        "split_axis": "ddd08b4fbdaaf99794dfdd5b747a2e8c8ff48a2147cc617602297822ef2a10c0",
        "split_plane": "706bd0ac2557cd68c5ad2ae33a8269a724f048087793909d388afeacd8bda3b2",
    },
    "signed lattice": {
        "bounds": "d859b320184394a8c626431324b9019d8b1d980ce4307ecdfccb0e0bb74da441",
        "left": "1a7f2f1fb4b0564bc6845f9b80c68ab62c8859a324a3a648f4856476220cf226",
        "starts": "46837656079ccc58212220c61c9857ab70a9d03b464f103bc8f6b5d580112bb9",
        "counts": "535d7452bd38cd7e981f33875bb5dacbeb60112a741093c163d35fc61823ed3f",
        "perm": "b3636be08af4bd4294ef9aa15f2065cbdb83f90eee708702a711126fd0747013",
        "boxes": "0a3d642c3c3988e55db0c2223cab5f6cf1cc87daca76badc83771d664d26487c",
        "split_axis": "6b727f576798f1e32b0dbccfd99df7d0ba79af408aae5041f87de0536e6c267c",
        "split_plane": "751c2aa5d1602d1e7349b1d9b096e6747a9d3373568fa6f55039617acc85108b",
    },
    "normalised normal 200k": {
        "bounds": "9957168919c8629bc9455726cf454e4dc4e2b2a212501812579104b9a808fd95",
        "left": "cf84bd83dbb60bc4248893f40f86eaedb2c319968c8383700e4ddccdbcbb4cac",
        "starts": "c73a0359a485be1ad4b933dc48b3e9c3428ef6c4f08b6cefbc3e06c32f844e7b",
        "counts": "cc4aab3536e276c4f2b1c2f280f9d7d183b7f72a6f4365223d4ab94ea5d1ce00",
        "perm": "83994fb4618af403dcf31dc2712c848a54fe59295d54d46e115737484b7d8f79",
        "boxes": "d90d8ace5b2ad937b00b4b6329063dd2e0471b028629df824fbc2ceb7683c065",
        "split_axis": "fbd49bf4795fac451b6d089d7546404649e05452d6d12bdcf1c2eff0917b5877",
        "split_plane": "dc33c27a1d99eea45f79657f131e6817e174eb5e27869874faa74c2e710e64bd",
    },
}


@pytest.mark.parametrize("kind", sorted(RECORDED_TABLE_DIGESTS))
def test_build_tables_match_recorded_digests(kind):
    rng = np.random.default_rng(2024)
    if kind == "uniform float32":
        pts, half_width = rng.random((20_000, 3)).astype(np.float32).astype(np.float64), 0.01
    elif kind == "normalised normal 200k":  # float32 records widened and normalised, as ingest-cosine-200k's are
        records = rng.standard_normal((200_000, 4)).astype("<f4")[:, :3].astype(np.float64)
        pts, half_width = transform_points(transform_chain_for(MetricSpec.cosine()), records), 0.01
    else:  # 1/8 lattice steps with -0.0 and 0.0 on every axis
        pts = np.where(rng.random((20_000, 3)) < 0.5, -1.0, 1.0) * rng.integers(0, 9, size=(20_000, 3)) * 0.125
        half_width = 0.05
    bvh = build_point_bvh(pts, half_width)
    if kind == "normalised normal 200k":
        # A level's keys node * n + rank, below nodes * n, and its lookups, below 3n, are int32
        # while both fit, and int64 past that: the digests pin levels of both widths.
        sizes, level = [], np.zeros(1, dtype=np.int64)
        while len(level):
            sizes.append(len(level))
            first = bvh.left[level][bvh.left[level] >= 0]
            level = np.column_stack([first, first + 1]).ravel()
        assert len(sizes) == bvh.max_depth()
        assert {max(size, 3) * len(pts) <= 2**31 for size in sizes} == {True, False}
    tables = {name: getattr(bvh, name) for name in RECORDED_TABLE_DIGESTS[kind]}
    tables["bounds"], tables["boxes"] = lo_hi(bvh.bounds), lo_hi(bvh.boxes)
    got = {name: hashlib.sha256(table.tobytes()).hexdigest() for name, table in tables.items()}
    assert got == RECORDED_TABLE_DIGESTS[kind]


def traced_build_peaks(monkeypatch, build):
    """The traced peaks of `build()`, in bytes: up to the axis ranks, over the level loop, then to the end.

    `_axis_ranks` and `_split_levels` are wrapped to read the peak and reset
    it when they return, so each phase is measured alone.
    """
    peaks = []

    def phase_end(step):
        def wrapped(*args):
            out = step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return out
        return wrapped

    monkeypatch.setattr(bvh_module, "_axis_ranks", phase_end(bvh_module._axis_ranks))
    monkeypatch.setattr(bvh_module, "_split_levels", phase_end(bvh_module._split_levels))
    tracemalloc.start()
    try:
        bvh = build()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return bvh, peaks


def test_build_peak_memory_is_pinned(monkeypatch):
    # The build's traced peak, its tables included, guards peak_rss_mb on ingest-cosine-200k.
    # The argsort build peaked at 6,872,515 bytes here, 137.4503 bytes a point, the value-sort
    # build at about 106.3 and the rank-gather build at about 102.4, when the boxes are made.
    # With the level loop in its own function, whose scratch is freed on return, the peak is
    # about 98.4.  The level loop alone peaks at about 78.4 a point; each bound is its figure
    # plus about 5%, so that neither the boxes nor the level scratch can grow unnoticed.
    n = 50_000
    pts = np.random.default_rng(0).random((n, 3))
    bvh, (ranks, levels, boxes) = traced_build_peaks(monkeypatch, lambda: build_point_bvh(pts, 0.01))
    assert bvh.num_primitives == n
    assert max(ranks, levels, boxes) / n <= 103.3
    assert levels / n <= 82.3


def test_face_frame_build_holds_one_more_row_array(monkeypatch):
    # build_index under lp:1 builds over the face map of the points: one
    # (n, 3) float64 array, 24 bytes a point, held through the build, and
    # nothing else above the identity frame's build under lp:2, phase by
    # phase, but the array object and allocator noise, under 1 KiB
    n = 50_000
    pts = np.random.default_rng(0).random((n, 3))
    peaks = {}
    for metric in (MetricSpec.lp(2), MetricSpec.lp(1)):
        cfg = ReductionConfig(metric, 0.01, 10)
        bvh, peaks[metric] = traced_build_peaks(monkeypatch, lambda: build_index(pts, cfg))
        assert bvh.frame is frame_for(metric)
    assert frame_for(MetricSpec.lp(2)) is IDENTITY is not frame_for(MetricSpec.lp(1))
    for plain, framed in zip(peaks[MetricSpec.lp(2)], peaks[MetricSpec.lp(1)]):
        assert 0 < framed - plain <= 24 * n + 1024


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_point_bvh(np.empty((0, 3)), 1.0, 4)
    with pytest.raises(ValueError):
        build_point_bvh([[0, 0, 0]], 1.0, 0)
    with pytest.raises(ValueError):
        build_point_bvh([[0, 0, 0]], -1.0, 4)  # a box needs a half width >= 0
    a = build_point_bvh([[0, 0, 0]], 1.0)
    tables = (a.bounds, a.left, a.starts, a.counts, a.perm, a.boxes, a.split_axis, a.split_plane)
    makers = (lambda h: build_point_bvh([[0, 0, 0]], h), lambda h: containment_scan([[0, 0, 0]], h, [0, 0, 0]),
              lambda h: Bvh(*tables, h, a.leaf_size, a.max_depth()))
    for bad, message in ((True, "a real number, got True"), (np.True_, "a real number, got"),
                         ("0.5", "a real number, got '0.5'"), (-1.0, "finite and >= 0, got -1.0"),
                         (np.inf, "finite and >= 0, got inf")):
        for make in makers:
            with pytest.raises(ValueError, match=f"half_width must be {message}"):
                make(bad)
    # the index's leaf size and depth are counts, as build_point_bvh's leaf size is
    assert Bvh(*tables, 1.0, np.int32(8), np.int64(1)).max_depth() == 1
    for leaf_size, depth, message in ((True, 1, "leaf_size must be an integer, got True"),
                                      ("4", 1, "leaf_size must be an integer, got '4'"),
                                      (0, 1, "leaf_size must be >= 1, got 0"),
                                      (8, 2.5, "depth must be an integer, got 2.5"),
                                      (8, np.True_, "depth must be an integer, got"),
                                      (8, 0, "depth must be >= 1, got 0")):
        with pytest.raises(ValueError, match=message):
            Bvh(*tables, 1.0, leaf_size, depth)


def test_tree_stats_of_a_fixed_scene():
    # the figures as the (lo, hi) layout gave them; the (lo, -hi) layout must keep every bit
    bvh = build_point_bvh(np.random.default_rng(31).random((2000, 3)), 0.05, 8)
    assert bvh.tree_stats() == {"num_leaves": 256, "leaf_fill_mean": 0.9765625,
                                "surface_area_sum": 289.19694721137375, "overlap_volume_sum": 2.2989634015487628}


@pytest.mark.parametrize("leaf_size", [1, 2, 8])
def test_build_over_a_span_past_the_largest_double(leaf_size):
    # x spans 2e308: the extent reads inf with no overflow, so the root splits on x
    rng = np.random.default_rng(leaf_size)
    pts = np.concatenate([rng.random((30, 3)), [[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]])
    origins = np.concatenate([pts, rng.random((20, 3)), [[1e308, 0.05, 0.0], [-1.7e308, 0.0, 0.0]]])
    with np.errstate(all="raise"):
        bvh = build_point_bvh(pts, 0.1, leaf_size)
        assert bvh.split_axis[0] == 0
        assert bvh.tree_stats()["surface_area_sum"] == np.inf
        rows, ids, _, _ = all_hits(bvh, origins)
        for j, qrow in enumerate(origins):
            assert sorted(ids[rows == j].tolist()) == containment_scan(pts, 0.1, qrow)


def six_comparisons(pts, half_width, q, inset):
    """Ids whose box (c - h, c + h) holds q inset by `inset`, by six plain Python comparisons a box."""
    a, b = [v - inset for v in q], [v + inset for v in q]
    return [i for i, c in enumerate(pts.tolist())
            if all(ci - half_width <= ai and bi <= ci + half_width for ci, ai, bi in zip(c, a, b))]


def edge_scene(kind, rng):
    """Points, half widths and insets whose box faces and query spans meet exactly, and the scene's scale.

    The last inset is below 0: it widens every box.
    """
    if kind == "signed zeros":  # faces at -0.0 and 0.0 from h = 0.0, h = -0.0 and 0.25 - 0.25
        return signed_zeros(rng, 300) * 0.5, (0.0, -0.0, 0.25), (0.0, 0.125, -0.125), 0.5
    if kind == "near 1e300":
        return rng.integers(-4, 5, size=(300, 3)) * 0.25e300, (0.25e300,), (0.0, 0.125e300, -0.125e300), 0.5e300
    tiny = 5e-324  # subnormal: every multiple below is exact
    return rng.integers(-8, 9, size=(300, 3)) * (4 * tiny), (8 * tiny,), (0.0, tiny, -tiny), 16 * tiny


@pytest.mark.parametrize("kind", ["signed zeros", "near 1e300", "subnormal"])
def test_one_comparison_rule_on_exact_faces(kind):
    # Each box row is tested as (lo, -hi) <= (q - inset, -(q + inset)) in one comparison;
    # it must admit exactly what six comparisons of lo and hi admit, faces included.
    rng = np.random.default_rng(len(kind))
    pts, half_widths, insets, scale = edge_scene(kind, rng)
    seen = set()  # the probe rule's outcomes
    for h in half_widths:
        faces = np.concatenate([pts.ravel() - h, pts.ravel() + h, pts.ravel(), [0.0, -0.0]])
        wide = h - insets[-1]  # the widened half width: these queries sit on widened faces
        queries = np.vstack([rng.choice(faces, size=(80, 3)), pts[:20] + h, pts[20:40] - h,
                             pts[40:50] + wide, pts[50:60] - wide, [[4 * scale] * 3]])
        bvh = build_point_bvh(pts, h, 4)
        for inset in insets:
            want = [six_comparisons(pts, h, q, inset) for q in queries.tolist()]
            assert (any(want) or inset > h) and not all(want)  # an inset past h leaves every box empty
            if inset < 0:  # a widened face meets a query exactly
                assert np.isin(queries - inset, pts - h).any() and np.isin(queries + inset, pts + h).any()
            runs = list(traverse_points(bvh, queries, np.full(len(queries), inset)))
            rows, ids = (np.concatenate(parts) for parts in zip(*(run[2:4] for run in runs)))
            plain_rows, plain_ids = all_hits(bvh, queries)[:2]  # no insets given
            for j, q in enumerate(queries.tolist()):
                assert sorted(bvh_module.point_hits(bvh, tuple(q), inset)[0].tolist()) == want[j]
                assert sorted(ids[rows == j].tolist()) == want[j]
                if inset == 0:
                    assert containment_scan(pts, h, q) == want[j]
                    assert sorted(plain_ids[plain_rows == j].tolist()) == want[j]
        # the probe gate, by six plain comparisons a box and an exact density product (probe_rule),
        # with the cube's side 2r at the scene's scale: (2r)**3 overflows near 1e300 and underflows
        # at subnormal scales, so the probes compare per-axis ratios and raise no floating-point error
        for min_count, r, crowd in ((2, scale / 4, 10.0), (2, scale / 2, 10.0),
                                    (8, scale / 2, 10.0), (8, scale / 4, 30.0)):
            gated = []
            with np.errstate(all="raise"):
                for j, q in enumerate(queries.tolist()):
                    rule = probe_rule(bvh, q, r + bvh.half_width, min_count, 2 * r, crowd)
                    seen.add(rule)
                    if rule in ("gate", "dense"):
                        gated.append(j)
                    probed = bvh_module.probe_window(bvh, tuple(q), r, min_count, crowd)
                    assert (probed is not None) == (gated[-1:] == [j])
                rows = bvh_module.probe_windows(bvh, queries, r, min_count, crowd)[0]
                assert rows.tolist() == gated
    assert seen == {"out", "gate", "dense", "sparse"}


def test_traverse_trivial_scene():
    bvh = build_point_bvh([[0, 0, 0], [10, 10, 10]], 1.0, 4)
    assert collect_hits(bvh, (0.5, 0, 0)) == [0]
    assert collect_hits(bvh, (5, 5, 5)) == []
    assert nodes_tested(bvh, (100, 0, 0)) == 1  # root excludes, nothing else tested


def hit_scenes():
    """(points, half width, query row) scenes whose hits span several leaves of a leaf-size-4 tree."""
    return [(np.zeros((20, 3)), 1.0, (0.0, 0.0, 0.0)),  # all boxes contain the query
            (np.random.default_rng(3).random((400, 3)), 0.3, (0.5, 0.5, 0.5))]


def test_point_hits_deliver_every_hit_by_id():
    bvh = build_point_bvh([[1.5, 2.5, 3.5]], 1.0, 4)
    hits = collect_hits(bvh, (1.5, 2.5, 3.5))
    assert hits == [0] and type(hits[0]) is int
    assert containment_scan(*hit_scenes()[0]) == list(range(20))
    for pts, hw, q in hit_scenes():
        bvh = build_point_bvh(pts, hw, leaf_size=4)
        ids = collect_hits(bvh, q)
        hit_leaves = [node for node in range(bvh.num_nodes) if children(bvh, node) is None
                      and set(leaf_ids(bvh, node)) & set(ids)]
        assert len(hit_leaves) > 1
        assert sorted(ids) == containment_scan(pts, hw, q)


@pytest.mark.parametrize("leaf_size", [1, 3, 8])
def test_traverse_matches_linear_scan(leaf_size):
    rng = np.random.default_rng(leaf_size)
    pts = rng.random((3000, 3))
    bvh = build_point_bvh(pts, 0.04, leaf_size)
    for qrow in rng.random((40, 3)):
        hits = collect_hits(bvh, qrow)
        scan = containment_scan(pts, 0.04, qrow)
        assert sorted(hits) == sorted(scan)
        # hits arrive depth first, left child first: in leaf storage order
        assert hits == [i for i in bvh.perm.tolist() if i in scan]


def all_hits(bvh, origins):
    """traverse_points' runs joined: hit rows, hit ids, tested per query, and the runs."""
    runs = list(traverse_points(bvh, origins))
    if not runs:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0, int), []
    rows, ids, tested = (np.concatenate(parts) for parts in zip(*(run[2:] for run in runs)))
    return rows, ids, tested, [run[:2] for run in runs]


@pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "signed zeros"])
@pytest.mark.parametrize("leaf_size", [1, 3, 8, 16])
def test_traverse_points_matches_linear_scan(kind, leaf_size):
    rng = np.random.default_rng(leaf_size)
    if kind == "random":
        pts = rng.random((2000, 3))
    elif kind == "lattice":
        pts = rng.integers(0, 9, size=(2000, 3)) * 0.125  # query points land on box faces
    elif kind == "signed zeros":  # ±0.0625 ∓ 0.0625: faces at 0.0, stored as 0.0 and -0.0
        pts = signed_zeros(rng, 2000) * 0.125
    else:
        pts = rng.permutation(np.repeat(rng.random((300, 3)), 7, axis=0))
    origins = np.vstack([rng.random((40, 3)), rng.integers(0, 17, size=(20, 3)) * 0.0625,
                         [[5.0, 5.0, 5.0]]])
    bvh = build_point_bvh(pts, 0.0625, leaf_size)
    rows, ids, tested, runs = all_hits(bvh, origins)
    assert runs == [(0, len(origins))]  # far below the pair budget: one run
    assert len(rows) == len(ids) and len(tested) == len(origins)
    for j, qrow in enumerate(origins):
        assert sorted(ids[rows == j].tolist()) == containment_scan(pts, 0.0625, qrow)
        assert tested[j] == nodes_tested(bvh, qrow)
    assert tested[-1] == 1  # outside the root box: nothing else is tested


@pytest.mark.parametrize("budget", [1, 30, 100, 400])
@pytest.mark.parametrize("leaf_size", [1, 4, 8, 16])
def test_traverse_points_splits_runs_at_pair_budget(monkeypatch, budget, leaf_size):
    rng = np.random.default_rng(budget)
    # nodes of leaf_size + 1 primitives one level above the leaves: most
    # leaves lie one level below the rest, so a run can be halved after
    # the upper leaves gave it hits
    pts = rng.random((64 * (leaf_size + 1) - 8, 3))
    # far queries fail the root box: only the query count splits their runs
    origins = np.vstack([rng.random((37, 3)), np.full((450, 3), 5.0)])
    bvh = build_point_bvh(pts, 0.3, leaf_size)  # about a fifth of the boxes hold each query
    monkeypatch.setattr(bvh_module, "PAIR_BUDGET", budget)
    leaf_rows = []  # the query rows of every leaf test
    leaf_hits = bvh_module._leaf_hits
    monkeypatch.setattr(bvh_module, "_leaf_hits",
                        lambda bvh, rows, *rest: (leaf_rows.append(rows), leaf_hits(bvh, rows, *rest))[1])
    rows, ids, tested, runs = all_hits(bvh, origins)
    # runs are consecutive, in order, and cover every query
    assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
    assert runs[-1][1] == len(origins) and len(runs) > 1
    for lo, hi in runs:
        if hi - lo > 1:  # only a single query may pass the budget
            assert hi - lo <= budget
            assert np.count_nonzero((lo <= rows) & (rows < hi)) <= budget
    # A leaf test over the queries of two runs: a run was halved after it
    # held hits.  Budgets 1 and 30 halve these runs down to one query
    # before they reach a leaf of several slots; a leaf of one slot is
    # counted as frontier a level earlier, so with leaf size 1 a run that
    # fits before its first leaves fits to the end.
    ends = [hi for _, hi in runs]
    halved_holding_hits = any(np.unique(np.searchsorted(ends, r, side="right")).size > 1 for r in leaf_rows)
    assert halved_holding_hits == (leaf_size > 1 and budget >= 100)
    for j, qrow in enumerate(origins):
        assert sorted(ids[rows == j].tolist()) == containment_scan(pts, 0.3, qrow)
        assert tested[j] == nodes_tested(bvh, qrow)


def test_traverse_points_counts_held_hits_against_the_budget(monkeypatch):
    # half the nodes one level above the leaves are leaves: their hits are
    # held while the level below brings its slots, and the two together pass
    # the budget though neither does alone
    rng = np.random.default_rng(180)
    pts = rng.random((544, 3))
    origins = rng.random((37, 3))
    bvh = build_point_bvh(pts, 0.3, 8)
    monkeypatch.setattr(bvh_module, "PAIR_BUDGET", 180)
    rows, ids, tested, runs = all_hits(bvh, origins)
    for lo, hi in runs:
        if hi - lo > 1:
            assert np.count_nonzero((lo <= rows) & (rows < hi)) <= 180
    for j, qrow in enumerate(origins):
        assert sorted(ids[rows == j].tolist()) == containment_scan(pts, 0.3, qrow)
        assert tested[j] == nodes_tested(bvh, qrow)


# Slot-test block sizes, None for the default: blocks of 1 and 7 split every
# multi-slot call, and 64 splits the wavefront's calls but few single queries'.
@pytest.mark.parametrize("leaf_size, block", [pytest.param(s, b, id=str(s) if b is None else f"{s}-block{b}")
                                              for s in (1, 8) for b in (None, 1, 7, 64)])
def test_traverse_points_insets_match_point_hits(monkeypatch, leaf_size, block):
    rng = np.random.default_rng(leaf_size + 90)
    pts = rng.random((500, 3))
    origins = np.vstack([rng.random((50, 3)), rng.integers(0, 9, size=(20, 3)) * 0.125, [[5.0, 5.0, 5.0]]])
    bvh = build_point_bvh(pts, 0.2, leaf_size)
    mixed = np.where(rng.random(len(origins)) < 0.5, 0.0, rng.random(len(origins)) * 0.2)
    assert (mixed == 0).any() and (mixed > 0).any()
    widened = (rng.random(len(origins)) - 1.0) * 0.05  # in [-0.05, 0): every box grows
    monkeypatch.setattr(bvh_module, "PAIR_BUDGET", 300)
    if block is not None:
        monkeypatch.setattr(bvh_module, "_SLOT_BLOCK", block)
    shrank = grew = 0
    for insets in (mixed, widened, np.zeros(len(origins)), None):
        runs = list(traverse_points(bvh, origins, insets))
        assert len(runs) > 1  # the budget splits the call into several runs
        rows, ids, tested = (np.concatenate(parts) for parts in zip(*(run[2:] for run in runs)))
        for j, q in enumerate(origins):
            inset = 0.0 if insets is None else float(insets[j])
            want, count = bvh_module.point_hits(bvh, tuple(q.tolist()), inset)
            # the build's box faces, pts -+ 0.2, tested as the walks test them
            scan = ((pts - 0.2 <= q - inset) & (q + inset <= pts + 0.2)).all(axis=1)
            assert sorted(want.tolist()) == np.flatnonzero(scan).tolist()
            assert set(ids[rows == j].tolist()) == set(want.tolist())
            assert np.count_nonzero(rows == j) == len(want)
            assert tested[j] == count
            plain = len(bvh_module.point_hits(bvh, tuple(q.tolist()))[0])
            shrank += len(want) < plain
            grew += len(want) > plain
    assert shrank  # some inset box drops a hit of the plain box
    assert grew  # and some widened box adds one


def test_traverse_points_no_queries():
    bvh = build_point_bvh([[0, 0, 0], [1, 1, 1]], 0.5, 1)
    assert list(traverse_points(bvh, np.empty((0, 3)))) == []


def test_traverse_points_rejects_bad_rows_and_insets():
    # a bad row or inset is refused by its index, not walked to a wrong
    # answer: a NaN row fails every box, and an infinite inset empties or fills them all
    pts = np.random.default_rng(8).random((100, 3))
    bvh = build_point_bvh(pts, 0.1, 4)
    queries = np.array([[0.5, 0.5, 0.5], [np.nan, 0.5, 0.5]])
    with pytest.raises(ValueError, match="query index 1 has non-finite coordinates"):
        list(traverse_points(bvh, queries))
    for bad in (np.zeros((2, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match=r"expected an \(n, 3\) array of query points"):
            list(traverse_points(bvh, bad))
    for inset in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"inset index 1 must be finite, got {inset}"):
            list(traverse_points(bvh, queries[:1].repeat(2, axis=0), [0.0, inset]))
    # any finite inset is walked: -0.5 widens every box, as point_hits widens it
    [(_, _, rows, ids, _)] = traverse_points(bvh, queries[:1].repeat(2, axis=0), [0.0, -0.5])
    assert sorted(ids[rows == 1].tolist()) == sorted(bvh_module.point_hits(bvh, (0.5, 0.5, 0.5), -0.5)[0].tolist())
    assert np.count_nonzero(rows == 1) > np.count_nonzero(rows == 0)
    assert [len(ids) for *_, ids, _ in traverse_points(bvh, queries[:1], [0.0])] == [
        len(containment_scan(pts, 0.1, queries[0]))]


def test_traverse_points_needs_one_inset_per_query():
    pts = np.random.default_rng(8).random((100, 3))
    bvh = build_point_bvh(pts, 0.1, 4)
    for insets in ([0.0, 0.0, 0.0], [0.0], np.zeros((1, 3))):
        with pytest.raises(ValueError, match=f"insets must hold one value per query: expected length 2, "
                                             f"got {np.size(insets)}"):
            list(traverse_points(bvh, np.full((2, 3), 0.5), insets))


def test_traverse_point_delivers_every_hit():
    # The any-hit interface the benchmark harness drives, the one test of it:
    # traverse_point hands over point_hits' ids in order, and adds its node count.
    from bvhknn import Point3, PointQuery, TraversalCounters, traverse_point

    for pts, hw, q in hit_scenes():
        bvh = build_point_bvh(pts, hw, leaf_size=4)
        ids, tested = bvh_module.point_hits(bvh, q)
        counters = TraversalCounters()
        for returned in (None, True, "stop"):  # what the callback returns is ignored
            seen = []
            assert traverse_point(bvh, PointQuery(Point3(*q)), lambda h: seen.append(h) or returned,
                                  counters) == len(ids)
            assert seen == ids.tolist() and all(type(h) is int for h in seen)
        assert counters.nodes_tested == 3 * tested  # the counters add up over calls


def test_bvh_holds_only_read_only_tables():
    bvh = build_point_bvh(np.random.default_rng(4).random((300, 3)), 0.1, 4)
    assert not [name for name, value in vars(bvh).items() if isinstance(value, list)]
    for table in (bvh.bounds, bvh.left, bvh.starts, bvh.counts, bvh.perm, bvh.boxes):
        assert isinstance(table, np.ndarray) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


def test_tables_given_in_final_form_stay_the_callers():
    # C-ordered float64/int64 tables need no copy; the index freezes a view of
    # each, and the caller's own arrays stay writeable
    a = build_point_bvh(np.random.default_rng(5).random((200, 3)), 0.1, 4)
    given = [t.copy() for t in (a.bounds, a.left, a.starts, a.counts, a.perm, a.boxes)]
    b = Bvh(*given, a.split_axis, a.split_plane, a.half_width, a.leaf_size, a.max_depth())
    for mine, table in zip(given, (b.bounds, b.left, b.starts, b.counts, b.perm, b.boxes)):
        assert mine.flags.writeable and not table.flags.writeable
        assert np.shares_memory(table, mine)
    assert same_tree(b, a)


def test_tables_of_other_dtypes_and_layouts():
    rng = np.random.default_rng(6)
    pts = rng.integers(0, 33, size=(600, 3)) / 8.0  # every box edge is exact in float32
    a = build_point_bvh(pts, 0.25, 4)
    b = Bvh(np.asfortranarray(a.bounds, dtype=np.float32), a.left.astype(np.int32),
            a.starts.repeat(2)[::2], a.counts.astype(np.int32), a.perm.astype(np.int32),
            np.asfortranarray(a.boxes), a.split_axis, a.split_plane, np.float32(0.25), a.leaf_size,
            a.max_depth())  # starts: a strided view
    assert b.bounds.dtype == b.boxes.dtype == np.float64 and b.perm.dtype == np.int64
    assert type(b.half_width) is float and b.half_width == a.half_width == 0.25
    assert same_tree(b, a)
    for qrow in np.vstack([rng.random((30, 3)) * 4, rng.integers(0, 65, size=(20, 3)) / 16.0]):
        (ha, ca), (hb, cb) = (bvh_module.point_hits(bvh, tuple(qrow)) for bvh in (a, b))
        assert ha.tolist() == hb.tolist() and ca == cb


def test_deterministic_build_and_hit_order():
    rng = np.random.default_rng(9)
    pts = rng.random((500, 3))
    a = build_point_bvh(pts, 0.3, 4)
    b = build_point_bvh(pts, 0.3, 4)
    assert same_tree(a, b)
    assert a.perm.tolist() == b.perm.tolist()
    q = (0.5, 0.5, 0.5)
    assert bvh_module.point_hits(a, q)[0].tolist() == bvh_module.point_hits(b, q)[0].tolist()


def test_pruning_never_skips_containing_node():
    rng = np.random.default_rng(11)
    pts = rng.random((800, 3))
    bvh = build_point_bvh(pts, 0.05, 4)
    for x, y, z in rng.random((10, 3)):
        containing = [
            idx
            for idx, box, _ in walk_boxes(bvh)
            if box[0] <= x <= box[3] and box[1] <= y <= box[4] and box[2] <= z <= box[5]
        ]
        # every containing node is tested, so visits >= containing count
        assert nodes_tested(bvh, (x, y, z)) >= len(containing)


def test_two_cluster_pruning():
    rng = np.random.default_rng(5)
    width = 0.5  # half width; clusters sit 100 box-widths apart
    a = rng.random((512, 3)) * 5.0
    b = rng.random((512, 3)) * 5.0 + 100.0
    pts = np.vstack([a, b])
    bvh = build_point_bvh(pts, width, leaf_size=1)
    visits = nodes_tested(bvh, (2.5, 2.5, 2.5))
    assert visits < 2 * 512
    assert nodes_tested(bvh, (300, 300, 300)) == 1  # outside the union box


def split_path(bvh, q):
    """Nodes from the root to a leaf, each step to the split plane's side of q (left on the plane)."""
    path = [0]
    while bvh.left[path[-1]] >= 0:
        node = path[-1]
        path.append(int(bvh.left[node]) + int(q[bvh.split_axis[node]] > bvh.split_plane[node]))
    return path


def probe_rule(bvh, q, reach, min_count, side, crowd):
    """Which way the probe's gate rule decides for the query row `q`, stated plainly.

    The gate is the last node on q's split path that holds `min_count`
    points, and its child on the way the next node (a leaf gate stands for
    its own child).  "none": no node holds min_count points; "out": the
    child's box overhangs q ± reach; "gate": the gate's box lies inside it
    too; then "dense" or "sparse": whether count * side**3 >= crowd *
    volume, the volume of the gate's point box (its box shrunk by the half
    width, each extent rounded as the index rounds it, below 0 read as 0),
    compared exactly.  q is probed on "gate" and "dense".
    """
    path = split_path(bvh, q)
    big = [node for node in path if bvh.counts[node] >= min_count]
    assert big == path[:len(big)]  # counts fall along the path: the gate is the last big node
    if not big:
        return "none"
    gate = big[-1]
    child = path[len(big)] if len(big) < len(path) else gate

    def inside(node):
        box = lo_hi(bvh.bounds[node]).tolist()
        return all(qa - reach <= a and b <= qa + reach for qa, a, b in zip(q, box[:3], box[3:]))

    if not inside(child):
        return "out"
    if inside(gate):
        return "gate"
    box = lo_hi(bvh.bounds[gate]).tolist()
    volume = math.prod(Fraction(max(b - a - 2 * bvh.half_width, 0.0)) for a, b in zip(box[:3], box[3:]))
    return "dense" if int(bvh.counts[gate]) * Fraction(side) ** 3 >= Fraction(crowd) * volume else "sparse"


@pytest.mark.parametrize("kind", ["random", "lattice", "duplicates"])
@pytest.mark.parametrize("leaf_size", [1, 4, 8])
def test_probe_windows_follow_the_split_path(kind, leaf_size):
    rng = np.random.default_rng(leaf_size + 70)
    if kind == "random":
        pts = rng.random((700, 3))
    elif kind == "lattice":
        pts = rng.integers(0, 9, size=(700, 3)) * 0.125  # queries land on split planes
    else:
        pts = rng.permutation(np.repeat(rng.random((100, 3)), 7, axis=0))
    origins = np.vstack([rng.random((60, 3)), rng.integers(0, 17, size=(30, 3)) * 0.0625, pts[:20],
                         [[5.0, 5.0, 5.0]]])
    bvh = build_point_bvh(pts, 0.05, leaf_size)
    gated_rows, seen = [], set()
    # (min_count, r, crowd); the tree derives the reach r + 0.05, the window and the cube of side 2r
    for min_count, r, crowd in ((2, 0.15, 12.0), (8, 0.2, 40.0), (40, 0.35, 100.0), (701, 8.95, 1.0)):
        size = min(2 * min_count, len(pts))
        rows, ids = bvh_module.probe_windows(bvh, origins, r, min_count, crowd)
        gated_rows.append(len(rows))
        assert ids.shape == (len(rows), size)
        for j, q in enumerate(origins):
            one = bvh_module.probe_window(bvh, tuple(q.tolist()), r, min_count, crowd)
            rule = probe_rule(bvh, q, r + bvh.half_width, min_count, 2 * r, crowd)
            seen.add(rule)
            gated = rule in ("gate", "dense")
            assert (one is not None) == gated == (j in rows)
            if gated:
                gate = [node for node in split_path(bvh, q) if bvh.counts[node] >= min_count][-1]
                assert one.tolist() == ids[rows.tolist().index(j)].tolist()
                start, count = int(bvh.starts[gate]), int(bvh.counts[gate])
                first = bvh.perm.tolist().index(one[0])  # the window: size slots centred on the gate's
                assert first == min(max(start + count // 2 - size // 2, 0), len(pts) - size)
                assert one.tolist() == bvh.perm[first:first + size].tolist()
                if bvh.left[gate] >= 0:  # an internal gate lies whole in the window
                    assert first <= start and start + count <= first + size
    assert 0 < min(gated_rows[:3]) and max(gated_rows) < len(origins) and gated_rows[3] == 0
    assert seen == {"none", "out", "gate", "dense", "sparse"}
    # far outside: not probed, however low the density bar
    assert not bvh_module.probe_windows(bvh, origins[-1:], 0.15, 2, 0.0)[0].size
    assert bvh_module.probe_window(bvh, (5.0, 5.0, 5.0), 0.15, 2, 0.0) is None
    # min_count <= n < 2 * min_count: the root is every gate, and the window is every slot
    rows, ids = bvh_module.probe_windows(bvh, origins, 9.0, 400, 1.0)
    assert rows.tolist() == list(range(len(origins))) and ids.shape == (len(origins), len(pts))
    assert (ids == bvh.perm).all()
    assert bvh_module.probe_window(bvh, (5.0, 5.0, 5.0), 9.0, 400, 1.0).tolist() == bvh.perm.tolist()


@pytest.mark.parametrize("kind", ["random", "lattice", "duplicates"])
@pytest.mark.parametrize("leaf_size", [1, 8])
def test_split_tables_depend_on_the_points_alone(kind, leaf_size):
    rng = np.random.default_rng(leaf_size + 80)
    if kind == "random":
        pts = rng.random((2000, 3))
    elif kind == "lattice":
        pts = rng.integers(0, 9, size=(2000, 3)) * 0.125  # ties on every axis
    else:
        pts = rng.permutation(np.repeat(rng.random((300, 3)), 7, axis=0))
    trees = [build_point_bvh(pts, h, leaf_size) for h in (0.0, 0.05, 0.3)]
    for other in trees[1:]:
        assert other.split_axis.tobytes() == trees[0].split_axis.tobytes()
        assert other.split_plane.tobytes() == trees[0].split_plane.tobytes()
    bvh = trees[0]
    leaves = bvh.left < 0
    assert not bvh.split_axis[leaves].any() and not bvh.split_plane[leaves].any()

    def coords(node, axis):
        start = bvh.starts[node]
        return pts[bvh.perm[start:start + bvh.counts[node]], axis]

    # every plane separates its children's centroids on its axis
    for node in np.flatnonzero(~leaves):
        left, axis = bvh.left[node], bvh.split_axis[node]
        assert coords(left, axis).max() <= bvh.split_plane[node] <= coords(left + 1, axis).min()
