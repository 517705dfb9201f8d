"""Bounding volume hierarchy over per-point boxes, queried by containment.

This emulates the accelerator contract the search pipeline relies on: build
a binary tree of nested boxes over the scene primitives, one cube around
each data point (:func:`build_point_bvh`), then for a point query report
the id, the row index of its point, of every *leaf primitive* whose own box
contains the query point, as a ray-tracing any-hit program does.  The
cubes live in a frame (:class:`bvhknn.geometry.Frame`): the points
themselves, or a fixed linear map of them, which the tree records with its
half width in that frame; every table and walk below then reads rows in
the frame, and the tree never sees the map.

Construction is deterministic: median split on the axis with the longest
centroid extent (ties broken x, then y, then z), the left child taking the
first half in (coordinate, id) order, until a node holds at most
`leaf_size` primitives, which it stores in (x, id) order.  The split tables
record each split's axis and a plane midway between the centroids either
side, so they, like the topology, depend on the points alone.  The build
splits all nodes of one level at once with numpy, as hardware BVH builders
do, and numbers nodes in level order, so the right child of node i is
always `left[i] + 1`.  It gets the exact (coordinate, id) order from
numpy's default sorts, which are unstable but vectorized.  Each axis is
ranked once, by an argsort of its coordinates; a value sort of the
unique int64 keys run * n + id over the runs of equal coordinates puts
each run in id order.  The build keeps both the rank of every point and
its inverse, the ids in (coordinate, id) order, as int32 tables below
2**31 points.  Each level gathers the ranks of its slots once, and no
coordinate moves.  A node's extent on an axis is read at its lowest and
highest rank there, the first and last of its points in (coordinate, id)
order: it equals max - min up to the sign of a zero extent, which the
argmax that picks the axis ignores.  The same ranks give each slot's sort
key, its rank on its node's axis.  The level value-sorts the unique keys
node * n + rank of all its nodes at once: the sorted values keep each
node's slots, so subtracting node * n leaves the ranks, and the inverse
table, read at row * n + rank with row the split axis, turns them into
ids.  Sorting values costs about half as much as an argsort of the same
keys, and gives the same order since no two keys are equal.  The level
keys are int32 while nodes * n - 1 < 2**31 and the lookups
row * n + rank, at most 3n - 1, fit too; past that they are int64.  No
key or index overflows: run * n + id, node * n + rank and the key
start * n + j that puts the leaves in slot order stay below n * n, which
the build refuses past 2**63; the ids and ranks stay below n, and the
lookups below 3n.  Trees are immutable once built and traversal is
read-only, so any number of concurrent queries may share one.

There are two traversals over the same numpy tables, and both test the
slots of the leaves they reach with one array step.  :func:`point_hits`
is the walk of one query, depth first, testing two sibling boxes a step,
and it tests all its leaves' slots at the end.
:func:`traverse_points` is its wavefront form for many queries at once, as a
GPU hands the RT cores whole batches of rays: it tests a whole frontier of
(query, node) pairs per step, tests the slots of the leaves that step
reaches in the same step, and carries only the hits.  It hands them over a
run of queries at a time, each run held to PAIR_BUDGET pairs, so its memory
stays bounded.  Both test the same nodes and slots and report the same hits.
The slot test gathers the slots' boxes and the queries' spans, and a level
of a wavefront reaches tens of thousands of slots, so it gathers and tests
them in blocks of _SLOT_BLOCK rows, whose gathers fit in L2.

Both walks can also test every box inset by a per-query `inset`, any
finite number: a box passes when ``lo <= q - inset`` and
``q + inset <= hi``, so a tree built with half width h acts as one built
with h - inset, and an inset below 0 widens every box.  Every box is stored
as the row ``(x0, y0, z0, -x1, -y1, -z1)``, its upper faces negated, and a
query as the span ``(q - inset, -(q + inset))``: since ``b <= hi`` exactly
when ``-hi <= -b``, a box holds a span when each column of its row is <=
the span's, one comparison over contiguous rows (see :func:`_contains`).
Negation is exact, so this tests what the six comparisons of ``lo`` and
``hi`` test, and inset 0 is no special case.  The search pipeline
picks the inset with a probe: :func:`probe_window` and
:func:`probe_windows` descend from the root by the split planes to the
last node on the way that holds enough primitives, the gate, and return
the storage slots centred on it, spatial neighbours of the query, when
the gate's box lies near the query, or when the gate's child on the way
does and the gate's points are dense.  The caller names the search
radius r, the gate's count and the density bar; the tree derives the
reach, the window and the query's cube from r, its half width, its size
and its median split.  Inset 0 is the plain containment query.  The
module ends with the any-hit block the benchmark harness alone uses:
:func:`traverse_point` hands :func:`point_hits`' ids to a callback.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .geometry import IDENTITY, Frame, checked_count, checked_real, checked_rows

DEFAULT_LEAF_SIZE = 8

# Most (query, node), (query, slot) and (query, id) pairs that
# traverse_points holds at once for a run of several queries.  With the
# refine of its hits, a pair costs up to about 140 bytes (traced), so a run
# of batch_query stays within 16 MiB.  The slot test holds each slot's query
# row, slot number and mask, 17 bytes, beside the gathers of one block.
PAIR_BUDGET = 1 << 16

# Most leaf slots whose boxes and query spans _leaf_hits gathers and tests
# at once: 0.8 MB of gathers, a box row and a span row a slot, inside a 2 MiB L2.
# A level's slots tested whole, 3.8-5 MB of gathers on the benchmark's
# 1,000-query chunks, spilled it, and the test then took about 5 times as
# long per slot.
_SLOT_BLOCK = 8192

# One row of Bvh.bounds, and two adjacent rows: a left child's box and its right sibling's.
_BOX = struct.Struct("6d")
_SIBLING_BOXES = struct.Struct("12d")


class Bvh:
    """Immutable containment-query index; build with :func:`build_point_bvh`.

    Nodes live in flat level-order tables: `bounds[i]` is the box (x0, y0,
    z0, -x1, -y1, -z1), its upper faces negated, `left[i]` is the left
    child (-1 for a leaf; the right child is `left[i] + 1`), and a leaf
    holds storage slots `starts[i]` to `starts[i] + counts[i] - 1`.  Slot s
    stores primitive `perm[s]`, whose box is `boxes[s]`, in the same
    layout, which lets a walk test a box with one comparison of its row
    (see :func:`_contains`); the lower faces and the negated upper ones are
    all minima over a node's primitives.  The tables are read-only
    C-ordered numpy arrays, float64 for `bounds` and `boxes` and int64 for
    the rest, and both traversals read them.  A node's subtree holds slots `starts[i]` to
    `starts[i] + counts[i] - 1` for internal nodes too.

    `split_axis` and `split_plane`, an internal node's split axis and the
    midpoint of the two centroid coordinates either side of its split,
    steer the probe descent (both 0 for a leaf); the build records them.

    `half_width`, a float, is the half width of every primitive box, kept
    so that a query can inset the boxes to any smaller width.  `leaf_size`
    and the depth that :meth:`max_depth` returns are counts, checked as
    :func:`bvhknn.geometry.checked_count` checks them.  `frame`, a
    :class:`bvhknn.geometry.Frame`, is the basis the boxes, the split planes
    and `half_width` are in, the identity unless the build mapped the points:
    a walk reads query rows in that frame.
    """

    def __init__(self, bounds, left, starts, counts, perm, boxes, split_axis, split_plane, half_width, leaf_size, depth,
                 frame: Frame = IDENTITY):
        # C order, float64 ("d") boxes and planes and int64 ("q") indices: the formats the walks read.
        # ascontiguousarray returns such an array itself, so freeze a view, not the caller's array.
        tables = [np.ascontiguousarray(a, f).view()
                  for a, f in zip((bounds, left, starts, counts, perm, boxes, split_axis, split_plane), "dqqqqdqd")]
        self.bounds, self.left, self.starts, self.counts, self.perm, self.boxes, self.split_axis, self.split_plane = tables
        for table in tables:
            table.flags.writeable = False
        self.half_width = checked_real(half_width, "half_width", 0.0)
        self.leaf_size = checked_count(leaf_size, "leaf_size")
        self._depth = checked_count(depth, "depth")
        self.frame = frame

    @property
    def num_nodes(self) -> int:
        return len(self.left)

    @property
    def num_primitives(self) -> int:
        return len(self.perm)

    def max_depth(self) -> int:
        """Longest root-to-leaf path, counting the root as depth 1."""
        return self._depth

    def tree_stats(self) -> dict:
        """Tree-quality figures: leaf count, mean leaf fill, summed node area and overlap.

        `leaf_fill_mean` is the mean primitive count of a leaf over
        `leaf_size`.  `surface_area_sum` adds up the surface area of every
        node box, the cost the surface-area heuristic (SAH) weighs.
        `overlap_volume_sum` adds up, over every internal node, the volume
        where its two child boxes intersect (0 when they are disjoint or
        only touch): space a query must descend both children to cover.
        """
        leaves = self.left < 0
        lo, hi = self.bounds[:, :3], -self.bounds[:, 3:]
        ext = hi - lo
        area = 2.0 * (ext[:, 0] * ext[:, 1] + ext[:, 1] * ext[:, 2] + ext[:, 2] * ext[:, 0])
        first = self.left[~leaves]
        side = np.minimum(hi[first], hi[first + 1]) - np.maximum(lo[first], lo[first + 1])
        overlap = np.clip(side, 0.0, None).prod(axis=1)
        return {
            "num_leaves": int(np.count_nonzero(leaves)),
            "leaf_fill_mean": float(self.counts[leaves].mean() / self.leaf_size),
            "surface_area_sum": float(area.sum()),
            "overlap_volume_sum": float(overlap.sum()),
        }


def _as_point_array(points) -> np.ndarray:
    pts = checked_rows(points, "data")
    if not len(pts):
        raise ValueError(f"expected a non-empty (n, 3) array of data points, got shape {pts.shape}")
    return pts


def _axis_ranks(cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(3, n) tables `rank` and `order` of (coordinate, id) order on each axis, int32 while n < 2**31.

    rank[a, i] is the place of point i in (coordinate, id) order on axis
    a, and order[a] lists the ids in that order: order[a, rank[a, i]] = i.
    The default argsort, unstable but vectorized, orders a contiguous copy
    of each axis's coordinates, which with its gather costs less than the
    strided column; a sort of the float64 values would lose the ids.  Equal
    coordinates, -0.0 and 0.0 among them, form runs of ties, numbered from
    1 in coordinate order.  A value sort of the unique int64 keys
    run * n + id, over the places in runs alone, puts each run in id order:
    the sorted keys keep the runs where they were, so subtracting run * n
    leaves the ids.  Sorting only the tied places costs less than sorting
    every key, as most scenes have few ties.  The run key is an int64
    below n * n, as are the level keys of :func:`build_point_bvh`, so both
    fit while n * n <= 2**63, and more points are refused.  Together the
    int32 tables hold what one int64 table of ranks would.
    """
    n = len(cent)
    if n * n > 2**63:
        raise OverflowError(f"{n} primitives overflow the build's int64 sort keys")
    dtype = np.int32 if n < 2**31 else np.int64
    rank = np.empty((3, n), dtype=dtype)
    order = np.empty((3, n), dtype=dtype)
    ids = np.arange(n, dtype=dtype)
    for a in range(3):
        col = np.ascontiguousarray(cent[:, a])  # a strided argsort and take cost more than the copy
        by_coord = col.argsort()
        col = col.take(by_coord)
        tie = col[1:] == col[:-1]  # place j + 1 holds the coordinate of place j
        del col
        if tie.any():
            tied = np.zeros(n, dtype=bool)
            tied[1:] = tie
            tied[:-1] |= tie
            at = np.flatnonzero(tied)  # the places in runs of ties
            opens = np.ones(n, dtype=bool)  # the place opens a run
            opens[1:] = ~tie
            run = np.cumsum(opens.take(at)) * n
            key = by_coord.take(at) + run
            key.sort()
            by_coord[at] = key - run
        order[a] = by_coord
        rank[a, by_coord] = ids
    return rank, order


def _split_levels(cent: np.ndarray, rank: np.ndarray, order: np.ndarray,
                  leaf_size: int) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """The median splits of :func:`build_point_bvh`, one level a pass: the slot order and the levels.

    `rank` and `order` are the tables of :func:`_axis_ranks`.  Returns
    `perm`, the primitive id of every storage slot, and one (starts, counts,
    split axis, split plane, leaf mask) row of arrays per level, top down.
    """
    n = len(cent)
    orders = order.ravel()  # axis a's row starts at a * n
    perm = np.arange(n)  # storage slot -> primitive id

    # One pass per level: node k of the level owns slots starts[k] .. + counts[k].
    starts = np.zeros(1, dtype=np.int64)
    counts = np.full(1, n, dtype=np.int64)
    levels = []
    while True:
        leaf = counts <= leaf_size
        offsets = np.cumsum(counts) - counts
        # The keys node * n + rank stay below nodes * n, and the lookups row * n + rank below 3 * n.
        dtype = np.int32 if max(len(counts), 3) * n <= 2**31 else np.int64
        seg = np.repeat(np.arange(0, len(counts) * n, n, dtype=dtype), counts)  # each slot's node * n
        if len(seg) == n:  # the level covers every slot, in order: no gather
            slots, ids = slice(None), perm
        else:
            slots = np.repeat(starts - offsets, counts)
            slots += np.arange(len(seg))
            # take rather than fancy indexing, as in traverse_points: same result, several times faster
            ids = perm.take(slots)
        ranked = rank.take(ids, axis=1)  # the level's one gather: every slot's rank on each axis
        del ids
        # A node's lowest and highest rank on an axis are its first and last point in
        # (coordinate, id) order, so their coordinates give max - min.  Only a zero extent
        # can differ, in its sign, which argmax does not see.
        lo = np.minimum.reduceat(ranked, offsets, axis=1)
        hi = np.maximum.reduceat(ranked, offsets, axis=1)
        extent = np.stack([cent[order[a].take(hi[a]), a] - cent[order[a].take(lo[a]), a] for a in range(3)])
        # Split on the longest centroid extent; argmax takes the first
        # maximum, so ties go x, then y, then z.  A leaf is stored in x order.
        axis = np.where(leaf, 0, extent.argmax(axis=0))
        row = np.repeat(axis.astype(dtype), counts)  # each slot's split axis
        key = ranked[0]  # each slot's rank on its split axis, written over the x ranks
        np.copyto(key, ranked[1], where=row == 1)
        np.copyto(key, ranked[2], where=row == 2)
        key = key + seg  # node * n + rank, unique
        del ranked
        key.sort()
        # The sorted keys keep each node's slots, so subtracting node * n leaves the ranks.
        key -= seg
        del seg
        row *= n  # each slot's row of the flat order table
        key += row
        del row
        perm[slots] = orders.take(key)
        s, m, a = starts[~leaf], counts[~leaf], axis[~leaf]
        half = m // 2  # the left child takes the first half in split-axis order
        # Midway between the centroids either side of the split.  Halving first keeps the sum of
        # two coordinates above max_float / 2 finite, and rounds as (c0 + c1) / 2 does, as halving is
        # exact above the subnormals.
        plane = np.zeros(len(counts))
        plane[~leaf] = cent[perm[s + half - 1], a] * 0.5 + cent[perm[s + half], a] * 0.5
        levels.append((starts, counts, axis, plane, leaf))
        if leaf.all():
            break
        starts = np.column_stack([s, s + half]).ravel()
        counts = np.column_stack([half, m - half]).ravel()
    return perm, levels


def build_point_bvh(points, half_width: float, leaf_size: int = DEFAULT_LEAF_SIZE, frame: Frame = IDENTITY) -> Bvh:
    """Build a BVH over one cube per point in `frame`, holding the frame's ball of radius `half_width`.

    `points` is a non-empty (n, 3) array-like of finite rows; primitive i
    is the cube around row i, and its id is i.  In a frame other than the
    identity, the tree is built over the mapped rows ``frame.rows(points)``
    with boxes of half width ``frame.scale * half_width``, which hold the
    frame's source ball of radius `half_width` (the L1 ball, for the face
    frame); the index records that frame and that half width, and its
    walks read query rows in the frame.  Every node box contains all
    descendant primitive boxes, every primitive lands in exactly one leaf, and
    identical input always yields the identical tree.  The topology depends
    on the points alone; `half_width`, a real number >= 0 that the index
    records as a float, widens every box alike.

    Each axis is ranked once by :func:`_axis_ranks`.  Each level then
    gathers the (3, L) ranks of its L slots once.  One minimum and one
    maximum `reduceat` along those rows give each node's lowest and highest
    rank on every axis, and its extent is the difference of the coordinates
    at those ranks, which is max - min up to the sign of a zero extent.
    The level sorts the values node * n + rank on each slot's split axis,
    subtracts node * n, and looks each rank up in the inverse table `order`,
    at row * n + rank, to get the slot's new id.  The keys and lookups are
    int32 while nodes * n - 1 and 3n - 1 are below 2**31, and int64 past
    that.  A level that covers every slot in order gathers no slots, and
    the scratch is freed before the boxes are made, so the build's traced
    peak is little above what its own tables hold.
    """
    h = checked_real(half_width, "half_width", 0.0) * frame.scale
    cent = frame.rows(_as_point_array(points))
    leaf_size = checked_count(leaf_size, "leaf_size")
    n = len(cent)

    # Sorting a node by rank is sorting it by (coordinate, id) on its axis.  The
    # ranks and the levels' scratch are freed on return, before the boxes are made.
    perm, levels = _split_levels(cent, *_axis_ranks(cent), leaf_size)
    starts, counts, split_axis, split_plane, leaf = (np.concatenate(t) for t in zip(*levels))
    splits = [np.count_nonzero(~level_leaf) for *_, level_leaf in levels]  # internal nodes per level
    del levels
    internal = np.flatnonzero(~leaf)
    # Level order puts the children of the k-th internal node at 2k+1, 2k+2.
    left = np.full(len(leaf), -1, dtype=np.int64)
    left[internal] = 1 + 2 * np.arange(len(internal))

    # Leaves partition the slots, so one reduceat in slot order boxes them all.
    slot_cent = cent.take(perm, axis=0)
    boxes = np.empty((n, 6))  # filled in place: no (n, 6) temporary, which raised the resident peak
    np.subtract(slot_cent, h, out=boxes[:, :3])
    np.add(slot_cent, h, out=boxes[:, 3:])
    del slot_cent
    np.negative(boxes[:, 3:], out=boxes[:, 3:])  # -(c + h), the exact negation of the upper face
    # Every column of a (lo, -hi) row is a minimum over the primitives below:
    # the minimum of negated faces is bitwise the negated maximum.
    leaves = np.flatnonzero(leaf)
    # The leaves in slot order: their starts are unique, so the sorted values start * n + j list them.
    key = starts.take(leaves) * n + np.arange(len(leaves))
    key.sort()
    leaves = leaves.take(key % n)
    bounds = np.empty((len(leaf), 6))
    bounds[leaves] = np.minimum.reduceat(boxes, starts.take(leaves))
    # Internal boxes bottom up, one level at a time.
    kb = len(internal)
    for split in reversed(splits):
        ka = kb - split
        kids = bounds[2 * ka + 1 : 2 * kb + 1]
        bounds[internal[ka:kb]] = np.minimum(kids[0::2], kids[1::2])
        kb = ka

    return Bvh(bounds, left, starts, counts, perm, boxes, split_axis, split_plane, h, leaf_size, len(splits), frame)


def point_hits(bvh: Bvh, origin: tuple[float, float, float], inset: float = 0.0) -> tuple[np.ndarray, int]:
    """Ids of the primitives whose boxes, inset by `inset`, contain `origin`, depth first, and the nodes tested.

    The node walk reads the tables in place.  Its stack holds nodes whose box
    passes, and expanding one tests both children with one read.  The leaves
    it reaches come out in slot order; one array step tests their slots.
    Like that step, the walk compares each (lo, -hi) box row with the span
    (q - inset, -(q + inset)), column by column.
    Not exported; :func:`traverse_point` and :func:`bvhknn.pipeline.run_query` use it.
    """
    ox, oy, oz = origin
    ax, ay, az, bx, by, bz = ox - inset, oy - inset, oz - inset, -(ox + inset), -(oy + inset), -(oz + inset)
    bounds, lefts = bvh.bounds.data, bvh.left.data
    x0, y0, z0, x1, y1, z1 = bvh.bounds[0].tolist()  # x1, y1, z1: the negated upper faces
    stack = [0] if x0 <= ax and x1 <= bx and y0 <= ay and y1 <= by and z0 <= az and z1 <= bz else []
    tested = 1
    leaves = []
    while stack:
        node = stack.pop()
        left = lefts[node]
        if left < 0:
            leaves.append(node)
            continue
        tested += 2
        x0, y0, z0, x1, y1, z1, u0, v0, w0, u1, v1, w1 = _SIBLING_BOXES.unpack_from(bounds, 48 * left)
        if u0 <= ax and u1 <= bx and v0 <= ay and v1 <= by and w0 <= az and w1 <= bz:
            stack.append(left + 1)
        if x0 <= ax and x1 <= bx and y0 <= ay and y1 <= by and z0 <= az and z1 <= bz:
            stack.append(left)  # popped first: the left subtree is walked first
    leaves = np.array(leaves, dtype=np.int64)
    spans = np.array([[ax, ay, az, bx, by, bz]])
    _, ids = _leaf_hits(bvh, np.zeros(len(leaves), dtype=np.int64), leaves, spans)
    return ids, tested


def _contains(boxes: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Row-wise closed test lo <= q - inset and q + inset <= hi, the comparisons of the node walk.

    A row of `boxes` is (lo, -hi) and a row of `spans` (q - inset,
    -(q + inset)), and the two broadcast against each other.  Then
    ``-hi <= -(q + inset)`` is ``q + inset <= hi``, so a box holds a span
    when all six columns of ``boxes <= spans`` hold: one comparison over
    contiguous rows.  Its (L, 6) bools, 0 or 1 a byte, are read as three
    uint16 words a row, and a row passes when the three words ANDed are
    0x0101.  ANDing the three word columns costs less than half of
    ``.all(axis=1)``, which reduces the short rows slowly.
    """
    words = (boxes <= spans).view(np.uint16)
    both = words[:, 0] & words[:, 1]
    both &= words[:, 2]
    return both == 0x0101


def _leaf_hits(bvh: Bvh, rows: np.ndarray, leaves: np.ndarray, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hit query rows and primitive ids over the slots of (query row, leaf) pairs, in pair and slot order.

    The slots are gathered and tested _SLOT_BLOCK at a time into one mask,
    so that the gathered boxes and spans stay in L2.
    """
    counts = bvh.counts.take(leaves)
    rows = rows.repeat(counts)
    # Slot pairs are laid out leaf after leaf; leaf j's slots start at starts[j].
    slot = np.arange(len(rows)) + (bvh.starts.take(leaves) - (np.cumsum(counts) - counts)).repeat(counts)
    if len(slot) <= _SLOT_BLOCK:
        # One block, as a single query's slots almost always are: its test is
        # the mask.  Filling a mask instead adds about 2 us (3%) to run_query.
        inside = _contains(bvh.boxes.take(slot, axis=0), spans.take(rows, axis=0))
    else:
        inside = np.empty(len(slot), dtype=bool)
        for a in range(0, len(slot), _SLOT_BLOCK):
            b = a + _SLOT_BLOCK
            inside[a:b] = _contains(bvh.boxes.take(slot[a:b], axis=0), spans.take(rows[a:b], axis=0))
    return rows.compress(inside), bvh.perm.take(slot.compress(inside))


def traverse_points(bvh: Bvh, origins: np.ndarray,
                    insets: np.ndarray | None = None) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Every (query, primitive) containment hit of many point queries at once.

    `origins` is an (m, 3) array of finite rows, checked by
    :func:`bvhknn.geometry.checked_rows`, and `insets` an optional (m,)
    array of finite per-query box insets (0 when omitted), applied as
    :func:`point_hits` applies its `inset`: one above 0 shrinks every box
    and one below 0 widens it.  A bad row or a NaN or infinite inset
    raises ValueError naming its index, and insets not m in number one
    naming both counts.  The traversal is a
    wavefront, one tree level a step: a frontier of (query row, node)
    pairs whose boxes passed starts at the root.  Each step tests the
    slots of the frontier's leaves at once, keeping only the (query row,
    id) hits, and replaces each internal node by its two children, whose
    boxes are tested at once.
    It tests exactly the nodes and slots that :func:`point_hits` tests for
    each query and inset.

    Yields ``(lo, hi, rows, ids, tested)`` for consecutive runs of query
    rows lo..hi-1, in order and together covering every row: the hit query
    rows and the hit primitive ids, two arrays of equal length in no
    particular order, and the number of node boxes tested for each query
    of the run.  A run of several queries is halved whenever it holds more
    than PAIR_BUDGET queries, or whenever its next frontier, the hits it
    holds and the slots of this step's leaves would pass PAIR_BUDGET pairs,
    so memory stays bounded however many boxes contain each query, and such
    a run holds at most PAIR_BUDGET hits.  One query is never split; it
    holds at most its frontier, its hits and one level's slots.
    """
    # take/compress rather than fancy indexing: same result, several times faster.
    origins = checked_rows(origins, "query")
    m = len(origins)
    inset = 0.0
    if insets is not None:
        inset = np.asarray(insets, dtype=np.float64)
        if inset.size != m:
            raise ValueError(f"insets must hold one value per query: expected length {m}, got {inset.size}")
        inset = inset.reshape(m, 1)
        bad = np.flatnonzero(~np.isfinite(inset))
        if bad.size:
            raise ValueError(f"inset index {bad[0]} must be finite, got {inset[bad[0], 0]}")
    # one (q - inset, -(q + inset)) row per query: each test gathers a single array
    spans = np.hstack([origins - inset, -(origins + inset)])
    tested = np.ones(m, dtype=np.int64)  # every query tests the root box
    rows = np.flatnonzero(_contains(bvh.bounds[:1], spans))  # the root box against every query
    none = np.zeros(0, dtype=np.int64)
    # Runs still to traverse, the next one last: query rows lo..hi-1, their
    # frontier of (row, node) pairs whose boxes passed, and their hits so far.
    runs = [(0, m, rows, np.zeros(rows.size, dtype=np.int64), none, none)] if m else []
    while runs:
        lo, hi, rows, nodes, hit_rows, hit_ids = runs.pop()
        while True:
            left = bvh.left.take(nodes)
            leaf = left < 0
            reached = nodes.compress(leaf)
            slots = int(bvh.counts.take(reached).sum())
            pairs = 2 * (rows.size - reached.size) + hit_rows.size + slots
            if max(hi - lo, pairs) > PAIR_BUDGET and hi - lo > 1:
                mid = (lo + hi) // 2
                up, hit_up = rows >= mid, hit_rows >= mid
                runs.append((mid, hi, rows.compress(up), nodes.compress(up),
                             hit_rows.compress(hit_up), hit_ids.compress(hit_up)))
                hi, rows, nodes = mid, rows.compress(~up), nodes.compress(~up)
                hit_rows, hit_ids = hit_rows.compress(~hit_up), hit_ids.compress(~hit_up)
                continue
            if not rows.size:
                break
            if reached.size:
                found_rows, found_ids = _leaf_hits(bvh, rows.compress(leaf), reached, spans)
                hit_rows, hit_ids = np.concatenate([hit_rows, found_rows]), np.concatenate([hit_ids, found_ids])
            rows = rows.compress(~leaf).repeat(2)
            nodes = left.compress(~leaf).repeat(2)
            nodes[1::2] += 1  # the right child is left + 1
            tested[lo:hi] += np.bincount(rows - lo, minlength=hi - lo)
            inside = _contains(bvh.bounds.take(nodes, axis=0), spans.take(rows, axis=0))
            rows, nodes = rows.compress(inside), nodes.compress(inside)
        yield lo, hi, hit_rows, hit_ids, tested[lo:hi]


def _window(bvh: Bvh, node, size: int):
    """First of the `size` consecutive storage slots centred on `node`, kept inside 0..n-1."""
    centre = bvh.starts[node] + bvh.counts[node] // 2
    return np.minimum(np.maximum(centre - size // 2, 0), bvh.num_primitives - size)


def probe_window(bvh: Bvh, origin: tuple[float, float, float], r: float, min_count: int,
                 crowd: float) -> np.ndarray | None:
    """Ids in the window of storage slots around the gate node of `origin` for radius `r`, or None.

    The descent goes from the root, at each internal node to the side of
    its split plane that holds the query (the left child on the plane),
    and ends at the gate node: the last node on the way that holds at
    least `min_count` primitives.  The tree derives the rest from `r`.
    The reach is r + H, H the half width: a node box inside
    ``origin ± reach`` on every axis holds points within r of the origin
    on every axis.  It returns ids if the gate's box lies inside the
    reach, or if the box of the gate's child on the way does and the gate
    is dense: its points, spread at their density over the query's cube of
    side 2r, would number at least `crowd`, ``count * (2r)**3 >= crowd *
    volume`` of the box of the gate's points, which is the gate's box
    shrunk by H on every side (an extent below 0 read as 0).  So no window
    is gathered for a query far from any dense subtree.  A leaf gate
    stands for its own child.  The child's box lies within the gate's, so
    it is tested first, and a query whose child overhangs the reach pays
    one box test.

    The density test runs as ``tx * ty * tz * crowd <= count`` on the
    per-axis ratios ``t = extent / 2r``, which stay in range at scales
    near 1e300 and subnormal ones alike, where ``(2r)**3`` would not.
    :func:`probe_windows` runs the same IEEE operations in the same order,
    so the two agree row for row.

    The window is the min(2 * min_count, n) consecutive slots centred on
    the gate (:func:`_window`), so at least min_count.  Slots of a subtree
    are contiguous, so it holds the query's spatial neighbours, and it
    holds an internal gate whole: the gate's child on the way holds fewer
    than min_count, and the median split gives the other child at most
    one more.  With n < min_count no query is probed.  Not exported;
    :func:`bvhknn.pipeline.run_query` uses it.
    """
    lefts, counts, axes, planes = bvh.left.data, bvh.counts.data, bvh.split_axis.data, bvh.split_plane.data
    if counts[0] < min_count:
        return None
    gate = 0
    while (left := lefts[gate]) >= 0:
        child = left + (origin[axes[gate]] > planes[gate])
        if counts[child] < min_count:
            break
        gate = child
    else:
        child = gate  # a leaf gate stands for its own child
    ox, oy, oz = origin
    reach = r + bvh.half_width
    x0, y0, z0, x1, y1, z1 = _BOX.unpack_from(bvh.bounds.data, 48 * child)  # x1, y1, z1 negated
    if not (ox - reach <= x0 and oy - reach <= y0 and oz - reach <= z0
            and -(ox + reach) <= x1 and -(oy + reach) <= y1 and -(oz + reach) <= z1):
        return None
    x0, y0, z0, x1, y1, z1 = _BOX.unpack_from(bvh.bounds.data, 48 * gate)
    if not (ox - reach <= x0 and oy - reach <= y0 and oz - reach <= z0
            and -(ox + reach) <= x1 and -(oy + reach) <= y1 and -(oz + reach) <= z1):
        w, side = 2 * bvh.half_width, 2 * r
        ex, ey, ez = -x1 - x0 - w, -y1 - y0 - w, -z1 - z0 - w
        tx, ty, tz = (ex if ex > 0 else 0.0) / side, (ey if ey > 0 else 0.0) / side, (ez if ez > 0 else 0.0) / side
        if not tx * ty * tz * crowd <= counts[gate]:
            return None
    size = min(2 * min_count, bvh.num_primitives)
    start = int(_window(bvh, gate, size))
    return bvh.perm[start:start + size]


def probe_windows(bvh: Bvh, origins: np.ndarray, r: float, min_count: int,
                  crowd: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`probe_window` for every row of the (m, 3) array `origins`, one tree level a step.

    Returns the rows that pass the probe and a (len(rows), min(2 *
    min_count, n)) array of the ids in their windows.
    """
    origins = np.ascontiguousarray(origins, dtype=np.float64)
    m = len(origins)
    size = min(2 * min_count, bvh.num_primitives)
    if not m or bvh.counts[0] < min_count:
        return np.zeros(0, dtype=np.int64), np.zeros((0, size), dtype=np.int64)
    flat = origins.ravel()
    # Down while the child on the query's side holds min_count primitives; the node where that stops is the gate.
    gate = np.zeros(m, dtype=np.int64)
    at, nodes = 3 * np.arange(m), np.zeros(m, dtype=np.int64)  # flat offsets 3 * row, and nodes, of queries going down
    while at.size:
        left = bvh.left.take(nodes)
        child = left + (flat.take(at + bvh.split_axis.take(nodes)) > bvh.split_plane.take(nodes))
        go = (left >= 0) & (bvh.counts.take(child) >= min_count)  # a leaf's child is garbage, masked
        if not go.all():
            gate[at.compress(~go) // 3] = nodes.compress(~go)
            at, child = at.compress(go), child.compress(go)
        nodes = child
    # The gate's child on the way, which a leaf gate stands for itself.
    left = bvh.left.take(gate)
    child = left + (flat.take(3 * np.arange(m) + bvh.split_axis.take(gate)) > bvh.split_plane.take(gate))
    child = np.where(left >= 0, child, gate)
    # A box lies inside origin ± reach when the (lo, -hi) row of origin ± reach contains it as a span.
    reach = r + bvh.half_width
    around = np.hstack([origins - reach, -(origins + reach)])
    rows = np.flatnonzero(_contains(around, bvh.bounds.take(child, axis=0)))
    gates = gate.take(rows)
    box = bvh.bounds.take(gates, axis=0)
    over = np.flatnonzero(~_contains(around.take(rows, axis=0), box))  # gates that overhang the reach
    if over.size:
        # probe_window's density test, the same operations in the same order
        box = box.take(over, axis=0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # silent, as Python floats are
            e = -box[:, 3:] - box[:, :3] - 2 * bvh.half_width
            t = np.where(e > 0, e, 0.0) / (2 * r)
            sparse = ~(t[:, 0] * t[:, 1] * t[:, 2] * crowd <= bvh.counts.take(gates.take(over)))
        rows = np.delete(rows, over.compress(sparse))
    start = _window(bvh, gate.take(rows), size)
    return rows, bvh.perm.take(start[:, None] + np.arange(size))


def containment_scan(points, half_width: float, q) -> list[int]:
    """Brute-force hit set: ids of all points whose cube contains the query row `q`.

    Independent linear-scan oracle for the traversal of
    ``build_point_bvh(points, half_width)``; O(n) per query.
    """
    h = checked_real(half_width, "half_width", 0.0)
    pts = _as_point_array(points)
    o = checked_rows([q], "query")
    return np.flatnonzero(((pts - h <= o) & (o <= pts + h)).all(axis=1)).tolist()


# ---------------------------------------------------------------------------
# The object-era any-hit interface.  Only the benchmark harness uses this
# block: the search runs point_hits and traverse_points on plain rows.  It
# goes once the harness stops importing it (ROADMAP item 2).


@dataclass(frozen=True, slots=True)
class Point3:
    """A point (or vector) in 3D space: each coordinate passes :func:`checked_real` and is stored as a float."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, checked_real(getattr(self, name), name))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class PointQuery:
    """A query against the scene, reduced to pure point containment.

    Hardware rays of infinitesimal length report every box containing their
    origin regardless of direction, so no direction field is needed.
    """

    origin: Point3


@dataclass
class TraversalCounters:
    """Optional instrumentation: how many node boxes were tested."""

    nodes_tested: int = 0


def traverse_point(
    bvh: Bvh,
    q: PointQuery,
    anyhit: Callable[[int], object],
    counters: TraversalCounters | None = None,
) -> int:
    """Invoke `anyhit(id)` once per leaf primitive whose box contains the query; return the number of hits.

    Hits are delivered in :func:`point_hits` order, depth first, left child
    first, whatever the callback returns.  `counters.nodes_tested` grows by
    the node boxes the walk tested.
    """
    ids, tested = point_hits(bvh, q.origin.as_tuple())
    if counters is not None:
        counters.nodes_tested += tested
    for hit in ids.tolist():
        anyhit(hit)
    return len(ids)
