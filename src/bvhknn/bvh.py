"""Bounding volume hierarchy over per-point boxes, queried by containment.

This emulates the accelerator contract the search pipeline relies on: build
a binary tree of nested boxes over the scene primitives, one cube around
each data point (:func:`build_point_bvh`), then for a point query invoke an
any-hit callback once for every *leaf primitive* whose own box contains the
query point.  As in a ray-tracing any-hit program, the callback receives
only the primitive's id, the row index of its point; it may stop the
traversal early.

Construction is deterministic: median split on the axis with the longest
centroid extent (ties broken x, then y, then z), recursing until a node
holds at most `leaf_size` primitives.  Trees are immutable once built and
traversal is read-only, so any number of concurrent queries may share one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Aabb, Point3, PointQuery

DEFAULT_LEAF_SIZE = 4


class Verdict(enum.Enum):
    """Any-hit callback outcome; returning None also continues."""

    CONTINUE = "continue"
    TERMINATE = "terminate"


@dataclass
class TraversalCounters:
    """Optional instrumentation: how many node boxes were tested."""

    nodes_tested: int = 0


@dataclass
class _Node:
    bounds: tuple[float, float, float, float, float, float]
    left: int = -1
    right: int = -1
    start: int = 0
    count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


class Bvh:
    """Immutable containment-query index; build with :func:`build_point_bvh`."""

    def __init__(self, nodes, prim_ids, prim_boxes, leaf_size):
        self._nodes: list[_Node] = nodes
        self._prim_ids: list[int] = prim_ids
        self._prim_boxes: list[tuple[float, ...]] = prim_boxes
        self.leaf_size = leaf_size

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_primitives(self) -> int:
        return len(self._prim_ids)

    @property
    def primitive_order(self) -> list[int]:
        """Dataset ids in leaf storage order (a permutation of the input)."""
        return list(self._prim_ids)

    def node_box(self, index: int) -> Aabb:
        b = self._nodes[index].bounds
        return Aabb(Point3(b[0], b[1], b[2]), Point3(b[3], b[4], b[5]))

    def node_children(self, index: int) -> tuple[int, int] | None:
        """(left, right) for an internal node, None for a leaf."""
        n = self._nodes[index]
        return None if n.is_leaf else (n.left, n.right)

    def leaf_primitives(self, index: int) -> list[int]:
        """Dataset ids stored in a leaf node."""
        n = self._nodes[index]
        if not n.is_leaf:
            raise ValueError(f"node {index} is internal")
        return self._prim_ids[n.start : n.start + n.count]

    def max_depth(self) -> int:
        """Longest root-to-leaf path, counting the root as depth 1."""
        depth = 0
        stack = [(0, 1)]
        while stack:
            idx, d = stack.pop()
            n = self._nodes[idx]
            if n.is_leaf:
                depth = max(depth, d)
            else:
                stack.append((n.left, d + 1))
                stack.append((n.right, d + 1))
        return depth

    def dump(self) -> str:
        """Indented text rendering of the tree, for debugging and tests."""
        lines: list[str] = []

        def walk(idx: int, depth: int) -> None:
            n = self._nodes[idx]
            b = n.bounds
            head = f"{'  ' * depth}[{idx}] ({b[0]:.6g},{b[1]:.6g},{b[2]:.6g})..({b[3]:.6g},{b[4]:.6g},{b[5]:.6g})"
            if n.is_leaf:
                ids = self._prim_ids[n.start : n.start + n.count]
                lines.append(f"{head} leaf ids={ids}")
            else:
                lines.append(f"{head} internal")
                walk(n.left, depth + 1)
                walk(n.right, depth + 1)

        walk(0, 0)
        return "\n".join(lines)


def _build_from_arrays(box_lo, box_hi, cent, leaf_size: int) -> Bvh:
    """Median-split build; primitive i is row i of the arrays, so its id is i."""
    if leaf_size < 1:
        raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
    n = len(cent)

    # Sort positions once per centroid axis (stable: coordinate, then input
    # position); splits below only partition these lists, never re-sort.
    by_axis = tuple(np.argsort(cent[:, a], kind="stable").tolist() for a in range(3))
    coords = tuple(cent[:, a].tolist() for a in range(3))
    lo_rows = box_lo.tolist()
    hi_rows = box_hi.tolist()

    nodes: list[_Node] = []
    order: list[int] = []  # leaf storage order, filled as leaves are emitted
    in_left = bytearray(n)

    def build(xs: list[int], ys: list[int], zs: list[int]) -> int:
        idx = len(nodes)
        node = _Node(bounds=())  # placeholder, patched below
        nodes.append(node)
        m = len(xs)
        if m <= leaf_size:
            node.start = len(order)
            node.count = m
            order.extend(xs)
            x0, y0, z0 = lo_rows[xs[0]]
            x1, y1, z1 = hi_rows[xs[0]]
            for i in xs[1:]:
                a, b, c = lo_rows[i]
                if a < x0: x0 = a
                if b < y0: y0 = b
                if c < z0: z0 = c
                a, b, c = hi_rows[i]
                if a > x1: x1 = a
                if b > y1: y1 = b
                if c > z1: z1 = c
            node.bounds = (x0, y0, z0, x1, y1, z1)
            return idx

        # longest centroid extent wins; >= keeps ties at x, then y, then z
        ext_x = coords[0][xs[-1]] - coords[0][xs[0]]
        ext_y = coords[1][ys[-1]] - coords[1][ys[0]]
        ext_z = coords[2][zs[-1]] - coords[2][zs[0]]
        if ext_x >= ext_y and ext_x >= ext_z:
            axis = 0
        elif ext_y >= ext_z:
            axis = 1
        else:
            axis = 2

        lists = (xs, ys, zs)
        key = lists[axis]
        mid = m // 2
        key_left, key_right = key[:mid], key[mid:]
        for i in key_left:
            in_left[i] = 1
        halves = []
        for a in range(3):
            if a == axis:
                halves.append((key_left, key_right))
            else:
                src = lists[a]
                halves.append((
                    [i for i in src if in_left[i]],
                    [i for i in src if not in_left[i]],
                ))
        for i in key_left:
            in_left[i] = 0

        left = build(halves[0][0], halves[1][0], halves[2][0])
        right = build(halves[0][1], halves[1][1], halves[2][1])
        lb, rb = nodes[left].bounds, nodes[right].bounds
        node.bounds = (
            min(lb[0], rb[0]), min(lb[1], rb[1]), min(lb[2], rb[2]),
            max(lb[3], rb[3]), max(lb[4], rb[4]), max(lb[5], rb[5]),
        )
        node.left = left
        node.right = right
        return idx

    build(by_axis[0], by_axis[1], by_axis[2])

    boxes = np.hstack([box_lo, box_hi])[order].tolist()
    return Bvh(nodes, order, boxes, leaf_size)


def _as_point_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite values")
    return pts


def _check_half_width(half_width: float) -> float:
    if not math.isfinite(half_width) or half_width < 0:
        raise ValueError(f"half_width must be finite and >= 0, got {half_width}")
    return float(half_width)


def build_point_bvh(points, half_width: float, leaf_size: int = DEFAULT_LEAF_SIZE) -> Bvh:
    """Build a BVH over one cube of half width `half_width` per point.

    `points` is a non-empty (n, 3) array-like; primitive i is the cube
    around row i, and its id is i.  Every node box contains all descendant
    primitive boxes, every primitive lands in exactly one leaf, and
    identical input always yields the identical tree.
    """
    h = _check_half_width(half_width)
    pts = _as_point_array(points)
    return _build_from_arrays(pts - h, pts + h, pts, leaf_size)


AnyHit = Callable[[int], "Verdict | None"]


def traverse_point(
    bvh: Bvh,
    q: PointQuery,
    anyhit: AnyHit,
    counters: TraversalCounters | None = None,
) -> int:
    """Invoke `anyhit(id)` once per leaf primitive whose box contains the query.

    Hits are delivered in depth-first order, left child first.  Subtrees
    whose node box excludes the query point are pruned without descending.
    Returns the number of callbacks delivered; a Verdict.TERMINATE return
    from the callback stops the traversal immediately.
    """
    ox, oy, oz = q.origin.x, q.origin.y, q.origin.z
    nodes = bvh._nodes
    prim_boxes = bvh._prim_boxes
    prim_ids = bvh._prim_ids

    hits = 0
    tested = 0
    stack = [0]
    while stack:
        node = nodes[stack.pop()]
        b = node.bounds
        tested += 1
        if not (b[0] <= ox <= b[3] and b[1] <= oy <= b[4] and b[2] <= oz <= b[5]):
            continue
        if node.left >= 0:
            stack.append(node.right)
            stack.append(node.left)
            continue
        for slot in range(node.start, node.start + node.count):
            pb = prim_boxes[slot]
            if pb[0] <= ox <= pb[3] and pb[1] <= oy <= pb[4] and pb[2] <= oz <= pb[5]:
                hits += 1
                verdict = anyhit(prim_ids[slot])
                if verdict is Verdict.TERMINATE:
                    if counters is not None:
                        counters.nodes_tested += tested
                    return hits
    if counters is not None:
        counters.nodes_tested += tested
    return hits


def node_visits(bvh: Bvh, q: PointQuery) -> int:
    """Number of node boxes tested while traversing q (pruning metric)."""
    counters = TraversalCounters()
    traverse_point(bvh, q, lambda hit: None, counters)
    return counters.nodes_tested


def containment_scan(points, half_width: float, q: PointQuery) -> list[int]:
    """Brute-force hit set: ids of all points whose cube contains q.

    Independent linear-scan oracle for the traversal of
    ``build_point_bvh(points, half_width)``; O(n) per query.
    """
    h = _check_half_width(half_width)
    pts = _as_point_array(points)
    o = np.asarray(q.origin.as_tuple())
    return np.flatnonzero(((pts - h <= o) & (o <= pts + h)).all(axis=1)).tolist()
