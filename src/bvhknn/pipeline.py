"""Filter-refine k-NN queries on top of the BVH containment engine.

A query runs in two stages:

1. filter: the BVH reports the id of every primitive box containing the
   query point, each box first inset by the query's own inset (below);
2. refine: one call of the shared weight kernel (:mod:`bvhknn.metrics`)
   over the hit rows keeps the points whose distance is <= r and takes the
   k smallest by (weight, id).

The tree is built and walked in the frame of the metric
(:func:`bvhknn.metrics.frame_for`): the identity, or for lp:1 the basis of
its ball's faces, u = S x / 4 (:func:`bvhknn.geometry.face_rows`), where
the box of half width r / 4 around u(p) holds every point within L1
distance r of p, 1.5 times the ball's volume where the cube is 6 times.
:func:`build_index` builds over the mapped points, and both query entry
points map their queries by the same operations, probe and walk in the
frame, and take window radii and refine over the caller's rows, so the
frame changes the hits, never an answer.  A query on an index built in
another frame is refused.

Before the filter, a probe gives each query in a dense region its own
radius r_q <= r that surely holds k points (RTNN's "megacell", Zhu,
PPoPP 2022).  The search names the policy (:func:`_probe_params`): the
probe radius, r itself in the identity frame, the gate count
GATE_PER_K * k and the density bar DENSE_PER_K * k.  The
tree derives the geometry from that radius (:func:`bvhknn.bvh.probe_window`).  Its
descent ends at the gate node, the last on the query's way that holds at
least the gate count.  The query is probed if the gate's points lie
within r of it on every axis, or if those of the gate's child on its way
do and the gate is dense, so dense that its points would put the bar's
count in the query's cube of side 2r; then it takes the k-th smallest
distance over the min(2 * GATE_PER_K * k, n) storage slots centred on
the gate, all of an internal gate's.  The gate decides cost alone: a
query it passes over keeps r.
Any k points bound the k-th nearest distance, so every point of the
answer at r lies within r_q, ties at the k-th place included.  The boxes
are then inset by H - h(r_q), H being the index's half width and h the
scene half width, linear in r, both in the index's frame, and padded for
the rounding of r_q and, in the face frame, of the map (:func:`_insets`),
so the tree filters as one built at r_q
would: an index serves any config with h(r) <= H and rejects the others.
The refine still keeps distance <= r, so the answer is the oracle's at r,
and each result reports the r_q it was searched with.

:func:`batch_query` runs the probe and both stages for many queries at
once: the probe one tree level a step (:func:`bvhknn.bvh.probe_windows`),
then one wavefront traversal of every query with its own inset, the
public :func:`bvhknn.bvh.traverse_points`, which hands over the hits a run of
queries at a time, then one kernel call over every hit of the run and one
sort on (query, weight, id): an unstable argsort of one packed int64 key
(:func:`_run_order`).  A run too large for that key, which takes more
than 2**31 points, raises OverflowError.  Each query's first k land at
(query, rank) in (m, k) id and distance arrays, the layout of
``scipy.spatial.cKDTree.query``, padded with id n and distance inf; a
:class:`BatchResult` holds them with the per-query counts and radii r_q
and builds a query's :class:`QueryResult` only when asked for it.
:func:`run_query` is the per-query reference path: the probe and the
inset node walk of :func:`bvhknn.bvh.point_hits` in Python, with no
callback, and a probed query's radius and inset from the same operations
as the batch's, on one row and in Python floats.  The two pick
bitwise-equal radii and insets and return equal results.

The refine step computes distances exactly as the brute-force oracle
does, so within the radius the answer is the oracle's, boundary included.
The plain and enhanced pipelines differ only in scene box size; their
neighbor lists are always identical.

This module filters and refines under a native metric alone.  Every
other metric reaches it by one route, which one table in
:mod:`bvhknn.metrics` decides: :func:`bvhknn.metrics.transform_chain_for`
maps source-form points into pipeline space,
:func:`bvhknn.metrics.pipeline_metric_for` names the native metric searched
there, and :func:`bvhknn.metrics.source_distances` turns a batch's distance
array back into source units, padding kept.  :func:`knn_search` runs that
route around :func:`build_index` and :func:`batch_query`.

A query is one finite row of 3 (:func:`bvhknn.geometry.checked_rows`), and
an empty list is no queries; the build checks every data row, and a query
call only the data's width and count.  A query call searches float32 data
as it is, widening only the rows it gathers.

Indexes are immutable after build and queries share them read-only; each
call owns its hit arrays and counters, so query fan-out across workers is
safe.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .bvh import (
    PAIR_BUDGET,
    Bvh,
    build_point_bvh,
    point_hits,
    probe_window,
    probe_windows,
    traverse_points,
)
from .geometry import Frame, checked_count, checked_real, checked_rows, shaped_rows
from .metrics import (
    KIND_LINF,
    MetricSpec,
    distances,
    frame_for,
    inclusion_radius,
    pipeline_metric_for,
    source_distances,
    transform_chain_for,
    transform_points,
    weights,
)


@dataclass(frozen=True, slots=True)
class ReductionConfig:
    """How to run a search: target metric, radius, k, and scene geometry.

    `metric` is a :class:`~bvhknn.metrics.MetricSpec`, else ValueError.
    `r` is the search radius in pipeline units (for transform-backed
    metrics: in the mapped space, e.g. chord length for cosine/angular),
    a Python or numpy real number > 0, stored as a float.
    `enhanced`, a Python or numpy bool stored as a bool, selects the
    tighter scene geometry; it changes filtering cost, never results.
    The tree's leaf size is a build parameter, not a search setting (see
    :func:`build_index`).  `frame` is no setting either: it is the metric's
    (:func:`bvhknn.metrics.frame_for`), looked up once here, as every query
    call checks it against its index's.
    """

    metric: MetricSpec
    r: float
    k: int
    enhanced: bool = False
    frame: Frame = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "frame", frame_for(self.metric))  # refuses a non-MetricSpec first
        object.__setattr__(self, "r", checked_real(self.r, "radius", 0.0, strict=True))
        if not isinstance(self.enhanced, (bool, np.bool_)):
            raise ValueError(f"enhanced must be a bool, got {self.enhanced!r}")
        # numpy numbers and bools are stored as floats, ints and bools, which the reports' JSON takes
        object.__setattr__(self, "k", checked_count(self.k, "k"))
        object.__setattr__(self, "enhanced", bool(self.enhanced))


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of one query.

    `neighbors` holds up to k (id, distance) pairs in target-metric units,
    ordered by increasing weight, so by increasing distance (ids break
    ties).  For the cosine metric
    the reported value is the similarity, so it decreases down the list;
    the ordering key is still the ascending angle.  The counts trace the
    filter chain of the pass that ran, with boxes inset to the query's own
    radius r_q: hit_count boxes passed, node_visits node boxes were
    tested, and hit_count >= candidate_count >= len(neighbors), where
    candidates are the hits within distance r.  The probe that picks r_q
    is not counted.  `radius` is that r_q, in pipeline units like
    ``config.r`` (a chord for cosine and angular), and exactly ``config.r``
    for a query the probe passes over.
    """

    neighbors: list[tuple[int, float]]
    candidate_count: int
    hit_count: int
    node_visits: int
    radius: float

    def ids(self) -> list[int]:
        return [i for i, _ in self.neighbors]


@dataclass(frozen=True, eq=False)
class BatchResult(Sequence):
    """The outcome of m queries as arrays, in the layout of ``scipy.spatial.cKDTree.query``.

    Row i of the (m, k) `ids` and `distances` holds query i's neighbors in
    :class:`QueryResult` order, then padding: id n, the number of points,
    and distance inf.  The first ``filled[i] = min(candidates[i], k)``
    slots are filled.  `candidates`, `hits` and `nodes_tested` are (m,)
    arrays of QueryResult's counts, and `radii` the (m,) float64 array of
    its `radius`.  As a sequence, item i is query i's QueryResult, built
    when asked for; iteration builds them all in one pass, a slice is a
    BatchResult, and the batch equals any sequence of equal QueryResults.
    """

    ids: np.ndarray
    distances: np.ndarray
    candidates: np.ndarray
    hits: np.ndarray
    nodes_tested: np.ndarray
    radii: np.ndarray

    @property
    def filled(self) -> np.ndarray:
        """The number of filled slots of each row, min(candidates, k)."""
        return np.minimum(self.candidates, self.ids.shape[1])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BatchResult(self.ids[i], self.distances[i], self.candidates[i], self.hits[i],
                               self.nodes_tested[i], self.radii[i])
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"query index {i} out of range for {len(self)} queries")
        i %= len(self)
        return next(iter(self[i:i + 1]))

    def __iter__(self):
        # one flat pass over the filled slots, row by row, cut at the cumulative counts
        filled = self.filled
        mask = np.arange(self.ids.shape[1]) < filled[:, None]
        pairs = list(zip(self.ids[mask].tolist(), self.distances[mask].tolist()))
        ends = np.cumsum(filled).tolist()
        return iter([QueryResult(pairs[a:b], c, h, t, r) for a, b, c, h, t, r in zip(
            [0] + ends, ends, self.candidates.tolist(), self.hits.tolist(), self.nodes_tested.tolist(),
            self.radii.tolist())])

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def scene_half_width(config: ReductionConfig) -> float:
    """Half width of the per-point scene boxes for this configuration.

    Plain pipeline: the circumscribing L2 radius f(r), the scene of the
    paper's plain reduction.  Enhanced pipeline: r itself, because a
    metric ball of radius r extends exactly r along each axis.  Both
    reject a transform-backed metric; resolve it with
    :func:`bvhknn.metrics.pipeline_metric_for` first.
    """
    bound = inclusion_radius(config.metric, config.r)
    return config.r if config.enhanced else bound


def build_index(points, config: ReductionConfig) -> Bvh:
    """Build the BVH scene for `points` under `config`, boxes of half width ``scene_half_width(config)``.

    The tree is built in the frame of the config's metric,
    :func:`bvhknn.metrics.frame_for`: over the points themselves, or for
    lp:1 over their face map, with boxes of a quarter of that half width
    (:func:`bvhknn.geometry.face_rows`).  It has the default leaf size;
    :func:`bvhknn.bvh.build_point_bvh` builds one of any other in the same
    frame, and every leaf size gives the same answers.
    """
    return build_point_bvh(points, scene_half_width(config), frame=config.frame)


def _checked_points(bvh: Bvh, points, config: ReductionConfig) -> tuple[np.ndarray, float]:
    """`points` as a float32 or float64 array, after the O(1) checks every query entry point makes.

    The index must be built in the frame of the config's metric, with boxes
    at least as wide as the config's in that frame.  Also returns the
    config's half width h in that frame, which :func:`_insets` reads.
    """
    h = scene_half_width(config)  # refuses a transform-backed metric
    if bvh.frame is not config.frame:
        raise ValueError(f"metric {config.metric.canonical()!r} filters in the {config.frame.name} frame "
                         f"but the index was built in the {bvh.frame.name} frame")
    h *= config.frame.scale
    if h > bvh.half_width:
        raise ValueError(f"config needs boxes of half width {h} but the index was built with {bvh.half_width}")
    # float32 data is kept as given, not copied whole on every call:
    # weights widens the rows it gathers to float64, which is exact.
    if not (isinstance(points, np.ndarray) and points.dtype == np.float32):
        points = np.asarray(points, dtype=np.float64)
    points = shaped_rows(points, "data")
    if bvh.num_primitives != len(points):
        raise ValueError(f"index holds {bvh.num_primitives} primitives but dataset has {len(points)}")
    return points, h


# The probe's gate count, times k: a query is probed only if its descent
# passes a subtree of at least GATE_PER_K * k points within r of it.
GATE_PER_K = 2

# The probe's density bar, times k: a gate that overhangs the reach is still
# probed if its points, spread at their density over the query's cube of side
# 2r, would number DENSE_PER_K * k (see bvh.probe_window).
DENSE_PER_K = 30


def _rows(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """points[ids] as a new array; take() for C-ordered points, as it copies the whole array otherwise."""
    return points.take(ids, axis=0) if points.flags.c_contiguous else points[ids]


def _window_radii(points: np.ndarray, ids: np.ndarray, origins: np.ndarray, config: ReductionConfig) -> np.ndarray:
    """min(r, k-th smallest distance) from each of the (g, 3) `origins` to the points of its row of `ids`."""
    g, size = ids.shape
    w = weights(config.metric, _rows(points, ids.ravel()).reshape(g, size, 3), origins[:, None, :])
    return np.minimum(distances(config.metric, np.partition(w, config.k - 1, axis=1)[:, config.k - 1]), config.r)


def _window_radius(points: np.ndarray, ids: np.ndarray, origin: np.ndarray, config: ReductionConfig) -> float:
    """:func:`_window_radii` of one query, bitwise, in fewer numpy calls.

    The same weights over the (size,) window, its k-th smallest, and the
    distance of that as a 1-element array, rounded by the kernel that
    rounds the batch's arrays; then the minimum with r in Python floats.
    """
    w = weights(config.metric, _rows(points, ids), origin)
    kth = np.partition(w, config.k - 1)[config.k - 1:config.k]
    return min(float(distances(config.metric, kth)[0]), config.r)


def _insets(bvh: Bvh, h: float, radii: np.ndarray | float, config: ReductionConfig, origins) -> np.ndarray | float:
    """Box insets H - h(r_q) for the radii r_q <= r, padded so that no point within r_q is lost.

    `radii` is an array, or one Python float, for which the inset is one
    float, computed by the same operations.  `origins` are the
    queries in the index's frame: the (m, 3) array, or the one row as 3
    Python floats.

    H is the index's half width and h = h(r) that of `config`, both in the
    index's frame (:func:`_checked_points` gives h), and H >= h; below, p and
    q are identity-frame rows, where h >= r.
    Say a point's weight is at most the k-th window weight.  Each axis
    offset then obeys |p_i - q_i| <= r_q * (1 + 2**-40) + tau: terms and
    sums round by a few 2**-53, the root by under one ulp plus
    |ln w| * 2**-53 for the rounded exponent 1/p, and tau = 2**(1 - 1074/p)
    covers a term lost to underflow (L1 and LInf terms are exact: tau = 0).
    The inset leaves a real half width H - inset of at least h / r times
    that bound: for r >= 2 * tau the product is at most 1.5 * H, and it and
    the two differences below round by at most 6.5 * 2**-53 * H in all,
    which the last term, H * 2**-50, covers.  So p - H <= q - inset and
    q + inset <= p + H hold exactly, and as rounding is monotone, the
    computed fl(p - H) <= fl(q - inset) and fl(q + inset) <= fl(p + H) hold
    too.  For r_q = r on an index built for `config` the inset is below 0:
    an offset just past r may round down to r, so the boxes widen.

    In the face frame of lp:1 (:func:`bvhknn.geometry.face_rows`), H and h
    are a quarter of the source half widths, and p and q above are the
    computed rows u = fl(S x / 4).  The L1 weight bounds the sum, not only
    each offset: |p - q|_1 <= r_q * (1 + 2**-40) in x, so the exact
    |u_j(p) - u_j(q)| is at most a quarter of it, which h / r times the
    bound covers as h = r / 4.  The computed rows add e(x) <=
    2**-52 (1 + 2**-53) |x|_1 / 4 + 2**-1073 each.  The fourth face normal
    gives |x|_1 / 4 <= 3 max_j |u_j(x)| <= 3 (max_j |fl u_j(x)| + e(x)), and
    for a data point max_j |fl u_j(p)| <= B = max |bounds[0]|, since the root
    box holds every fl u(p) ± H; no pass over the points is needed.  With
    Q = max_j |fl u_j(q)| for the query, solving for the errors gives
    e(p) + e(q) <= 3.001 * 2**-52 * (B + Q) + 2**-1071.  The pad
    (B * 2**-48 + Q * 2**-48) + 2**-1064, which stays finite where B + Q
    would not, is over five times that.  That leaves room
    for its own rounding and for the few 2**-53 of it that the sum with
    H * 2**-50 and the last difference round by, and its subnormal term
    covers every error in absolute terms, as each operation rounds by at
    most 2**-1075 below 2**-1022.  So H - inset >= |fl u_j(p) - fl u_j(q)|
    on every axis, and the monotone rounding above holds as it stands.  No
    query in the identity frame pays the pad.
    """
    metric, r = config.metric, config.r
    frame, H = bvh.frame, bvh.half_width
    tau = 0.0 if metric.kind == KIND_LINF or metric.p == 1.0 else 2.0 ** (1 - 1074 / metric.p)
    slack = H * 2.0 ** -50
    if frame.map is not None:  # the map's rounding of the data rows and the query rows
        bound = float(np.abs(bvh.bounds[0]).max()) * 2.0 ** -48
        slack = slack + ((bound + np.abs(origins).max(axis=-1) * 2.0 ** -48) + 2.0 ** -1064)
    return H - h * ((radii * (1 + 2.0 ** -40) + tau) / r) - slack


def _probe_params(config: ReductionConfig) -> tuple[float, int, float]:
    """The probe's search policy under `config`: its radius, the gate count and the density bar.

    The tree derives the reach, the window and the query's cube of side
    twice the radius from it (:func:`bvhknn.bvh.probe_window`).  The gate
    count g = GATE_PER_K * k >= 2k makes a probed window, at least g slots,
    hold k points.  The bar DENSE_PER_K * k probes a gate that overhangs the
    reach only in a cluster far denser than r, whose k-th distance is well
    below r, so the window's radius cuts the hits; a gate that is not
    dense, as in evenly spread data, would pay for a window that seldom
    shrinks r.  The probe reads the boxes of the index's frame, so its
    radius is c times the frame's half width of r, c = ``frame.probe``:
    r itself in the identity frame.  The face frame's boxes reach up to 3
    times as far as the cube's, and c = 2 restores about the identity
    frame's share of probed queries.  The rule reads the tree alone, so both
    entry points pick the same queries.
    """
    frame = config.frame
    return frame.probe * (frame.scale * config.r), GATE_PER_K * config.k, float(DENSE_PER_K * config.k)


def _radii(bvh: Bvh, points: np.ndarray, queries: np.ndarray, framed: np.ndarray,
           config: ReductionConfig) -> np.ndarray:
    """The radius r_q <= r that each row of the checked (m, 3) `queries` is searched with.

    `framed` holds the same rows in the index's frame, where the probe
    descends; the window radius is taken over the caller's rows.  r for a
    query that the probe passes over.  The gate asks for points near the
    query at the probe radius, not at the scene half width, so plain and
    enhanced scenes, which share their topology and split planes, give the
    same radii (barring a query within rounding of a gate face).  Queries
    are probed in blocks of at most PAIR_BUDGET window slots, so memory
    stays bounded: a window holds at most 2 * gate slots.
    """
    radii = np.full(len(queries), config.r)
    probe, gate, crowd = _probe_params(config)
    block = max(1, PAIR_BUDGET // (2 * gate))
    for a in range(0, len(queries), block):
        rows, ids = probe_windows(bvh, framed[a:a + block], probe, gate, crowd)
        if rows.size:
            radii[a + rows] = _window_radii(points, ids, queries[a:a + block].take(rows, axis=0), config)
    return radii


def run_query(bvh: Bvh, points, q, config: ReductionConfig) -> QueryResult:
    """k nearest neighbors of `q` within distance `config.r`, filter then refine.

    `bvh` must index `points` in the frame of `config.metric` with boxes at
    least as wide as `config` needs there, else ValueError: :func:`build_index`
    over the same points at any radius >= `config.r` and the same or the
    plain scene.  Every such index returns the same neighbors.  The query is
    mapped into the index's frame, where the probe and the walk run; its
    window radius and the refine read the caller's rows.  This is the
    per-query reference path: the probe and the node walk in Python, which
    for one query beat a wavefront of one, with the boxes inset as
    :func:`batch_query` insets them.
    """
    metric = config.metric
    points, h = _checked_points(bvh, points, config)
    row = checked_rows(np.asarray(q, dtype=np.float64)[None], "query")  # [q]: fails as batch_query([q]) does
    origin = bvh.frame.rows(row)[0].tolist()  # the node walks read Python floats
    ids = probe_window(bvh, origin, *_probe_params(config))
    radius = config.r if ids is None else _window_radius(points, ids, row[0], config)
    hits, tested = point_hits(bvh, origin, float(_insets(bvh, h, radius, config, origin)))
    w = weights(metric, _rows(points, hits), row[0])
    dist = distances(metric, w)
    inside = dist <= config.r
    ids, w, dist = hits[inside], w[inside], dist[inside]
    top = np.lexsort((ids, w))[: config.k]
    neighbors = list(zip(ids[top].tolist(), dist[top].tolist()))
    return QueryResult(neighbors, len(ids), len(hits), tested, radius)


def batch_query(bvh: Bvh, points, queries, config: ReductionConfig) -> BatchResult:
    """:func:`run_query` for every row of the (m, 3) array `queries`, batched.

    Returns a :class:`BatchResult`: (m, k) id and distance arrays, in the
    layout of ``cKDTree.query`` (a missing neighbor reads id n and
    distance inf), per-query counts and radii r_q.  Its item i equals
    ``run_query(bvh, points, queries[i], config)``, counts included, and
    is built only when asked for; `bvh` is checked as there.  The queries
    are mapped into the index's frame once, by the operations that map
    run_query's one row, so both walk bitwise the same rows.  The probe
    runs for all queries first, one tree level a step, and gives each its
    box inset, below 0 where the boxes widen (:func:`_insets`).  One
    wavefront, :func:`bvhknn.bvh.traverse_points`, then walks every query
    with its inset and hands over the hits a run of queries at a time,
    runs sized so that memory stays bounded; each
    run takes one weight-kernel call over all its hits and one sort on
    (query, weight, id), from which each query takes its first k.  The
    sort is one unstable argsort of the packed int64 key ((query - lo) * R
    + weight rank) * n + id over the run's R distinct weights; a run whose
    (hi - lo) * R * n passes 2**63 raises OverflowError, which the run
    limits of :func:`traverse_points` allow only for n > 2**31 points.
    """
    points, h = _checked_points(bvh, points, config)
    queries = np.ascontiguousarray(checked_rows(queries, "query"))
    framed = bvh.frame.rows(queries)
    radii = _radii(bvh, points, queries, framed, config)
    return _refined(traverse_points(bvh, framed, _insets(bvh, h, radii, config, framed)), points, queries, radii, config)


def _run_order(rows: np.ndarray, ids: np.ndarray, w: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """``np.lexsort((ids, w, rows))`` for the candidates of query rows lo..hi-1 over n primitives.

    One unstable sort of one int64 key, ((rows - lo) * R + rank) * n + ids,
    where rank is the dense rank of w among the R distinct weights.  Equal
    weights share a rank (-0.0 and +0.0 too; no weight is NaN, since NaN
    fails distance <= r), and a query reaches each primitive at most once,
    its one leaf slot, so every key is unique and the order is exact.
    """
    if not len(w):
        return np.zeros(0, dtype=np.int64)
    by_w = w.argsort()
    ws = w.take(by_w)
    ranked = np.zeros(len(w), dtype=np.int64)
    np.cumsum(ws[1:] != ws[:-1], out=ranked[1:])
    num_ranks = int(ranked[-1]) + 1
    # The largest key is (hi - lo) * R * n - 1, so the keys fit in an int64
    # while (hi - lo) * R * n <= 2**63.  traverse_points halves every run of
    # more than PAIR_BUDGET = 2**16 queries.  A run of several queries adds a
    # level's hits only if its hits so far plus that level's leaf slots, which
    # bound the new hits, stay within PAIR_BUDGET, so it ends with at most
    # 2**16 hits: R <= 2**16 and (hi - lo) * R <= 2**32.  A run of one query
    # reaches each point at most once, so R <= n.  Either way the check fails
    # only for n > 2**31.
    if (int(hi) - int(lo)) * num_ranks * int(n) > 2**63:
        raise OverflowError(f"run of {hi - lo} queries, {num_ranks} weights and {n} primitives overflows an int64 key")
    rank = np.empty_like(ranked)
    rank[by_w] = ranked
    key = np.subtract(rows, lo, dtype=np.int64)
    key *= num_ranks
    key += rank
    key *= n
    key += ids
    return key.argsort()


def _refined(runs, points: np.ndarray, origins: np.ndarray, radii: np.ndarray, config: ReductionConfig) -> BatchResult:
    """The BatchResult of :func:`traverse_points` `runs` over `origins`, searched with `radii`."""
    m, k, n = len(origins), config.k, len(points)
    out = BatchResult(np.full((m, k), n, dtype=np.int64), np.full((m, k), np.inf),
                      np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64), radii)
    for lo, hi, rows, ids, tested in runs:
        out.hits[lo:hi] = np.bincount(rows - lo, minlength=hi - lo)
        out.nodes_tested[lo:hi] = tested
        # take() gathers the same rows as fancy indexing, several times faster
        w = weights(config.metric, _rows(points, ids), origins.take(rows, axis=0))
        dist = distances(config.metric, w)
        inside = dist <= config.r
        rows, ids, w, dist = (a.compress(inside) for a in (rows, ids, w, dist))
        candidates = np.bincount(rows - lo, minlength=hi - lo)
        out.candidates[lo:hi] = candidates
        order = _run_order(rows, ids, w, lo, hi, n)
        # order groups the candidates by query; each query keeps its first k, at (row, rank)
        rank = np.arange(len(order)) - np.repeat(np.cumsum(candidates) - candidates, candidates)
        first = rank < k
        top = order.compress(first)
        slots = rows.take(top) * k + rank.compress(first)
        out.ids.put(slots, ids.take(top))
        out.distances.put(slots, dist.take(top))
    return out


def knn_search(data, queries, metric: MetricSpec, r: float, k: int, enhanced: bool = False) -> BatchResult:
    """One-call search: builds the scene and runs every query.

    `data` and `queries` are given in source form: (n, 3) vectors for the
    native metrics and cosine/angular, (n, 2) points for the 2D metric,
    and bit strings (or 0/1 vertex rows) for Hamming.  `r` is a radius in
    pipeline space (a chord length for cosine/angular).  Returns the
    :class:`BatchResult` of :func:`batch_query`, its distances in source
    units by :func:`bvhknn.metrics.source_distances`, padding kept; ordering
    follows ascending source distance (for cosine: ascending angle, i.e.
    descending similarity).
    """
    chain = transform_chain_for(metric)
    config = ReductionConfig(pipeline_metric_for(metric), r, k, enhanced)
    data3 = transform_points(chain, data, label="data")
    queries3 = transform_points(chain, queries, label="query")
    batch = batch_query(build_index(data3, config), data3, queries3, config)
    return replace(batch, distances=source_distances(metric, batch.distances))
