"""Filter-refine k-NN queries on top of the BVH containment engine.

A query runs in two stages:

1. filter: the BVH reports the id of every primitive box containing the
   query point, each box first inset by the query's own inset (below);
2. refine: one call of the shared weight kernel (:mod:`bvhknn.metrics`)
   over the hit rows keeps the points whose distance is <= r and takes the
   k smallest by (weight, id).

Before the filter, a probe gives each query in a dense region its own
radius r_q <= r that surely holds k points (RTNN's "megacell", Zhu,
PPoPP 2022).  The descent of :func:`bvhknn.bvh.probe_window` ends at the
gate node, the last on the query's way that holds at least GATE_PER_K * k
points.  The query is probed if the gate's points lie within r of it on
every axis, or if those of the gate's child on its way do and the gate
is dense, so dense that its points would put DENSE_PER_K * k in the
query's cube of side 2r (:func:`_probe_params`); then it takes the k-th
smallest distance over the 2 * GATE_PER_K * k storage slots centred on
the gate, all of an internal gate's.  The gate decides cost alone: a
query it passes over keeps r.
Any k points bound the k-th nearest distance, so every point of the
answer at r lies within r_q, ties at the k-th place included.  The boxes
are then inset by H - h(r_q), H being the index's half width and h the
scene half width, linear in r, so the tree filters as one built at r_q
would: an index serves any config with h(r) <= H and rejects the others.
The refine still keeps distance <= r, so the answer is the oracle's at r,
and each result reports the r_q it was searched with.

:func:`batch_query` runs the probe and both stages for many queries at
once: the probe one tree level a step (:func:`bvhknn.bvh.probe_windows`),
then one wavefront traversal of every query with its own inset
(:func:`bvhknn.bvh.traverse_points`), which hands over the hits a run of
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

Every metric reaches the pipeline by one route, and one table decides
it: ``_REDUCTIONS`` pairs each metric without a finite circumscribing L2
radius (cosine, angular, 2D Euclidean, Hamming) with an order-preserving
transformation and the native metric searched in its image.  From it
:func:`transform_chain_for` gives the chain that maps source-form points
into pipeline space, empty for the native Lp and LInf metrics, and
:func:`pipeline_metric_for` names the native metric searched there.
:func:`build_index` and :func:`batch_query` filter and refine, and
:func:`to_source_units` turns a batch's distance array back into source units.

A query is one finite row of 3 (:func:`bvhknn.geometry.checked_rows`), and
an empty list is no queries; the build checks every data row, and a query
call only the data's width and count.  A query call searches float32 data
as it is, widening only the rows it gathers.

Indexes are immutable after build and queries share them read-only; each
call owns its hit arrays and counters, so query fan-out across workers is
safe.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace

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
from .geometry import checked_count, checked_real, checked_rows, float_rows, shaped_rows
from .metrics import (
    KIND_ANGULAR,
    KIND_COSINE,
    KIND_EUCLID2D,
    KIND_HAMMING3,
    KIND_LINF,
    MetricSpec,
    distances,
    inclusion_radius,
    weights,
)


@dataclass(frozen=True, slots=True)
class ReductionConfig:
    """How to run a search: target metric, radius, k, and scene geometry.

    `r` is the search radius in target-metric units (for transform-backed
    metrics: in the mapped space, e.g. chord length for cosine/angular),
    a Python or numpy real number > 0, stored as a float.
    `enhanced`, a Python or numpy bool stored as a bool, selects the
    tighter scene geometry; it changes filtering cost, never results.
    The tree's leaf size is a build parameter, not a search setting (see
    :func:`build_index`).
    """

    metric: MetricSpec
    r: float
    k: int
    enhanced: bool = False

    def __post_init__(self):
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
    :func:`pipeline_metric_for` first.
    """
    bound = inclusion_radius(config.metric, config.r)
    return config.r if config.enhanced else bound


def build_index(points, config: ReductionConfig) -> Bvh:
    """Build the BVH scene for `points` under `config`, boxes of half width ``scene_half_width(config)``.

    The tree has the default leaf size; :func:`bvhknn.bvh.build_point_bvh`
    builds one of any other, and every leaf size gives the same answers.
    """
    return build_point_bvh(points, scene_half_width(config))


def _checked_points(bvh: Bvh, points, config: ReductionConfig) -> np.ndarray:
    """`points` as a float32 or float64 array, after the O(1) checks every query entry point makes."""
    h = scene_half_width(config)  # refuses a transform-backed metric
    if h > bvh.half_width:
        raise ValueError(f"config needs boxes of half width {h} but the index was built with {bvh.half_width}")
    # float32 data is kept as given, not copied whole on every call:
    # weights widens the rows it gathers to float64, which is exact.
    if not (isinstance(points, np.ndarray) and points.dtype == np.float32):
        points = np.asarray(points, dtype=np.float64)
    points = shaped_rows(points, "data")
    if bvh.num_primitives != len(points):
        raise ValueError(f"index holds {bvh.num_primitives} primitives but dataset has {len(points)}")
    return points


# The probe's gate count, times k: a query is probed only if its descent
# passes a subtree of at least GATE_PER_K * k points within r of it.
GATE_PER_K = 2

# The probe's density bar, times k: a gate that overhangs the reach is still
# probed if its points, spread at their density over the query's cube of side
# 2r, would number DENSE_PER_K * k (see _probe_params).
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


def _insets(bvh: Bvh, radii: np.ndarray | float, config: ReductionConfig) -> np.ndarray | float:
    """Box insets H - h(r_q) for the radii r_q <= r, padded so that no point within r_q is lost.

    `radii` is an array, or one Python float, for which the inset is a
    Python float, computed by the same operations.

    H is the index's half width, h = h(r) >= r that of `config`, and H >= h.
    Say a point's weight is at most the k-th window weight.  Each axis
    offset then obeys |p_i - q_i| <= r_q * (1 + 2**-40) + tau: terms and
    sums round by a few 2**-53, the root by under one ulp plus
    |ln w| * 2**-53 for the rounded exponent 1/p, and tau = 2**(1 - 1074/p)
    covers a term lost to underflow (L1 and LInf terms are exact: tau = 0).
    A positive inset leaves a real half width H - inset of at least h / r
    times that bound: the product (below H then) and the two differences
    below each round by at most 2**-53 * H, which the last term, H * 2**-50,
    covers.  So p - H <= q - inset and q + inset <= p + H hold exactly, and
    as rounding is monotone, the computed fl(p - H) <= fl(q - inset) and
    fl(q + inset) <= fl(p + H) hold too: the inset box passes the point.
    r_q = r, a query the probe passes over, gives inset 0 if H == h.
    """
    metric, r = config.metric, config.r
    h, H = scene_half_width(config), bvh.half_width
    tau = 0.0 if metric.kind == KIND_LINF or metric.p == 1.0 else 2.0 ** (1 - 1074 / metric.p)
    inset = H - h * ((radii * (1 + 2.0 ** -40) + tau) / r) - H * 2.0 ** -50
    if isinstance(radii, float):
        return inset if inset > 0 else 0.0
    return np.where(inset > 0, inset, 0.0)


def _probe_params(bvh: Bvh, config: ReductionConfig) -> tuple[float, int, int, float, float]:
    """The probe's reach, gate count, window size, cube side and density bar under `config`.

    A node box inside q ± (r + H), H the index's half width, holds points
    within r of q on every axis.  The gate needs g = GATE_PER_K * k >= 2k
    points, and the window takes min(2g, n) slots, so it holds k.  Twice
    g makes it hold every slot of an internal gate node: the gate's child
    on the query's way holds fewer than g, and the median split gives the
    other child at most one more.  With n < g no query is probed.

    A query is probed when the gate's box lies inside the reach, or when
    the gate's child on its way, which holds at least k points, lies
    inside it and the gate is dense: ``count(gate) * (2r)**3 >=
    DENSE_PER_K * k *`` the volume of the gate's point box.  Such a gate
    sits in a cluster far denser than r, whose k-th distance is well
    below r, so the window's radius cuts the hits; a gate that is not
    dense, as in evenly spread data, would pay for a window that seldom
    shrinks r.  The rule reads the tree alone, so both entry points pick
    the same queries.
    """
    gate = GATE_PER_K * config.k
    return (config.r + bvh.half_width, gate, min(2 * gate, bvh.num_primitives), 2 * config.r,
            float(DENSE_PER_K * config.k))


def _radii(bvh: Bvh, points: np.ndarray, queries: np.ndarray, config: ReductionConfig) -> np.ndarray:
    """The radius r_q <= r that each row of the checked (m, 3) `queries` is searched with.

    r for a query that the probe passes over.  The gate asks for points
    within r, not within the scene half width, so plain and enhanced
    scenes, which share their topology and split planes, give the same
    radii (barring a query within rounding of a gate face).  Queries are
    probed in blocks of at most PAIR_BUDGET window slots, so memory stays
    bounded.
    """
    radii = np.full(len(queries), config.r)
    params = _probe_params(bvh, config)
    block = max(1, PAIR_BUDGET // params[2])
    for a in range(0, len(queries), block):
        origins = queries[a:a + block]
        rows, ids = probe_windows(bvh, origins, *params)
        if rows.size:
            radii[a + rows] = _window_radii(points, ids, origins.take(rows, axis=0), config)
    return radii


def run_query(bvh: Bvh, points, q, config: ReductionConfig) -> QueryResult:
    """k nearest neighbors of `q` within distance `config.r`, filter then refine.

    `bvh` must index `points` with boxes at least as wide as `config`
    needs, ``bvh.half_width >= scene_half_width(config)``, else ValueError:
    :func:`build_index` over the same points at any radius >= `config.r`
    and the same or the plain scene.  Every such index returns the same
    neighbors.  This is the per-query reference path: the probe and the
    node walk in Python, which for one query beat a wavefront of one, with
    the boxes inset as :func:`batch_query` insets them.
    """
    metric = config.metric
    points = _checked_points(bvh, points, config)
    row = checked_rows(np.asarray(q, dtype=np.float64)[None], "query")  # [q]: fails as batch_query([q]) does
    origin = row[0].tolist()  # the node walks read Python floats
    ids = probe_window(bvh, origin, *_probe_params(bvh, config))
    radius = config.r if ids is None else _window_radius(points, ids, row[0], config)
    inset = 0.0 if ids is None and bvh.half_width == scene_half_width(config) else _insets(bvh, radius, config)
    hits, tested = point_hits(bvh, origin, inset)
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
    is built only when asked for; `bvh` is checked as there.  The probe
    runs for all queries first, one tree level a step, and gives each its
    box inset, 0 for most.  One wavefront, :func:`traverse_points`, then
    walks every query with its inset and hands over the hits a run of
    queries at a time, runs sized so that memory stays bounded; each
    run takes one weight-kernel call over all its hits and one sort on
    (query, weight, id), from which each query takes its first k.  The
    sort is one unstable argsort of the packed int64 key ((query - lo) * R
    + weight rank) * n + id over the run's R distinct weights; a run whose
    (hi - lo) * R * n passes 2**63 raises OverflowError, which the run
    limits of :func:`traverse_points` allow only for n > 2**31 points.
    """
    points = _checked_points(bvh, points, config)
    queries = np.ascontiguousarray(checked_rows(queries, "query"))
    radii = _radii(bvh, points, queries, config)
    return _refined(traverse_points(bvh, queries, _insets(bvh, radii, config)), points, queries, radii, config)


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


# ---------------------------------------------------------------------------
# Order-preserving transformations


class Transform(enum.Enum):
    """Point mappings whose images preserve source-metric distance order in L2."""

    NORMALIZE = "normalize"
    EMBED_2D = "embed2d"
    HAMMING_VERTEX = "hamming_vertex"


def _parse_bits(s) -> tuple[float, float, float]:
    if not isinstance(s, str) or not 1 <= len(s) <= 3 or set(s) - {"0", "1"}:
        raise ValueError(f"expected a bit string of length 1..3, got {s!r}")
    padded = s.zfill(3)
    return (float(padded[0]), float(padded[1]), float(padded[2]))


def transform_points(chain: list[Transform], points, label: str = "point") -> np.ndarray:
    """Apply a transform chain to a whole collection, returning an (n, 3) array.

    NORMALIZE takes finite nonzero 3-vectors to the unit sphere, scaling by
    m = max |x_i| a norm whose square overflows or is subnormal, as `hypot`
    does; EMBED_2D lifts (x, y) to (x, y, 0); HAMMING_VERTEX takes bit
    strings of length <= 3 (left-padded with zeros) to the matching cube
    vertices.  Rejects inputs a transform cannot accept, naming the shape
    or the offending `label` row (e.g. a zero vector under NORMALIZE), and
    a bare string, which is one bit string, not a collection of them.
    """
    if isinstance(points, str):
        raise ValueError(f"expected a collection of {label} rows, got the bare string {points!r}: "
                         "put one bit string in a list")
    current = points
    for t in chain:
        if t is Transform.NORMALIZE:
            arr = checked_rows(current, label)
            with np.errstate(over="ignore", under="ignore"):
                squares = (arr * arr).sum(axis=1)
            norms = np.sqrt(squares)
            scaled = np.flatnonzero((squares < np.finfo(np.float64).tiny) | (squares == np.inf))
            m = np.abs(arr[scaled]).max(axis=1)
            scaled, m = scaled[m > 0], m[m > 0]  # a zero vector keeps norm 0
            norms[scaled] = m * np.sqrt(((arr[scaled] / m[:, None]) ** 2).sum(axis=1))
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise ValueError(f"cannot normalize zero vector at {label} index {zero[0]}")
            current = arr / norms[:, None]
        elif t is Transform.EMBED_2D:
            current = np.pad(float_rows(current, label, 2), ((0, 0), (0, 1)))  # a zero z column
        elif t is Transform.HAMMING_VERTEX:
            if len(current) and isinstance(current[0], str):
                rows = []
                for i, s in enumerate(current):
                    try:
                        rows.append(_parse_bits(s))
                    except ValueError as exc:
                        raise ValueError(f"{label} index {i}: {exc}") from None
                current = np.asarray(rows, dtype=np.float64)
            else:
                current = float_rows(current, label)
                bad = np.flatnonzero(~np.isin(current, (0.0, 1.0)).all(axis=1))
                if bad.size:
                    raise ValueError(f"{label} index {bad[0]}: hamming input must be bit strings or 0/1 vertex rows")
        else:
            raise ValueError(f"unknown transform {t!r}")
    return float_rows(current, label)


# Each transform-backed metric's route into pipeline space: the transform
# that maps its points there and the native metric searched there.  A
# metric not listed is native and is searched as it is.
_REDUCTIONS = {
    KIND_COSINE: (Transform.NORMALIZE, MetricSpec.lp(2)),
    KIND_ANGULAR: (Transform.NORMALIZE, MetricSpec.lp(2)),
    KIND_EUCLID2D: (Transform.EMBED_2D, MetricSpec.lp(2)),
    KIND_HAMMING3: (Transform.HAMMING_VERTEX, MetricSpec.lp(1)),
}


def transform_chain_for(source: MetricSpec) -> list[Transform]:
    """The transform chain that maps `source`-form points into pipeline space.

    Empty for a native metric, whose points are searched as they are.
    """
    return [_REDUCTIONS[source.kind][0]] if source.kind in _REDUCTIONS else []


def pipeline_metric_for(source: MetricSpec) -> MetricSpec:
    """Native metric the mapped space is searched with.

    L1 for Hamming, L2 for the other transform-backed metrics, and the
    metric itself for a native one.
    """
    return _REDUCTIONS[source.kind][1] if source.kind in _REDUCTIONS else source


def to_source_units(source: MetricSpec, batch: BatchResult) -> BatchResult:
    """Re-express a pipeline-space batch's distances in source-metric units.

    Only cosine and angular change a distance: a chord c between unit
    vectors is the angle 2 asin(c / 2) and the cosine similarity
    1 - c**2 / 2.  The padding stays (n, inf) in every unit, and the
    radii stay in pipeline units.  For every other metric the batch is
    returned as it is.
    """
    if source.kind not in (KIND_ANGULAR, KIND_COSINE):
        return batch
    d = batch.distances
    filled = d < np.inf  # a neighbor's distance is at most r, so finite
    if source.kind == KIND_ANGULAR:
        # math.asin per value: np.arcsin rounds differently on some inputs
        converted = np.full_like(d, np.inf)
        converted[filled] = [2.0 * math.asin(min(1.0, c / 2.0)) for c in d[filled].tolist()]
    else:
        converted = np.where(filled, 1.0 - d * d / 2.0, np.inf)  # a similarity, not a distance
    return replace(batch, distances=converted)


def knn_search(data, queries, metric: MetricSpec, r: float, k: int, enhanced: bool = False) -> BatchResult:
    """One-call search: builds the scene and runs every query.

    `data` and `queries` are given in source form: (n, 3) vectors for the
    native metrics and cosine/angular, (n, 2) points for the 2D metric,
    and bit strings (or 0/1 vertex rows) for Hamming.  `r` is a radius in
    pipeline space (a chord length for cosine/angular).  Returns the
    :class:`BatchResult` of :func:`batch_query`, its distances in source
    units by :func:`to_source_units`; ordering follows ascending source
    distance (for cosine: ascending angle, i.e. descending similarity).
    """
    chain = transform_chain_for(metric)
    config = ReductionConfig(pipeline_metric_for(metric), r, k, enhanced)
    data3 = transform_points(chain, data, label="data")
    queries3 = transform_points(chain, queries, label="query")
    bvh = build_index(data3, config)
    return to_source_units(metric, batch_query(bvh, data3, queries3, config))
