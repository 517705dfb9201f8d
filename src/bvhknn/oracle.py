"""Exhaustive ground truth and recall measurement.

The brute-force scan is the verification backbone: it visits every data
point, so its answers are exact for every supported metric and serve as
the reference the indexed pipelines are judged against.  Recall is the
fraction of true nearest neighbors an approximate result recovered,
compared as id sets.

The data and the queries are each mapped once per call, by the
pipeline's own route, :func:`bvhknn.metrics.transform_chain_for`
(normalised for cosine/angular, lifted to (x, y, 0) for euclid2d, parsed
for Hamming; a non-finite coordinate is rejected by index).  Per query,
one call of the shared column-wise weight kernel, under the pipeline
metric, gives each row's rank key: cosine and angular rank by chord, as
the pipeline does, so the two break every tie alike.  A radius is in
pipeline units, as the pipeline's `r` is (a chord for cosine and
angular), and a row is kept when its rooted weight is at most the
radius: the refine's own comparison, made on every row, so that nothing
assumes the root is monotone in floating point.  The k smallest are
then selected, not sorted in full: the keys are partitioned at k - 1,
every row whose key is at or below the k-th key is kept, so that all
ties at the k-th place survive, and that small set is sorted by
(key, id).  The answer is exactly the first k of a stable sort of every
key.  Similarities and angles are taken only for the rows returned, by
the pipeline's one formula, :func:`bvhknn.metrics.source_distances`.
This module imports only :mod:`bvhknn.metrics` and :mod:`bvhknn.geometry`,
none of the code it checks.

Without a radius, Lp metrics whose term is a `pow` (p not 1 or 2) weigh
only the rows that can reach the top k: a filter-refine step, as in the
indexed pipeline, with a bound that never drops an answer (the
lower-bounding lemma of GEMINI, Faloutsos, Ranganathan & Manolopoulos,
SIGMOD 1994).  Each row's L∞ offset m_i = max_j |d_j| takes no `pow`.
With m_k the k-th smallest, at least k rows weigh at most about
d * m_k**p over d columns, and no row weighs less than fl(m_i**p),
because a sum of non-negative terms never rounds below its largest.  So
a row with m_i > m_k * d**(1/p) * (1 + 2**-30) weighs strictly more than
the k-th weight and is neither in the answer nor tied at the k-th place.
The bound is floored where terms may underflow to 0, and every row is
weighed where the k-th weight may overflow to `inf`; see
:func:`_reachable`.  The rows returned are bitwise those of the full scan.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .metrics import (KIND_LP, MetricSpec, distances, pipeline_metric_for, source_distances, transform_chain_for,
                      transform_points, weights)
from .geometry import checked_count, checked_real, checked_rows

NeighborRow = list[tuple[int, float]]


def _mapped(points, metric: MetricSpec, label: str) -> np.ndarray:
    """The rows a rank key is computed from: the data, or a whole query batch, in pipeline space.

    The points take the pipeline's own route, :func:`bvhknn.metrics.transform_chain_for`:
    unit vectors for cosine and angular, (x, y, 0) rows for euclid2d (the
    zero column adds an exact 0 to every weight), cube vertices for Hamming,
    and the coordinates themselves otherwise.  The rows are stored
    column-major, so that each column the weight kernel reads is
    contiguous.  A row of the wrong width or with a non-finite coordinate
    is rejected, naming its `label` and index.
    """
    return np.asfortranarray(checked_rows(transform_points(transform_chain_for(metric), points, label), label))


def _smallest(key: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest keys in (key, index) order: a stable argsort's first k.

    The key is partitioned at k - 1, and every index whose key is not
    above the k-th key stays, so all ties at the k-th place survive into
    the (key, index) sort of that small set.  A NaN key is never below
    another, so it sorts last, as in `argsort`.
    """
    if k < len(key):
        kth = np.partition(key, k - 1)[k - 1]
        idx = np.flatnonzero(~(key > kth))
    else:
        idx = np.arange(len(key))
    return idx[np.lexsort((idx, key[idx]))[:k]]


def _reachable(rows: np.ndarray, qrow, metric: MetricSpec, k: int) -> np.ndarray | None:
    """Ids of the rows that can reach an unbounded query's top k, or None for every row.

    Only Lp metrics whose term is a `pow` (p not 1 or 2) are pruned, by the
    bound of the module docstring: the rows with
    m_i <= m_k * d**(1/p) * (1 + 2**-30) stay.  The bound is floored at
    2**(-1000/p), so the largest term of every dropped row is a normal
    float and no weight lost to underflow is dropped.  A bound at or above
    2**(1000/p) may put the k-th weight at `inf`, where every row ties, and
    a NaN m_k leaves fewer than k comparable rows; both weigh every row.
    `m_k**p` itself is never taken, so the prune cannot overflow.
    """
    if metric.kind != KIND_LP or metric.p in (1.0, 2.0) or k >= len(rows):
        return None
    p = metric.p
    m = weights(MetricSpec.linf(), rows, qrow)  # each |d_j| as the Lp kernel rounds it
    bound = float(np.partition(m, k - 1)[k - 1]) * rows.shape[1] ** (1.0 / p) * (1.0 + 2.0 ** -30)
    if not bound < 2.0 ** (1000.0 / p):  # a NaN bound lands here too
        return None
    return np.flatnonzero(m <= max(bound, 2.0 ** (-1000.0 / p)))


def _knn_rows(points, queries, metric: MetricSpec, k: int, radius: float | None) -> list[NeighborRow]:
    """Exact neighbor rows for each query; the data and the queries are each mapped once."""
    k = checked_count(k, "k")
    if radius is not None:
        radius = checked_real(radius, "radius", 0.0)
    native = pipeline_metric_for(metric)
    rows = _mapped(points, metric, "data")
    out = []
    for qrow in _mapped(queries, metric, "query"):
        if radius is None:
            ids = _reachable(rows, qrow, native, k)
            w = weights(native, rows if ids is None else rows[ids], qrow)
            top = _smallest(w, k)
            dist = distances(native, w[top])
            if ids is not None:
                top = ids[top]
        else:
            w = weights(native, rows, qrow)
            dist = distances(native, w)
            keep = np.flatnonzero(dist <= radius)
            top = keep[_smallest(w[keep], k)]
            dist = dist[top]
        out.append(list(zip(top.tolist(), source_distances(metric, dist).tolist())))
    return out


def brute_force_knn(points, q, metric: MetricSpec, k: int, radius: float | None = None) -> NeighborRow:
    """Exact k nearest neighbors of q, one row in the form of the data, by exhaustive scan.

    Returns up to k (id, distance) pairs, ascending by distance with ties
    broken by smaller id (for cosine the distance column is the similarity
    and the order is ascending angle).  A radius, a real number >= 0 in
    pipeline units like :class:`bvhknn.pipeline.ReductionConfig`'s `r`,
    keeps only points whose pipeline distance is <= radius: for cosine and
    angular that is the chord, so similarity s and angle t are the radii
    sqrt(2 - 2s) and 2 sin(t / 2).  ``radius=None`` is the unbounded search.

    Every metric is ranked by (weight, id) under the weight kernel of its
    pipeline metric, in the pipeline's space: cosine and angular by the L2
    chord between NORMALIZE's unit vectors, whose similarity or angle is
    reported.  So ids, order and distances are those of
    :func:`bvhknn.pipeline.knn_search` at the same radius, boundary and
    ties included.
    The k smallest keys are selected, not the whole scan sorted; the
    result is exactly the first k of a stable sort.
    This is the one-query case of :func:`ground_truth`.
    """
    return _knn_rows(points, [q], metric, k, radius)[0]


def _truth_pair(pair, row: int, slot: int) -> tuple[int, float]:
    """One (id, distance) pair of a truth file as (int, float), else ValueError naming its row and slot.

    The id is a Python or numpy integer >= 0, and no bool; the distance
    passes :func:`bvhknn.geometry.checked_real` with no lower bound, as a
    cosine similarity may be negative.
    """
    place = f"truth row {row} slot {slot}"
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"{place} must be an [id, distance] pair, got {pair!r}")
    i, d = pair
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or i < 0:  # numpy bools are no Integral
        raise ValueError(f"{place} id must be an integer >= 0, got {i!r}")
    return int(i), checked_real(d, f"{place} distance")


def _truth_row(row, r: int, k: int) -> NeighborRow:
    """One row of a truth file, else ValueError naming the row or slot.

    A row holds at most k pairs, fewer where a radius bounded the search,
    with distinct ids: recall divides by the number of distinct ids, which
    an extra id would grow, scoring an exact search below 1, and a repeated
    id would shrink.
    """
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"truth row {r} must be a list of [id, distance] pairs, got {row!r}")
    if len(row) > k:
        raise ValueError(f"truth row {r} holds {len(row)} pairs, more than k = {k}")
    pairs = [_truth_pair(pair, r, s) for s, pair in enumerate(row)]
    seen = set()
    for s, (i, _) in enumerate(pairs):
        if i in seen:
            raise ValueError(f"truth row {r} slot {s} repeats id {i}")
        seen.add(i)
    return pairs


@dataclass
class GroundTruth:
    """Exact per-query neighbor lists for one (metric, k) setting."""

    metric: str
    k: int
    rows: list[NeighborRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "k": self.k,
            "rows": [[[i, d] for i, d in row] for row in self.rows],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "GroundTruth":
        """The truth `to_dict` gives, else ValueError naming the bad key, row or slot.

        The metric is read by :meth:`MetricSpec.parse` and kept in its
        canonical form, so ``"lp:2.0"`` loads as ``"lp:2"``.  Other keys,
        such as the ``schema`` and ``dataset`` that ``bvhknn oracle --out``
        adds, are ignored.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a truth file holds a JSON object, got {type(obj).__name__}")
        for key in ("metric", "k", "rows"):
            if key not in obj:
                raise ValueError(f"a truth file needs the key {key!r}")
        try:
            metric = MetricSpec.parse(obj["metric"]).canonical()
        except ValueError as exc:
            raise ValueError(f"a truth file's 'metric': {exc}") from None
        k = checked_count(obj["k"], "k")
        if not isinstance(obj["rows"], (list, tuple)):
            raise ValueError(f"a truth file's 'rows' must be a list, got {type(obj['rows']).__name__}")
        rows = [_truth_row(row, r, k) for r, row in enumerate(obj["rows"])]
        return cls(metric=metric, k=k, rows=rows)

    @classmethod
    def load(cls, path) -> "GroundTruth":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def ground_truth(points, queries, metric: MetricSpec, k: int, radius: float | None = None) -> GroundTruth:
    """Brute-force truth for a whole query batch, as :func:`brute_force_knn` per query.

    The data and the queries are each mapped (converted, normalised or
    parsed) once for the batch.  The radius is in pipeline units, a chord
    for cosine and angular, as for :func:`brute_force_knn`.
    """
    rows = _knn_rows(points, queries, metric, k, radius)
    return GroundTruth(metric=metric.canonical(), k=int(k), rows=rows)  # to_dict's JSON takes no numpy k


def _result_ids(result) -> set[int]:
    if hasattr(result, "neighbors"):
        pairs = result.neighbors
    else:
        pairs = list(result)
    ids = set()
    for item in pairs:
        ids.add(int(item[0]) if isinstance(item, (tuple, list)) else int(item))
    return ids


def recall(result, truth) -> float:
    """|result ids ∩ truth ids| / |truth ids|.

    `result` may be a QueryResult, (id, distance) pairs, or bare ids;
    `truth` likewise.  The truth row must be non-empty.
    """
    truth_ids = _result_ids(truth)
    if not truth_ids:
        raise ValueError("recall is undefined for an empty truth row")
    return _found_fraction(result, truth_ids)


def _found_fraction(result, truth_ids: set[int]) -> float:
    return len(_result_ids(result) & truth_ids) / len(truth_ids)


def aggregate_recall(results, truths) -> float:
    """Mean per-query recall; queries with empty truth rows are skipped."""
    truths = truths.rows if isinstance(truths, GroundTruth) else list(truths)
    results = list(results)
    if len(results) != len(truths):
        raise ValueError(f"{len(results)} results vs {len(truths)} truth rows")
    truth_ids = (_result_ids(row) for row in truths)
    values = [_found_fraction(res, ids) for res, ids in zip(results, truth_ids) if ids]
    if not values:
        raise ValueError("no queries with non-empty truth rows")
    return math.fsum(values) / len(values)
