"""Exhaustive ground truth and recall measurement.

The brute-force scan is the verification backbone: it visits every data
point, so its answers are exact for every supported metric and serve as
the reference the indexed pipelines are judged against.  Recall is the
fraction of true nearest neighbors an approximate result recovered,
compared as id sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_point3
from .metrics import (
    KIND_ANGULAR,
    KIND_COSINE,
    KIND_EUCLID2D,
    KIND_HAMMING3,
    MetricSpec,
    distances,
    weights,
)
from .pipeline import Transform, pipeline_metric_for, transform_points

NeighborRow = list[tuple[int, float]]


def _distance_and_rank(points, q, metric: MetricSpec):
    """Per-point reported distances and the ascending rank key."""
    pts = np.asarray(points, dtype=np.float64) if not _is_strings(points) else points
    kind = metric.kind
    if kind in (KIND_COSINE, KIND_ANGULAR):
        unit = transform_points([Transform.NORMALIZE], pts, label="data")
        uq = np.asarray(transform_points([Transform.NORMALIZE], [as_point3(q).as_tuple()], label="query")[0])
        cos = np.clip(unit @ uq, -1.0, 1.0)
        angle = np.arccos(cos)
        if kind == KIND_ANGULAR:
            return angle, -cos
        return cos, -cos  # similarity reported, still ranked by ascending angle
    if kind == KIND_EUCLID2D:
        rows = np.asarray(pts, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"euclid2d expects (n, 2) points, got shape {rows.shape}")
        qrow = np.asarray(q, dtype=np.float64).reshape(2)
    elif kind == KIND_HAMMING3:
        rows = transform_points([Transform.HAMMING_VERTEX], pts, label="data")
        qrow = transform_points([Transform.HAMMING_VERTEX], [q] if isinstance(q, str) else [tuple(q)], label="query")[0]
    else:
        rows, qrow = pts, as_point3(q).as_tuple()
    native = pipeline_metric_for(metric)
    w = weights(native, rows, qrow)
    return distances(native, w), w


def _is_strings(points) -> bool:
    return len(points) > 0 and isinstance(points[0], str)


def brute_force_knn(points, q, metric: MetricSpec, k: int, radius: float | None = None) -> NeighborRow:
    """Exact k nearest neighbors of q by exhaustive scan.

    Returns up to k (id, distance) pairs, ascending by distance with ties
    broken by smaller id (for cosine the distance column is the similarity
    and the order is ascending angle).  A radius bound keeps only points
    with distance <= radius (for cosine: similarity >= radius).

    Lp, LInf, 2D Euclidean and Hamming distances come from the weight
    kernel the pipeline uses, ranked by (weight, id); cosine and angular
    are computed from dot products, independently of the pipeline's
    normalize-then-L2 route.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dist, rank = _distance_and_rank(points, q, metric)
    ids = np.arange(len(dist))
    if radius is not None:
        keep = dist >= radius if metric.kind == KIND_COSINE else dist <= radius
        ids, dist, rank = ids[keep], dist[keep], rank[keep]
    order = np.argsort(rank, kind="stable")[:k]
    return [(int(ids[i]), float(dist[i])) for i in order]


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
        rows = [[(int(i), float(d)) for i, d in row] for row in obj["rows"]]
        return cls(metric=obj["metric"], k=int(obj["k"]), rows=rows)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GroundTruth":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def ground_truth(points, queries, metric: MetricSpec, k: int, radius: float | None = None) -> GroundTruth:
    """Brute-force truth for a whole query batch."""
    rows = [brute_force_knn(points, q, metric, k, radius) for q in _iter_queries(queries)]
    return GroundTruth(metric=metric.canonical(), k=k, rows=rows)


def _iter_queries(queries):
    if _is_strings(queries):
        return list(queries)
    arr = np.asarray(queries, dtype=np.float64)
    return [arr[i] for i in range(arr.shape[0])]


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
    found = _result_ids(result)
    return len(found & truth_ids) / len(truth_ids)


def aggregate_recall(results, truths) -> float:
    """Mean per-query recall; queries with empty truth rows are skipped."""
    truths = truths.rows if isinstance(truths, GroundTruth) else list(truths)
    results = list(results)
    if len(results) != len(truths):
        raise ValueError(f"{len(results)} results vs {len(truths)} truth rows")
    values = [recall(res, row) for res, row in zip(results, truths) if _result_ids(row)]
    if not values:
        raise ValueError("no queries with non-empty truth rows")
    return math.fsum(values) / len(values)
