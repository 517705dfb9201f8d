"""Generalized k-nearest-neighbor search over a BVH containment pipeline.

The library answers k-NN queries under Lp norms (any finite p >= 1),
Chebyshev distance, and, via order-preserving point transformations,
cosine/angular similarity, 2D Euclidean distance, and Hamming distance
on short bit strings.  Filtering runs on an emulated accelerator: one
axis-aligned box per data point, indexed by a BVH and queried by point
containment, one query at a time (`run_query`) or as a wavefront of many
(`batch_query`); the hits are then refined exactly.
"""

from .metrics import (MetricSpec, distances, in_lp_ball, inclusion_radius, pipeline_metric_for,
                      transform_chain_for, transform_points, weights)
from .bvh import (
    Bvh,
    Point3,
    PointQuery,
    TraversalCounters,
    build_point_bvh,
    containment_scan,
    traverse_point,
    traverse_points,
)
from .pipeline import (
    QueryResult,
    ReductionConfig,
    batch_query,
    build_index,
    knn_search,
    run_query,
    scene_half_width,
)
from .oracle import GroundTruth, aggregate_recall, brute_force_knn, ground_truth, recall
from .datasets import read_records, synthetic_points
from .experiments import Dataset, run_experiment, sweep

__version__ = "0.1.0"

__all__ = [
    "Bvh",
    "Dataset",
    "GroundTruth",
    "MetricSpec",
    "Point3",
    "PointQuery",
    "QueryResult",
    "ReductionConfig",
    "TraversalCounters",
    "aggregate_recall",
    "batch_query",
    "brute_force_knn",
    "build_index",
    "build_point_bvh",
    "containment_scan",
    "distances",
    "ground_truth",
    "in_lp_ball",
    "inclusion_radius",
    "knn_search",
    "pipeline_metric_for",
    "read_records",
    "recall",
    "run_experiment",
    "run_query",
    "scene_half_width",
    "sweep",
    "synthetic_points",
    "transform_chain_for",
    "transform_points",
    "traverse_point",
    "traverse_points",
    "weights",
]
