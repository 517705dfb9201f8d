"""The public surface: every exported name, so that growing or cutting it is a deliberate edit here."""

import bvhknn

PUBLIC_NAMES = [
    "Bvh", "Dataset", "GroundTruth", "MetricSpec", "Point3", "PointQuery", "QueryResult",
    "ReductionConfig", "TraversalCounters", "aggregate_recall", "batch_query",
    "brute_force_knn", "build_index", "build_point_bvh", "containment_scan", "distances",
    "ground_truth", "in_lp_ball", "inclusion_radius", "knn_search", "pipeline_metric_for",
    "read_records", "recall", "run_experiment", "run_query", "scene_half_width", "sweep",
    "synthetic_points", "transform_chain_for", "transform_points", "traverse_point",
    "traverse_points", "weights",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 33
    assert sorted(bvhknn.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(bvhknn, name)] == []
