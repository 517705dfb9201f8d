"""The public surface: every exported name, so that growing or cutting it is a deliberate edit here."""

import os
import subprocess
import sys
from pathlib import Path

import bvhknn

ROOT = Path(__file__).resolve().parent.parent

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


# A fresh interpreter: the library, its oracle and its CLI import no scipy,
# which is a yardstick of the benchmark harness and no runtime dependency.
NO_SCIPY = """
import sys
import numpy as np
import bvhknn
from bvhknn import MetricSpec, ground_truth, knn_search
from bvhknn.cli import main
assert bvhknn.__file__.startswith(sys.argv[1]), bvhknn.__file__
pts = np.random.default_rng(0).random((200, 3))
knn_search(pts, pts[:5] + 0.01, MetricSpec.lp(2), 0.3, 5)
ground_truth(pts, pts[:5] + 0.01, MetricSpec.cosine(), 5)
assert main(["oracle", "--n", "200", "--queries", "5", "--metric", "lp:3", "--k", "3"]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_the_library_needs_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(ROOT / "src")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
