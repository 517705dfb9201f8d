"""The public surface: every exported name, so that growing or cutting it is a deliberate edit here."""

import ast
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


def test_the_library_needs_no_scipy(request):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the run's own -W filters, so a warning that fails the suite fails the script too
    flags = [f"-W{f}" for f in request.config.getoption("pythonwarnings") or []]
    proc = subprocess.run([sys.executable, *flags, "-c", NO_SCIPY, str(ROOT / "src")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _sibling_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name the module at `path` imports from another module of the package."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .metrics import x
                pairs += [(node.module, alias.name) for alias in node.names]
            elif node.level == 1:  # from . import metrics
                pairs += [(alias.name, "") for alias in node.names]
            elif (node.module or "").startswith("bvhknn."):
                pairs += [(node.module.split(".")[1], alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(alias.name.split(".")[1], "") for alias in node.names if alias.name.startswith("bvhknn.")]
    return pairs


def test_import_layering():
    # Each module uses only the public names of its siblings, and the
    # reference oracle and the dataset reader use none of the search code
    # that the oracle checks.
    modules = sorted((ROOT / "src" / "bvhknn").glob("*.py"))
    assert {path.stem for path in modules} >= {"metrics", "geometry", "oracle", "datasets", "pipeline", "bvh"}
    private = [(path.name, module, name) for path in modules
               for module, name in _sibling_imports(path) if name.startswith("_")]
    assert private == []
    for stem in ("oracle", "datasets"):
        imported = {module for module, _ in _sibling_imports(ROOT / "src" / "bvhknn" / f"{stem}.py")}
        assert imported <= {"metrics", "geometry"}, (stem, imported)
