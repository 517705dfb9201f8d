"""Every demo script still runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(name, request):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the run's own -W filters, so a warning that fails the suite fails a demo too
    flags = [f"-W{f}" for f in request.config.getoption("pythonwarnings") or []]
    proc = subprocess.run([sys.executable, *flags, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
