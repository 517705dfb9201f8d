"""Record a benchmark result file: ten seeds per workload plus one traced run.

Run from the repository root:

    python3 perfbench/baseline.py --label baseline --seconds 10

Each run is its own `perfbench/run.py` process, one after another.  The
file goes to perfbench/results/BENCH_<label>.json and holds, per workload,
the median, quartiles and IQR share of every end-to-end metric over the
--trace 0 runs, every run with its info line, and the --trace 1 run.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(301, 311))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {"seed": seed, "wall_s": round(wall, 1), "result": json.loads(lines[-1]), "info": info}


def spread(runs: list) -> dict:
    out = {}
    for name, m in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--machine", default=f"{platform.machine()}; Python {platform.python_version()}")
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    doc = {
        "label": args.label,
        "library_commit": commit.stdout.strip() or None,
        "machine": args.machine,
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> --seconds {args.seconds} "
                   "--trace <0|1>",
        "seeds": SEEDS,
        "note": "end_to_end holds the median and quartiles of the --trace 0 runs; traced holds one "
                f"--trace 1 run (seed {SEEDS[0]}). Every run is kept with its info line.",
        "workloads": {},
    }
    for name in args.workloads:
        runs = []
        for seed in SEEDS:
            runs.append(one_run(name, seed, args.seconds, 0))
            print(name, seed, runs[-1]["wall_s"], json.dumps(runs[-1]["result"]), flush=True)
        traced = one_run(name, SEEDS[0], args.seconds, 1)
        doc["workloads"][name] = {"end_to_end": spread(runs), "runs": runs, "traced": [traced]}
        for metric, s in doc["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} {s['unit']}, IQR share {s['iqr_share']:.3f}",
                  flush=True)
    out = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
