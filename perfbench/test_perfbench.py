"""Self-tests of the benchmark harness, on reduced instances of each workload.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from exactness import Check, NarrowedOracle, workload_radius
from hostspeed import HostClock
from workloads import K, WORKLOADS, make_records

from bvhknn import MetricSpec, brute_force_knn, pipeline_metric_for, transform_chain_for, transform_points

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def reduced(w):
    """The same workload at a size a unit test can afford."""
    if w.sweep_n == w.n:
        return dataclasses.replace(w, n=1500, q=100, sweep_n=1500, sweep_q=100)
    return dataclasses.replace(w, n=1500, q=100, sweep_n=800, sweep_q=40)


def pipeline_inputs(w, seed):
    metric = MetricSpec.parse(w.metric)
    chain = [] if metric.is_native else transform_chain_for(metric)
    pmetric = metric if metric.is_native else pipeline_metric_for(metric)
    xyz = make_records(w, seed)[:, :3].astype(np.float64)
    mapped = transform_points(chain, xyz)
    return mapped[: w.n], mapped[w.n:], pmetric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = reduced(WORKLOADS[name])
    a, b, c = make_records(w, 7), make_records(w, 7), make_records(w, 8)
    assert a.shape == (w.n + w.q, 4) and a.dtype == np.dtype("<f4")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_narrowed_oracle_equals_full_oracle(name):
    w = reduced(WORKLOADS[name])
    data, queries, pmetric = pipeline_inputs(w, 5)
    oracle = NarrowedOracle(data, pmetric, K)
    truth = oracle.rows(queries)
    assert truth == [brute_force_knn(data, q, pmetric, K) for q in queries]
    radius = workload_radius(truth, w.radius_rule)
    for r in (radius, 0.5 * radius):
        full = [brute_force_knn(data, q, pmetric, K, radius=r) for q in queries]
        assert oracle.rows(queries, r) == full


def test_corrupted_results_are_counted():
    w = reduced(WORKLOADS["uniform-l2"])
    data, queries, pmetric = pipeline_inputs(w, 5)
    oracle = NarrowedOracle(data, pmetric, K)
    radius = workload_radius(oracle.rows(queries), "p99")
    expected = oracle.rows(queries, radius)
    got = [[i for i, _ in row] for row in expected]
    got[0][0], got[0][1] = got[0][1], got[0][0]  # wrong order
    got[1] = got[1][:-1] + [len(data) - 1 if got[1][-1] != len(data) - 1 else 0]  # wrong id
    check = Check()
    check.against_oracle(got, expected, oracle, queries, radius, differ={2})
    assert (check.attempted, check.failed, check.unexplained) == (len(queries), 3, 3)


def test_dropped_boundary_neighbor_is_a_boundary_flip():
    w = reduced(WORKLOADS["uniform-l2"])
    data, queries, pmetric = pipeline_inputs(w, 5)
    oracle = NarrowedOracle(data, pmetric, K)
    truth = oracle.rows(queries)
    radius = truth[3][-1][1]  # query 3's k-th neighbor sits exactly on the radius
    expected = oracle.rows(queries[3:4], radius)
    got = [[i for i, _ in expected[0]][:-1]]
    check = Check()
    check.against_oracle(got, expected, oracle, queries[3:4], radius)
    assert (check.failed, check.boundary, check.unexplained) == (1, 1, 0)


def test_host_clock_scales_a_segment_by_the_routine_runs_around_it():
    clock = HostClock()
    factors = iter([2.0, 4.0, 1.0])
    clock.scale = lambda: next(factors)
    out, dt, ds = clock.time(lambda x: x + 1, 6)
    assert out == 7 and ds == pytest.approx(dt * 3.0)
    _, dt, ds = clock.time(lambda: None)  # the run after the first segment is the run before this one
    assert ds == pytest.approx(dt * 2.5)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    result, info = run.run(reduced(WORKLOADS[name]), 3, 0.05, bool(trace), tmp_path)
    run.emit(name, result, info)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in last["metrics"].items()}
    for m in spec:
        value = last["metrics"][m["name"]]["value"]
        assert any(line.startswith(f"{name} {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
        assert np.isfinite(value)
    assert any(line.startswith(f"{name} mismatch_frac = ") for line in lines)
    assert not list(tmp_path.glob("*.bin"))


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep-lp3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
