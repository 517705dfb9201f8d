"""bvhknn benchmark: one workload per process, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-l2 --seed 1 --seconds 5 --trace 0

The harness drives the library from outside, through its public functions
only.  Inputs come from the seed and are written as a `bin-f32x4` file
before timing.  One run then measures, with one thread:

* set-up, three times (median): `read_records`, `transform_points` (the
  identity chain for native metrics), `build_index`;
* then rounds, for `--seconds` and at least MIN_ROUNDS times, each of:
  `batch_query` over the whole query set in chunks of the workload's size;
  `run_query` over every query in a closed loop, one caller, after
  warm-up; one `experiments.sweep` along the radius axis over a slice of
  the data.

Every timed segment (a set-up, a chunk, a sweep) is scaled by the host
clock of hostspeed.py, which runs just before and after it, so that the
figures do not follow the shared host's drift.  Each chunk, query and
sweep counts with its median over the rounds.  The unscaled figures are
printed on the `info` line under "raw".

Data generation, radius computation and the oracle check stay outside the
timed regions.  Every answer is compared with `brute_force_knn` at the
workload radius (see exactness.py).  With `--trace 1` the same calls are
wrapped in spans and the per-layer metrics are reported instead; the spans
are written to perfbench/out/trace-<workload>.jsonl.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import bvhknn  # noqa: E402
from bvhknn import (  # noqa: E402
    Dataset,
    MetricSpec,
    Point3,
    PointQuery,
    ReductionConfig,
    TraversalCounters,
    aggregate_recall,
    batch_query,
    brute_force_knn,
    build_index,
    pipeline_metric_for,
    read_records,
    run_query,
    transform_chain_for,
    transform_points,
    traverse_point,
)
from bvhknn import experiments  # noqa: E402

from exactness import Check, NarrowedOracle, workload_radius  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import K, SWEEP_MULTIPLIERS, WORKLOADS, Workload, make_records  # noqa: E402

if Path(bvhknn.__file__).resolve().parent != SRC / "bvhknn":
    raise ImportError(f"bvhknn was imported from {bvhknn.__file__}, not from {SRC}")

FORMAT = "bin-f32x4"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
WARMUP_QUERIES = 20
YARDSTICK_SAMPLE = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_qps": "queries/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "sweep_s": "s",
    "peak_rss_mb": "MiB",
    "recall_mean": "fraction",
}
PER_LAYER_UNITS = {
    "datasets.read_s": "s",
    "pipeline.transform_s": "s",
    "bvh.build_s": "s",
    "bvh.nodes": "count",
    "bvh.max_depth": "count",
    "bvh.traverse_us_mean": "us",
    "bvh.nodes_tested_per_query": "count",
    "bvh.hits_per_query": "count",
    "bvh.hits_per_query_p99": "count",
    "pipeline.filter_refine_us_mean": "us",
    "pipeline.candidates_per_hit": "fraction",
    "pipeline.neighbors_per_candidate": "fraction",
    "oracle.ground_truth_s": "s",
    "oracle.ms_per_query": "ms",
    "experiments.build_s_total": "s",
    "experiments.search_s_total": "s",
    "experiments.self_s": "s",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Inputs:
    """Everything prepared before timing starts."""

    source: np.ndarray  # every record widened to float64, (n + q, 3)
    data: np.ndarray  # first n records in pipeline space
    queries: np.ndarray  # next q records in pipeline space
    oracle: NarrowedOracle
    truth: list  # unbounded oracle rows, for recall and the radius
    radius: float
    expected: list  # oracle rows at the radius


def prepare(w: Workload, path: Path, chain, pmetric: MetricSpec) -> Inputs:
    source = read_records(str(path), FORMAT)
    mapped = transform_points(chain, source, label="record")
    data, queries = mapped[: w.n], mapped[w.n:]
    oracle = NarrowedOracle(data, pmetric, K)
    truth = oracle.rows(queries)
    radius = workload_radius(truth, w.radius_rule)
    return Inputs(source, data, queries, oracle, truth, radius, oracle.rows(queries, radius))


def set_up(path: Path, n: int, chain, config: ReductionConfig, tracer: Tracer):
    """From inputs in hand to a queryable index: read, transform, build."""
    with tracer.span("datasets.read"):
        records = read_records(str(path), FORMAT)
    with tracer.span("pipeline.transform"):
        mapped = transform_points(chain, records, label="record")
    data = mapped[:n]
    with tracer.span("bvh.build"):
        index = build_index(data, config)
    return index, data


@dataclass
class SweepCase:
    """One experiments.sweep along the radius axis over the workload's slice."""

    dataset: Dataset
    config: ReductionConfig
    radii: list
    queries: np.ndarray  # the slice's queries in pipeline space
    oracle: NarrowedOracle


def sweep_case(w: Workload, metric: MetricSpec, pmetric: MetricSpec, inputs: Inputs) -> SweepCase:
    queries = inputs.queries[: w.sweep_q]
    oracle = NarrowedOracle(inputs.data[: w.sweep_n], pmetric, K)
    radii = [m * workload_radius(oracle.rows(queries), w.sweep_rule) for m in SWEEP_MULTIPLIERS]
    dataset = Dataset(inputs.source[: w.sweep_n], inputs.source[w.n: w.n + w.sweep_q], {"workload": w.name})
    config = ReductionConfig(metric, radii[-1], K, enhanced=w.enhanced)
    return SweepCase(dataset, config, radii, queries, oracle)


def sweep_ids(reports) -> list:
    """Per radius, per query, the neighbor ids of a sweep's reports."""
    return [[[i for i, _ in res["neighbors"]] for res in rep["results"]] for rep in reports]


@dataclass
class Rounds:
    """What the measuring rounds saw.

    Times are kept raw and scaled by the host clock (see hostspeed.py):
    `chunk_s[c]` and `latency_s[j]` hold one (raw, scaled) pair per round
    for batch chunk c and for query j, `sweep_s` one pair per round.
    `batch` and `reports` are the first round's answers; `differ` holds
    the query positions whose answer changed between rounds or between
    batch_query and run_query, and `sweep_differ` the same per sweep radius.
    """

    chunk_s: list
    latency_s: list
    sweep_s: list
    sweep_timings: list  # per sweep, (build s, search s) from the reports
    batch: list
    reports: list
    differ: set
    sweep_differ: list
    nodes_tested: float = 0.0
    overhead: float = 0.0


def measure(index, data, queries, config, case: SweepCase, chunk: int, seconds: float,
            clock: HostClock, tracer: Tracer) -> Rounds:
    """Rounds of batch_query, run_query and experiments.sweep for `seconds`.

    Each round times every batch chunk of `chunk` queries, every query
    (with the host clock run around chunks of the same size) and one
    sweep.  Rounds run until `seconds` have passed, and at least
    MIN_ROUNDS times.
    """
    bounds = [(a, min(a + chunk, len(queries))) for a in range(0, len(queries), chunk)]
    chunk_s: list[list[tuple[float, float]]] = [[] for _ in bounds]
    latency_s: list[list[tuple[float, float]]] = [[] for _ in queries]
    sweep_s: list[tuple[float, float]] = []
    sweep_timings: list[tuple[float, float]] = []
    batch = reports = None
    differ: set[int] = set()
    sweep_differ: list[set[int]] = [set() for _ in case.radii]
    counters = TraversalCounters()
    untraced = traced = 0.0
    trace_id = 0

    def closed_loop(a, b):
        out = []
        for q in queries[a:b]:
            t0 = time.perf_counter()
            res = run_query(index, data, q, config)
            out.append((res, time.perf_counter() - t0))
        return out

    gc.collect()
    start = time.perf_counter()
    while len(sweep_s) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        results = []
        for c, (a, b) in enumerate(bounds):
            part, dt, ds = clock.time(batch_query, index, data, queries[a:b], config)
            results += part
            chunk_s[c].append((dt, ds))
        if batch is None:
            batch = results
        differ.update(j for j, (x, y) in enumerate(zip(batch, results)) if x.neighbors != y.neighbors)

        for a, b in bounds:
            if tracer.enabled:
                for j in range(a, b):
                    res, dt, ds = traced_query(index, data, queries[j], config, trace_id, tracer, counters)
                    untraced += dt
                    traced += ds
                    trace_id += 1
                    if res.neighbors != batch[j].neighbors:
                        differ.add(j)
                continue
            timed, dt, ds = clock.time(closed_loop, a, b)
            for j, (res, t) in enumerate(timed, start=a):
                latency_s[j].append((t, t * ds / dt))
                if res.neighbors != batch[j].neighbors:
                    differ.add(j)

        wrap = traced_ground_truth(tracer) if tracer.enabled else nullcontext()
        with wrap, tracer.span("experiments.sweep"):
            got, dt, ds = clock.time(experiments.sweep, case.dataset, case.config, "radius", case.radii)
        sweep_s.append((dt, ds))
        sweep_timings.append(tuple(sum(sum(rep["timings"][key]) for rep in got) / 1e3
                                   for key in ("build_ms", "search_ms")))
        if reports is None:
            reports = got
        for seen, first, now in zip(sweep_differ, sweep_ids(reports), sweep_ids(got)):
            seen.update(j for j, (x, y) in enumerate(zip(first, now)) if x != y)

    out = Rounds(chunk_s, latency_s, sweep_s, sweep_timings, batch, reports, differ, sweep_differ)
    if tracer.enabled:
        out.nodes_tested = counters.nodes_tested / trace_id
        out.overhead = traced / untraced - 1.0
    return out


def end_to_end(setup_s, rounds: Rounds, n_queries: int, which: int) -> dict:
    """The timed end-to-end figures from raw (which=0) or scaled (which=1) times.

    Each batch chunk, each query and the sweep count with their median
    over the rounds: throughput is the query count over the summed chunk
    medians, and p50 and p99 are taken over the per-query medians.
    """
    def med(pairs):
        return statistics.median(p[which] for p in pairs)

    lat_ms = np.array([med(x) for x in rounds.latency_s]) * 1e3
    return {
        "setup_s": med(setup_s),
        "query_qps": n_queries / sum(med(c) for c in rounds.chunk_s),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p99_ms": float(np.percentile(lat_ms, 99)),
        "sweep_s": med(rounds.sweep_s),
    }


def traced_query(index, data, q, config, trace_id: int, tracer: Tracer, counters: TraversalCounters):
    """run_query without and within a span, then a no-op traversal in a span.

    The two run_query calls take turns at going first, because the second
    finds warm caches.  Returns the spanned call's result and the untraced
    and traced run_query times (s).
    """
    for with_span in (trace_id % 2 == 0, trace_id % 2 == 1):
        t0 = time.perf_counter()
        if with_span:
            with tracer.span("pipeline.run_query", trace_id):
                res = run_query(index, data, q, config)
            ds = time.perf_counter() - t0
        else:
            run_query(index, data, q, config)
            dt = time.perf_counter() - t0
    with tracer.span("bvh.traverse", trace_id):
        traverse_point(index, PointQuery(Point3(*q)), _no_op, counters)
    return res, dt, ds


def _no_op(hit):
    return None


@contextmanager
def traced_ground_truth(tracer: Tracer):
    """Wrap the oracle's ground_truth, as the experiments module calls it, in a span."""
    original = experiments.ground_truth

    def ground_truth(*args, **kwargs):
        with tracer.span("oracle.ground_truth"):
            return original(*args, **kwargs)

    experiments.ground_truth = ground_truth
    try:
        yield
    finally:
        experiments.ground_truth = original


def yardsticks(inputs: Inputs, pmetric: MetricSpec) -> dict:
    """Reference numbers on the same inputs; informational, never gated."""
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tree = cKDTree(inputs.data)
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    tree.query(inputs.queries, k=K, p=inputs.oracle.minkowski_p)
    tree_s = time.perf_counter() - t0
    sample = inputs.queries[:YARDSTICK_SAMPLE]
    t0 = time.perf_counter()
    full = [brute_force_knn(inputs.data, q, pmetric, K, radius=inputs.radius) for q in sample]
    brute_s = time.perf_counter() - t0
    if full != inputs.expected[: len(sample)]:
        raise RuntimeError("the narrowed oracle disagrees with the full brute-force scan")
    return {
        "ckdtree_build_s": statistics.median(builds),
        "ckdtree_query_qps": len(inputs.queries) / tree_s,
        "brute_force_ms_per_query": brute_s / len(sample) * 1e3,
        "brute_force_sample": len(sample),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result object, informational numbers)."""
    metric = MetricSpec.parse(w.metric)
    if metric.is_native:
        chain, pmetric = [], metric
    else:
        chain, pmetric = transform_chain_for(metric), pipeline_metric_for(metric)
    tracer = Tracer(trace)
    check = Check()
    phase_s = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phase_s[name] = now - mark
        mark = now

    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{w.name}-{seed}.bin"
    make_records(w, seed).tofile(path)
    try:
        inputs = prepare(w, path, chain, pmetric)
        config = ReductionConfig(pmetric, inputs.radius, K, enhanced=w.enhanced)
        phase("prepare")
        clock = HostClock()
        setup_s = []
        for rep in range(SETUP_REPEATS):
            index = data = None  # free the previous index, so peak RSS holds one
            with tracer.span("setup", rep):
                (index, data), dt, ds = clock.time(set_up, path, w.n, chain, config, tracer)
            setup_s.append((dt, ds))
    finally:
        path.unlink()
    phase("setup")

    queries = inputs.queries
    for q in queries[:WARMUP_QUERIES]:
        run_query(index, data, q, config)
    case = sweep_case(w, metric, pmetric, inputs)
    phase("warmup")
    rounds = measure(index, data, queries, config, case, w.chunk, seconds, clock, tracer)
    phase("rounds")
    check.against_oracle([r.ids() for r in rounds.batch], inputs.expected, inputs.oracle, queries,
                         inputs.radius, rounds.differ)
    for radius, got, seen in zip(case.radii, sweep_ids(rounds.reports), rounds.sweep_differ):
        check.against_oracle(got, case.oracle.rows(case.queries, radius), case.oracle, case.queries,
                             radius, seen)
    phase("check")

    info = {
        "workload": w.name,
        "seed": seed,
        "n": w.n,
        "q": w.q,
        "radius": inputs.radius,
        "rounds": len(rounds.sweep_s),
        "mismatch_frac": check.failed / check.attempted,
        "boundary_flips": check.boundary,
        "unexplained_mismatches": check.unexplained,
    }
    if trace:
        metrics = per_layer_metrics(w, index, rounds, tracer)
        tracer.write(workdir / f"trace-{w.name}.jsonl")
    else:
        info["raw"] = end_to_end(setup_s, rounds, len(queries), 0)
        info["host_scale"] = statistics.median(clock.scales)
        info.update(yardsticks(inputs, pmetric))
        phase("yardsticks")
        metrics = end_to_end(setup_s, rounds, len(queries), 1)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["recall_mean"] = aggregate_recall(rounds.batch, inputs.truth)
    info["phase_s"] = phase_s
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": check.unexplained == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return result, info


def per_layer_metrics(w, index, rounds: Rounds, tracer: Tracer) -> dict:
    """Per-layer figures; sweep figures are means per sweep."""
    run_s = tracer.by_trace("pipeline.run_query")
    traverse_s = tracer.by_trace("bvh.traverse")
    hits = np.array([r.hit_count for r in rounds.batch])
    candidates = sum(r.candidate_count for r in rounds.batch)
    neighbors = sum(len(r.neighbors) for r in rounds.batch)
    sweeps = len(rounds.sweep_s)
    gt_s = sum(tracer.durations("oracle.ground_truth")) / sweeps
    build_s = statistics.fmean(b for b, _ in rounds.sweep_timings)
    search_s = statistics.fmean(s for _, s in rounds.sweep_timings)
    return {
        "datasets.read_s": statistics.median(tracer.durations("datasets.read")),
        "pipeline.transform_s": statistics.median(tracer.durations("pipeline.transform")),
        "bvh.build_s": statistics.median(tracer.durations("bvh.build")),
        "bvh.nodes": index.num_nodes,
        "bvh.max_depth": index.max_depth(),
        "bvh.traverse_us_mean": statistics.fmean(traverse_s.values()) * 1e6,
        "bvh.nodes_tested_per_query": rounds.nodes_tested,
        "bvh.hits_per_query": float(hits.mean()),
        "bvh.hits_per_query_p99": float(np.percentile(hits, 99)),
        "pipeline.filter_refine_us_mean": statistics.fmean(run_s[t] - traverse_s[t] for t in run_s) * 1e6,
        "pipeline.candidates_per_hit": candidates / hits.sum(),
        "pipeline.neighbors_per_candidate": neighbors / candidates,
        "oracle.ground_truth_s": gt_s,
        "oracle.ms_per_query": gt_s / w.sweep_q * 1e3,
        "experiments.build_s_total": build_s,
        "experiments.search_s_total": search_s,
        "experiments.self_s": tracer.self_time("experiments.sweep") / sweeps - build_s - search_s,
        "trace.overhead_frac": rounds.overhead,
    }


def emit(workload: str, result: dict, info: dict) -> None:
    """Print every metric by name and unit, then the result object as the last line."""
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} mismatch_frac = {info['mismatch_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} answers; "
          f"{info['boundary_flips']} radius-boundary flips, {info['unexplained_mismatches']} unexplained)")
    print("info " + json.dumps(info))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum duration of the closed-loop latency phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       BENCH_DIR / "out")
    emit(args.workload, result, info)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
