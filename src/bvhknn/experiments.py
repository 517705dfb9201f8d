"""Experiment drivers: timed runs, recall reporting, and parameter sweeps.

A run builds the index from scratch `repeats` times and queries the whole
query set each time, averaging wall-clock build and search times.  Result
lists must be identical across repeats (anything else is an internal
error).  Recall is measured against the unbounded exact oracle, computed
once per run and cached, so a small radius legitimately caps recall below
one.  Reports are plain dicts ready for JSON; every nondeterministic value
(the timings) lives under the single "timings" key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .oracle import GroundTruth, aggregate_recall, ground_truth, recall
from .pipeline import (
    QueryResult,
    ReductionConfig,
    batch_query,
    build_index,
    pipeline_metric_for,
    transform_chain_for,
    transform_points,
    to_source_units,
)

REPORT_SCHEMA = "bvhknn.report/1"
SWEEP_AXES = ("radius", "k", "queries")


@dataclass
class Dataset:
    """Data and query points in source form, plus provenance for the report."""

    data: object
    queries: object
    meta: dict = field(default_factory=dict)

    def described(self) -> dict:
        out = dict(self.meta)
        out["n"] = len(self.data)
        out["q"] = len(self.queries)
        return out


def _config_echo(config: ReductionConfig, repeats: int) -> dict:
    return {
        "metric": config.metric.canonical(),
        "radius": config.r,
        "k": config.k,
        "enhanced": config.enhanced,
        "leaf_size": config.leaf_size,
        "repeats": repeats,
    }


def _results_equal(a: list[QueryResult], b: list[QueryResult]) -> bool:
    return all(x.neighbors == y.neighbors for x, y in zip(a, b))


def run_experiment(dataset: Dataset, config: ReductionConfig, repeats: int = 1,
                   truth: GroundTruth | None = None) -> dict:
    """Build, query, and score one configuration; returns the report dict."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if len(dataset.queries) == 0:
        raise ValueError("an experiment needs at least one query")
    source = config.metric
    chain = transform_chain_for(source)
    pcfg = replace(config, metric=pipeline_metric_for(source))
    data3 = transform_points(chain, dataset.data, label="data")
    queries3 = transform_points(chain, dataset.queries, label="query")

    if truth is None:
        truth = ground_truth(dataset.data, dataset.queries, config.metric, config.k)
    if len(truth.rows) != len(queries3):
        raise ValueError(f"truth has {len(truth.rows)} rows for {len(queries3)} queries")

    build_ms: list[float] = []
    search_ms: list[float] = []
    results: list[QueryResult] | None = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        bvh = build_index(data3, pcfg)
        t1 = time.perf_counter()
        run = batch_query(bvh, data3, queries3, pcfg)
        t2 = time.perf_counter()
        run = [to_source_units(source, res) for res in run]
        build_ms.append((t1 - t0) * 1e3)
        search_ms.append((t2 - t1) * 1e3)
        if results is not None and not _results_equal(results, run):
            raise RuntimeError("result lists differ across repeats of the same run")
        results = run

    per_query_recall = [
        recall(res, row) if row else None for res, row in zip(results, truth.rows)
    ]
    scored = [v for v in per_query_recall if v is not None]
    mean_recall = aggregate_recall(results, truth) if scored else None

    n_queries = len(results)
    report = {
        "schema": REPORT_SCHEMA,
        "config": _config_echo(config, repeats),
        "dataset": dataset.described(),
        "recall": {
            "mean": mean_recall,
            "per_query": per_query_recall,
            "skipped_empty_truth": n_queries - len(scored),
        },
        "counts": {
            "mean_candidates": sum(r.candidate_count for r in results) / n_queries,
            "mean_hits": sum(r.hit_count for r in results) / n_queries,
            "node_visits_total": sum(r.node_visits for r in results),
        },
        "results": [
            {
                "neighbors": [[i, d] for i, d in r.neighbors],
                "candidates": r.candidate_count,
                "hits": r.hit_count,
                "node_visits": r.node_visits,
            }
            for r in results
        ],
        "timings": {
            "build_ms": build_ms,
            "search_ms": search_ms,
            "build_ms_mean": sum(build_ms) / repeats,
            "search_ms_mean": sum(search_ms) / repeats,
        },
    }
    return report


def sweep(dataset: Dataset, config: ReductionConfig, axis: str, values,
          repeats: int = 1) -> list[dict]:
    """One report per value along a sweep axis (radius, k, or query count).

    The dataset slice and any seed in its meta stay fixed across the sweep;
    ground truth is computed once and reused where the axis allows it.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"sweep values must be strictly increasing, got {values}")

    if axis == "k":
        if any(int(v) != v or v < 1 for v in values):
            raise ValueError(f"k values must be positive integers, got {values}")
        base_truth = ground_truth(dataset.data, dataset.queries, config.metric, int(values[-1]))
    elif axis == "queries":
        if any(int(v) != v or v < 1 for v in values):
            raise ValueError(f"query counts must be positive integers, got {values}")
        if values[-1] > len(dataset.queries):
            raise ValueError(
                f"query count {values[-1]} exceeds the {len(dataset.queries)} available queries"
            )
        base_truth = ground_truth(dataset.data, dataset.queries, config.metric, config.k)
    else:
        base_truth = ground_truth(dataset.data, dataset.queries, config.metric, config.k)

    reports = []
    for v in values:
        if axis == "radius":
            cfg = replace(config, r=float(v))
            ds = dataset
            truth = base_truth
        elif axis == "k":
            cfg = replace(config, k=int(v))
            ds = dataset
            truth = GroundTruth(base_truth.metric, int(v), [row[: int(v)] for row in base_truth.rows])
        else:
            cfg = config
            ds = Dataset(dataset.data, dataset.queries[: int(v)], dict(dataset.meta))
            truth = GroundTruth(base_truth.metric, config.k, base_truth.rows[: int(v)])
        report = run_experiment(ds, cfg, repeats, truth=truth)
        report["sweep"] = {"axis": axis, "value": v}
        reports.append(report)
    return reports
