"""Experiment drivers: timed runs, recall reporting, and parameter sweeps.

A run builds the index from scratch `repeats` times and queries the whole
query set each time, averaging wall-clock build and search times.  A
sweep searches all its values on each of those builds, made for its
widest boxes, as an index serves any radius up to its own.  The id
and distance arrays must be identical across repeats (anything else is
an internal error), and the reports are read from those arrays, with no
per-query result object built.  Recall is measured against the unbounded
exact oracle, computed once per run and cached, so a small radius
legitimately caps recall below one.  Reports are plain dicts ready for
JSON; every nondeterministic value (the timings) lives under the single
"timings" key.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import checked_count, checked_real
from .metrics import pipeline_metric_for, to_source_units, transform_chain_for, transform_points
from .oracle import GroundTruth, ground_truth
from .pipeline import BatchResult, ReductionConfig, batch_query, build_index, scene_half_width

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
        "repeats": repeats,
    }


def run_experiment(dataset: Dataset, config: ReductionConfig, repeats: int = 1,
                   truth: GroundTruth | None = None) -> dict:
    """Build, query, and score one configuration; returns the report dict."""
    return _run_shared_build([(dataset, config, truth)], repeats)[0]


def _run_shared_build(variants, repeats: int) -> list[dict]:
    """One report per (dataset, config, truth) variant, all searched on one build per repeat.

    The variants share the data and metric, and may differ in
    queries, radius, k and truth.  The index is built once per repeat for
    the widest scene boxes, which serve every variant, and every variant's
    "build_ms" lists those shared builds.  A missing truth is computed
    with the unbounded oracle.
    """
    repeats = checked_count(repeats, "repeats")
    if any(len(ds.queries) == 0 for ds, _, _ in variants):
        raise ValueError("an experiment needs at least one query")
    dataset, config, _ = variants[0]
    source = config.metric
    chain = transform_chain_for(source)
    data3 = transform_points(chain, dataset.data, label="data")
    searches = []
    for ds, cfg, truth in variants:
        queries3 = transform_points(chain, ds.queries, label="query")
        if truth is None:
            truth = ground_truth(ds.data, ds.queries, cfg.metric, cfg.k)
        if (truth.metric, truth.k) != (cfg.metric.canonical(), cfg.k):
            raise ValueError(f"truth is for metric {truth.metric} and k {truth.k}, "
                             f"but the config searches metric {cfg.metric.canonical()} and k {cfg.k}")
        if len(truth.rows) != len(queries3):
            raise ValueError(f"truth has {len(truth.rows)} rows for {len(queries3)} queries")
        searches.append((replace(cfg, metric=pipeline_metric_for(source)), queries3, truth))

    widest = max((pcfg for pcfg, _, _ in searches), key=scene_half_width)
    build_ms: list[float] = []
    search_ms: list[list[float]] = [[] for _ in variants]
    results: list[BatchResult | None] = [None for _ in variants]
    for _ in range(repeats):
        t0 = time.perf_counter()
        bvh = build_index(data3, widest)
        build_ms.append((time.perf_counter() - t0) * 1e3)
        for i, (pcfg, queries3, _) in enumerate(searches):
            t1 = time.perf_counter()
            run = batch_query(bvh, data3, queries3, pcfg)
            search_ms[i].append((time.perf_counter() - t1) * 1e3)
            run = to_source_units(source, run)
            if results[i] is not None and not (np.array_equal(results[i].ids, run.ids)
                                               and np.array_equal(results[i].distances, run.distances)):
                raise RuntimeError("result lists differ across repeats of the same run")
            results[i] = run
    # Each distinct truth's rows as id sets, made once: the reports of a radius sweep share one truth.
    truth_ids: dict[int, list[set[int]]] = {}
    for _, _, truth in searches:
        if id(truth) not in truth_ids:
            truth_ids[id(truth)] = [{int(i) for i, _ in row} for row in truth.rows]
    return [_report(ds, cfg, repeats, truth_ids[id(truth)], res, build_ms, ms)
            for (ds, cfg, _), (_, _, truth), res, ms in zip(variants, searches, results, search_ms)]


def _report(dataset: Dataset, config: ReductionConfig, repeats: int, truth_ids: list[set[int]],
            results: BatchResult, build_ms: list[float], search_ms: list[float]) -> dict:
    ids, dists = results.ids.tolist(), results.distances.tolist()
    candidates, hits, tested = results.candidates.tolist(), results.hits.tolist(), results.nodes_tested.tolist()
    filled = results.filled.tolist()
    # oracle.recall(res, row) for every query whose truth row is not empty
    per_query_recall = [
        len(truth.intersection(row[:f])) / len(truth) if truth else None
        for truth, row, f in zip(truth_ids, ids, filled)
    ]
    scored = [v for v in per_query_recall if v is not None]
    mean_recall = math.fsum(scored) / len(scored) if scored else None  # equals aggregate_recall(results, truth)

    n_queries = len(results)
    return {
        "schema": REPORT_SCHEMA,
        "config": _config_echo(config, repeats),
        "dataset": dataset.described(),
        "recall": {
            "mean": mean_recall,
            "per_query": per_query_recall,
            "skipped_empty_truth": n_queries - len(scored),
        },
        "counts": {
            "mean_candidates": int(results.candidates.sum()) / n_queries,
            "mean_hits": int(results.hits.sum()) / n_queries,
            "node_visits_total": int(results.nodes_tested.sum()),
        },
        "results": [
            {
                "neighbors": [[i, d] for i, d in zip(row_ids[:f], row_dists[:f])],
                "candidates": c,
                "hits": h,
                "node_visits": t,
            }
            for row_ids, row_dists, f, c, h, t in zip(ids, dists, filled, candidates, hits, tested)
        ],
        "timings": {
            "build_ms": list(build_ms),
            "search_ms": search_ms,
            "build_ms_mean": sum(build_ms) / repeats,
            "search_ms_mean": sum(search_ms) / repeats,
        },
    }


def sweep(dataset: Dataset, config: ReductionConfig, axis: str, values,
          repeats: int = 1) -> list[dict]:
    """One report per value along a sweep axis (radius, k, or query count).

    The dataset slice and any seed in its meta stay fixed across the sweep;
    ground truth is computed once and reused.  On every axis the index is
    built once per repeat, for the widest scene boxes of the sweep (its
    largest radius), and every value is searched on that build, so every
    report's "build_ms" lists the same shared builds.  The values are real
    numbers in increasing order, whole on the k and queries axes (4.0 is 4).
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = [checked_real(v, axis) for v in values]
    if not values:
        raise ValueError("sweep needs at least one value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"sweep values must be strictly increasing, got {values}")

    if axis != "radius" and any(int(v) != v or v < 1 for v in values):
        raise ValueError(f"values along the {axis} axis must be positive integers, got {values}")
    if axis == "queries" and values[-1] > len(dataset.queries):
        raise ValueError(f"query count {values[-1]} exceeds the {len(dataset.queries)} available queries")

    truth = ground_truth(dataset.data, dataset.queries, config.metric, int(values[-1]) if axis == "k" else config.k)
    if axis == "radius":
        variants = [(dataset, replace(config, r=v), truth) for v in values]
    elif axis == "k":
        variants = [(dataset, replace(config, k=int(v)),
                     GroundTruth(truth.metric, int(v), [row[: int(v)] for row in truth.rows]))
                    for v in values]
    else:
        variants = [(Dataset(dataset.data, dataset.queries[: int(v)], dict(dataset.meta)), config,
                     GroundTruth(truth.metric, config.k, truth.rows[: int(v)]))
                    for v in values]
    reports = _run_shared_build(variants, repeats)
    for report, v in zip(reports, values):
        report["sweep"] = {"axis": axis, "value": v if axis == "radius" else int(v)}
    return reports
