"""Command-line driver emitting machine-readable JSON reports.

Subcommands: ``build-info`` (index structure stats), ``query`` (timed
search run with recall), ``sweep`` (series of runs along one axis), and
``oracle`` (brute-force ground truth).  Reports are deterministic for a
fixed seed except for the contents of the "timings" block.

Exit codes: 0 success, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from .datasets import FORMATS, read_records, synthetic_points
from .experiments import SWEEP_AXES, Dataset, run_experiment, sweep
from .metrics import (KIND_EUCLID2D, KIND_HAMMING3, MetricSpec, pipeline_metric_for, transform_chain_for,
                      transform_points)
from .oracle import ground_truth
from .pipeline import ReductionConfig, build_index

def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value list {text!r}") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", help="dataset file; omit to generate a seeded synthetic dataset")
    sub.add_argument("--format", choices=FORMATS, help="format of --data (default csv-xyz)")
    sub.add_argument("--n", type=int, required=True, help="number of data points")
    sub.add_argument("--metric", required=True,
                     help="lp:<p> | linf | cosine | angular | euclid2d | hamming3")
    sub.add_argument("--radius", type=float, help="search radius r in pipeline units, a chord for cosine and angular")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write JSON here instead of stdout")


def _inputs(metric: MetricSpec) -> tuple[tuple[str, ...], str, int]:
    """The dataset formats `metric` reads, and the kind and width of its synthetic records."""
    return {
        KIND_EUCLID2D: (("csv-2d",), "uniform", 2),
        KIND_HAMMING3: (("bits",), "bits", 3),
    }.get(metric.kind, (("csv-xyz", "bin-f32x4"), "uniform", 3))


def _head(records, m: int, path: str):
    """The first m records of a file, copied so that they do not hold the whole file."""
    if m > len(records):
        raise ValueError(f"insufficient records in {path}: need {m}, have {len(records)}")
    return records[:m].copy()


def _load(args, metric: MetricSpec) -> Dataset:
    """Assemble the dataset from files or from the seeded generator."""
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.queries is not None and args.queries < 0:
        raise ValueError(f"--queries must be >= 0, got {args.queries}")
    if args.query_file is not None and args.data is None:
        raise ValueError("--query-file needs --data: synthetic datasets generate their own queries")
    if args.format is not None and args.data is None:
        raise ValueError("--format needs --data: synthetic datasets take their records' shape from --metric")
    formats, kind, dim = _inputs(metric)
    if args.data is not None:
        format = args.format or "csv-xyz"
        if format not in formats:
            raise ValueError(f"metric {metric.canonical()} needs --format {' or '.join(formats)}")
        if args.query_file is None and args.queries is None:
            raise ValueError("--data needs either --queries or --query-file")
        records = read_records(args.data, format)
        if args.query_file is None:
            # one file: the first n records are the data, the next q the queries
            records = _head(records, args.n + args.queries, args.data)
            meta = {"source": args.data, "format": format, "seed": args.seed}
            return Dataset(records[: args.n], records[args.n :], meta)
        data = _head(records, args.n, args.data)
        queries = read_records(args.query_file, format)
        if args.queries is not None:
            queries = _head(queries, args.queries, args.query_file)
        meta = {"source": args.data, "query_source": args.query_file, "format": format,
                "seed": args.seed}
        return Dataset(data, queries, meta)

    # synthetic: uniform in [0,1)^d, or random cube vertices for hamming3
    if args.queries is None:
        raise ValueError("synthetic datasets need --queries")
    records = synthetic_points(args.n + args.queries, args.seed, dim, kind)
    meta = {"source": "synthetic", "kind": kind, "format": None, "seed": args.seed}
    return Dataset(records[: args.n], records[args.n :], meta)


def _config(args) -> ReductionConfig:
    metric = MetricSpec.parse(args.metric)
    if args.radius is None:
        raise ValueError("--radius is required for this command")
    return ReductionConfig(metric, args.radius, args.k, args.enhanced)


def _emit(obj, out_path) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build_info(args) -> dict:
    config = _config(args)
    dataset = _load(args, config.metric)
    pcfg = replace(config, metric=pipeline_metric_for(config.metric))
    data3 = transform_points(transform_chain_for(config.metric), dataset.data, label="data")
    t0 = time.perf_counter()
    bvh = build_index(data3, pcfg)
    build_ms = (time.perf_counter() - t0) * 1e3
    return {
        "schema": "bvhknn.build-info/1",
        "config": {"metric": config.metric.canonical(), "radius": config.r, "enhanced": config.enhanced},
        "dataset": dataset.described(),
        "index": {
            "num_primitives": bvh.num_primitives,
            "num_nodes": bvh.num_nodes,
            "max_depth": bvh.max_depth(),
            "leaf_size": bvh.leaf_size,
            "box_half_width": bvh.half_width,
            **bvh.tree_stats(),
        },
        "timings": {"build_ms": build_ms},
    }


def _cmd_query(args) -> dict:
    config = _config(args)
    dataset = _load(args, config.metric)
    return run_experiment(dataset, config, repeats=args.repeats)


def _cmd_sweep(args) -> list[dict]:
    config = _config(args)
    dataset = _load(args, config.metric)
    return sweep(dataset, config, args.axis, args.values, repeats=args.repeats)


def _cmd_oracle(args) -> dict:
    metric = MetricSpec.parse(args.metric)
    dataset = _load(args, metric)
    truth = ground_truth(dataset.data, dataset.queries, metric, args.k, radius=args.radius)
    out = {"schema": "bvhknn.ground-truth/1", "dataset": dataset.described()}
    out.update(truth.to_dict())
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bvhknn",
                                     description="generalized k-NN search benchmark driver")
    subs = parser.add_subparsers(dest="command", required=True)
    info = subs.add_parser("build-info", help="build the index and report its structure")
    query = subs.add_parser("query", help="run a timed search and report recall")
    series = subs.add_parser("sweep", help="run a series of searches along one axis")
    oracle = subs.add_parser("oracle", help="brute-force ground truth (radius optional)")
    for p, fn in ((info, _cmd_build_info), (query, _cmd_query), (series, _cmd_sweep), (oracle, _cmd_oracle)):
        _add_common(p)
        p.set_defaults(fn=fn)
    # each subcommand takes only the flags it reads, so an ignored flag is an error
    for p in (query, series, oracle):
        p.add_argument("--queries", type=int, help="number of query points")
        p.add_argument("--query-file", help="read queries from a separate file (same format)")
        p.add_argument("--k", type=int, default=10)
    # the index depends on the data, the metric, the radius and the scene, never on the queries or k
    info.set_defaults(queries=0, query_file=None, k=1)
    for p in (info, query, series):
        p.add_argument("--enhanced", type=_parse_bool, default=False, metavar="BOOL")
    for p in (query, series):
        p.add_argument("--repeats", type=int, default=1)
    series.add_argument("--axis", choices=SWEEP_AXES, required=True)
    series.add_argument("--values", type=_parse_values, required=True,
                        help="comma-separated, strictly increasing")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        _emit(report, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
