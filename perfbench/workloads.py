"""Seeded inputs for the bvhknn benchmark workloads.

Every workload is a flat array of float32 (x, y, z, intensity) records:
the first `n` are data points and the next `q` are held-out queries drawn
from the same distribution.  The runner writes them as a `bin-f32x4` file
before timing, so every workload is ingested through `datasets`.  The same
seed always gives the same records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

K = 10
SWEEP_MULTIPLIERS = (0.25, 0.5, 0.75, 1.0)
# Uniform queries are drawn from the inner cube [INNER, 1 - INNER)^3.  A
# query near a face, edge or corner of the unit cube has its k-th neighbor
# up to twice as far away as one inside, so with queries anywhere the
# radius rules below pick such a query, whose distance swings from seed to
# seed; query cost grows with the cube of the radius.
INNER = 0.1


@dataclass(frozen=True)
class Workload:
    """One benchmark input: generator, sizes, metric and radius rules.

    `metric` is a canonical metric string (`lp:2`, `cosine`, ...).  The
    query radius is `radius_rule` ("p99" or "median", see
    exactness.workload_radius) over the oracle's own per-query
    k-th-neighbor distances, unpadded.  The sweep phase runs
    `experiments.sweep` over the first `sweep_n` data points and `sweep_q`
    queries, at SWEEP_MULTIPLIERS times `sweep_rule` over that slice.
    """

    name: str
    generator: str
    n: int
    q: int
    metric: str
    enhanced: bool
    radius_rule: str
    sweep_rule: str
    sweep_n: int
    sweep_q: int
    chunk: int


# Why each workload is here (BENCHMARK.json carries the one-line form):
# * uniform-l2: the paper's headline setting; traversal and the heap do most
#   of the work, so batched traversal shows in query_qps and a build change
#   only in setup_s.
# * clustered-l1: skewed density; half the queries end with fewer than k
#   neighbors (recall < 1), dense-cluster queries take thousands of hits and
#   the sphere and ball pre-filters discard most of them, so p99 >> p50.
# * ingest-cosine-200k: set-up dominates and memory peaks; the only workload
#   with the cosine transform, and its points lie on a 2-D manifold.
# * sweep-lp3: the paper's evaluation path, where oracle ground truth and
#   small rebuilds dominate; lp:3 is the only general-p (pow) kernel.
# "p99" rather than the largest k-th distance: the largest is an extreme
# value, and over 20 seeds its cube (its square on the sphere) spread by
# 9-11% (IQR share) against 3-4% for the 99th percentile.  The query at
# that percentile still has its k-th neighbor exactly on the radius.
# The sweep slice is repeated once per measuring round, so it is small
# where the sweep is not the point of the workload, and there its radii
# come from the median k-th distance, which barely moves between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform-l2", "uniform", 100_000, 2_000, "lp:2", True, "p99", "median", 5_000, 200, 1_000),
        Workload("clustered-l1", "clustered", 100_000, 1_000, "lp:1", False, "median", "median", 5_000, 200, 125),
        Workload("ingest-cosine-200k", "normal", 200_000, 1_000, "cosine", False, "p99", "median", 5_000, 200, 1_000),
        Workload("sweep-lp3", "uniform", 20_000, 2_000, "lp:3", False, "median", "p99", 10_000, 500, 1_000),
    )
}


def _cluster_profile() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers, weights and widths of the 64 clusters; the same for every seed.

    A random profile made cost swing several-fold between seeds, because
    the densest cluster sets p99.  So the profile is fixed and the seed
    moves only the points.  Centers are the cells of a 4x4x4 grid.
    Weights are a stratified Dirichlet(0.5) draw: Gamma(0.5) quantiles at
    (i + 0.5) / 64, normalised, heaviest first.  Widths are log-spaced over
    [0.005, 0.05], dealt by a stride-27 permutation, so the heaviest
    cluster is also the narrowest and the others mix weight and width.
    """
    cells = (np.arange(4) + 0.5) / 4
    centers = np.stack(np.meshgrid(cells, cells, cells, indexing="ij"), axis=-1).reshape(-1, 3)
    g = gammaincinv(0.5, (np.arange(64) + 0.5) / 64)[::-1]
    sigma = np.geomspace(0.005, 0.05, 64)[(np.arange(64) * 27) % 64]
    return centers, g / g.sum(), sigma


def _stratified_counts(weights: np.ndarray, m: int) -> np.ndarray:
    """Split m points over clusters in proportion to weight (largest remainder)."""
    exact = weights * m
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact, kind="stable")[: m - counts.sum()]] += 1
    return counts


def _clustered(rng: np.random.Generator, w: Workload) -> np.ndarray:
    """Gaussian clusters clipped to the unit cube; data and queries stratified alike.

    The sweep slice (the first `sweep_n` points and `sweep_q` queries) is
    stratified on its own, so that it too holds each cluster's share.
    """
    centers, weights, sigma = _cluster_profile()
    parts = []
    for m, head in ((w.n, w.sweep_n), (w.q, w.sweep_q)):
        label = np.concatenate([rng.permutation(np.repeat(np.arange(64), _stratified_counts(weights, part)))
                                for part in (head, m - head)])
        pts = centers[label] + rng.standard_normal((m, 3)) * sigma[label, None]
        parts.append(np.clip(pts, 0.0, 1.0))
    return np.vstack(parts)


def make_records(w: Workload, seed: int) -> np.ndarray:
    """The workload's (n + q, 4) little-endian float32 records for `seed`."""
    rng = np.random.default_rng(seed)
    m = w.n + w.q
    if w.generator == "normal":
        return rng.standard_normal((m, 4)).astype("<f4")
    if w.generator == "uniform":
        xyz = rng.random((m, 3))
        xyz[w.n:] = INNER + (1.0 - 2.0 * INNER) * xyz[w.n:]
    elif w.generator == "clustered":
        xyz = _clustered(rng, w)
    else:
        raise ValueError(f"unknown generator {w.generator!r}")
    out = np.zeros((m, 4), dtype="<f4")
    out[:, :3] = xyz
    return out
