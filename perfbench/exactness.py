"""Exactness gate: every answer is compared with the brute-force oracle.

A full `brute_force_knn` scan costs about 20 ms per query at 100k points,
so the gate hands the oracle only the rows inside a `cKDTree` ball a little
larger than the radius, with ids mapped back.  The oracle still decides
membership and order at the exact radius; the tree only narrows its input.
`test_perfbench.py` checks the narrowed oracle against the full one.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from bvhknn import MetricSpec, brute_force_knn

# The tree and the oracle round distances differently, so the ball is
# widened by this share; the oracle then filters at the exact radius.
BALL_SLACK = 1e-6
# An oracle distance this close to the radius (relative) is on the boundary.
BOUNDARY_RTOL = 1e-12


class NarrowedOracle:
    """`brute_force_knn` over only the rows a k-d tree ball around q holds.

    Rows are handed to the oracle in ascending id order, so its smaller-id
    tie-breaking is preserved when local ids are mapped back.
    """

    def __init__(self, points: np.ndarray, metric: MetricSpec, k: int):
        self.points = points
        self.metric = metric
        self.k = k
        self.tree = cKDTree(points)
        self.minkowski_p = np.inf if metric.kind == "linf" else metric.p

    def rows(self, queries: np.ndarray, radius: float | None = None) -> list[list[tuple[int, float]]]:
        """Per query, exactly `brute_force_knn(points, q, metric, k, radius)`."""
        if radius is None:
            dist, _ = self.tree.query(queries, k=[self.k], p=self.minkowski_p)
            balls = dist[:, 0]
        else:
            balls = np.full(len(queries), float(radius))
        balls = balls * (1.0 + BALL_SLACK)
        candidates = self.tree.query_ball_point(queries, balls, p=self.minkowski_p, return_sorted=True)
        out = []
        for q, ids in zip(queries, candidates):
            ids = np.asarray(ids, dtype=np.int64)
            local = brute_force_knn(self.points[ids], q, self.metric, self.k, radius)
            out.append([(int(ids[i]), d) for i, d in local])
        return out

    def distances(self, q: np.ndarray, ids) -> dict[int, float]:
        """The oracle's own distance from q to each of the given ids."""
        ids = np.asarray(sorted(set(ids)), dtype=np.int64)
        if ids.size == 0:
            return {}
        local = brute_force_knn(self.points[ids], q, self.metric, len(ids))
        return {int(ids[i]): d for i, d in local}


def workload_radius(truth_rows, rule: str) -> float:
    """The radius rule ("p99" or "median") over the per-query k-th distances.

    "p99" is the k-th distance of the query at the 99th percentile, taken
    as an order statistic, so that it is one query's own k-th distance.
    """
    kth = np.array([row[-1][1] for row in truth_rows])
    if rule == "p99":
        return float(np.sort(kth)[int(np.ceil(0.99 * len(kth))) - 1])
    if rule == "median":
        return float(np.median(kth))
    raise ValueError(f"unknown radius rule {rule!r}")


class Check:
    """Counts answers checked and answers that disagree with the oracle.

    A disagreement is a boundary flip when the two id lists become equal
    once every id whose oracle distance is within BOUNDARY_RTOL of the
    radius is removed.  That is the known radius-rounding defect (the
    pipeline decides membership by the un-rooted weight against r**p, the
    oracle by the rooted distance against r).  Any other disagreement, and
    any difference between two pipeline entry points, is unexplained.
    """

    def __init__(self):
        self.attempted = 0
        self.boundary = 0
        self.unexplained = 0

    @property
    def failed(self) -> int:
        return self.boundary + self.unexplained

    def against_oracle(self, got_ids, expected_rows, oracle: NarrowedOracle, queries, radius: float,
                       differ=frozenset()) -> None:
        """Compare per-query id lists with the oracle's rows at `radius`.

        `differ` holds the positions of queries whose answers already
        differed between two pipeline entry points; each is unexplained.
        """
        for pos, (q, got, row) in enumerate(zip(queries, got_ids, expected_rows)):
            self.attempted += 1
            if pos in differ:
                self.unexplained += 1
                continue
            want = [i for i, _ in row]
            if got == want:
                continue
            dist = oracle.distances(q, got + want)
            inside = [i for i in got if abs(dist[i] - radius) > BOUNDARY_RTOL * radius]
            if inside == [i for i in want if abs(dist[i] - radius) > BOUNDARY_RTOL * radius]:
                self.boundary += 1
            else:
                self.unexplained += 1
