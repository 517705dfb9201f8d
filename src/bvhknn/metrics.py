"""Distance measures and their geometry.

Two families are supported:

* native metrics, handled directly by the filter-refine pipeline:
  ``Lp`` for any finite p >= 1 and ``LInf`` (componentwise max);
* transform-backed metrics (cosine, angular, 2D Euclidean, Hamming on
  bit strings of length <= 3), which are mapped onto a native pipeline
  by the transforms in :mod:`bvhknn.pipeline`.

Native distances are computed by one vectorized kernel that the oracle
and the pipeline share: :func:`weights` gives the un-rooted sum
sum(|d_i|^p) for Lp and max(|d_i|) for LInf per row, and :func:`distances`
takes the p-th root.  The kernel works column by column, one array
operation per coordinate and term, adding the terms left to right, so it
rounds exactly as a row-wise sum would.  Radius queries keep a point iff
its distance is <= r and order neighbors by (weight, id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import checked_real, checked_rows

KIND_LP = "lp"
KIND_LINF = "linf"
KIND_COSINE = "cosine"
KIND_ANGULAR = "angular"
KIND_EUCLID2D = "euclid2d"
KIND_HAMMING3 = "hamming3"

_TRANSFORM_KINDS = (KIND_COSINE, KIND_ANGULAR, KIND_EUCLID2D, KIND_HAMMING3)


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """A target distance measure. For kind "lp", `p` is the exponent, a real number >= 1 stored as a float."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind == KIND_LP:
            object.__setattr__(self, "p", checked_real(self.p, "p", 1.0))
        elif self.kind in (KIND_LINF,) + _TRANSFORM_KINDS:
            if self.p is not None:
                raise ValueError(f"metric {self.kind!r} takes no exponent")
        else:
            raise ValueError(f"unknown metric kind {self.kind!r}")

    @classmethod
    def lp(cls, p: float) -> "MetricSpec":
        return cls(KIND_LP, p)

    @classmethod
    def linf(cls) -> "MetricSpec":
        return cls(KIND_LINF)

    @classmethod
    def cosine(cls) -> "MetricSpec":
        return cls(KIND_COSINE)

    @classmethod
    def angular(cls) -> "MetricSpec":
        return cls(KIND_ANGULAR)

    @classmethod
    def euclid2d(cls) -> "MetricSpec":
        return cls(KIND_EUCLID2D)

    @classmethod
    def hamming3(cls) -> "MetricSpec":
        return cls(KIND_HAMMING3)

    @property
    def is_native(self) -> bool:
        """True for metrics the filter-refine pipeline runs directly."""
        return self.kind in (KIND_LP, KIND_LINF)

    def canonical(self) -> str:
        """Canonical string form, e.g. "lp:2", "linf", "cosine"."""
        if self.kind == KIND_LP:
            return f"lp:{int(self.p)}" if self.p.is_integer() else f"lp:{self.p}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "MetricSpec":
        """Parse the canonical string form (inverse of :meth:`canonical`)."""
        s = text.strip().lower()
        if s.startswith("lp:"):
            try:
                p = float(s[3:])
            except ValueError:
                raise ValueError(f"bad lp exponent in metric {text!r}") from None
            return cls.lp(p)
        if s in (KIND_LINF,) + _TRANSFORM_KINDS:
            return cls(s)
        raise ValueError(f"unknown metric {text!r}")


def weights(metric: MetricSpec, points, q) -> np.ndarray:
    """Weight from `q` to each row of `points` under a native metric.

    The weight is sum(|d_i|) for L1, sum(d_i * d_i) for L2, sum(|d_i|**p)
    for any other Lp, and max(|d_i|) for LInf, over however many columns
    the rows have.  It orders like the distance, and :func:`distances`
    turns it into one.  The oracle and the pipeline both call this kernel,
    so they round every weight identically.

    `q` is one point for every row, one point per row, or any shape that
    broadcasts against `points` column by column, such as (B, 1, c) for B
    queries.  The kernel runs column by column: ``d_j = P[..., j] - Q[..., j]``,
    then its term, added left to right (``np.maximum`` for LInf).  That is
    bitwise the row-wise ``.sum(axis=-1)`` of the terms, without the (m, c)
    temporaries and the short strided reduction.
    """
    if metric.kind == KIND_LINF:
        term = np.abs
    elif metric.kind != KIND_LP:
        raise ValueError(f"no native weight for metric {metric.canonical()!r}")
    elif metric.p == 1.0:
        term = np.abs
    elif metric.p == 2.0:
        term = np.square
    else:
        p = metric.p

        def term(d):
            return np.abs(d) ** p

    P = np.asarray(points, dtype=np.float64)
    Q = np.asarray(q, dtype=np.float64)
    w = term(P[..., 0] - Q[..., 0])
    for j in range(1, P.shape[-1]):
        t = term(P[..., j] - Q[..., j])
        if metric.kind == KIND_LINF:
            np.maximum(w, t, out=w)
        else:
            w += t
    return w


def distances(metric: MetricSpec, w: np.ndarray) -> np.ndarray:
    """Distances for weights from :func:`weights`; the only place a root is taken.

    Membership in a radius-r query is decided as ``distances(w) <= r``, so a
    point whose reported distance is r is inside.
    """
    if not metric.is_native:
        raise ValueError(f"no native distance for metric {metric.canonical()!r}")
    if metric.kind == KIND_LINF or metric.p == 1.0:
        return w
    if metric.p == 2.0:
        return np.sqrt(w)
    return w ** (1.0 / metric.p)


def inclusion_radius(metric: MetricSpec, r: float, d: int = 3) -> float:
    """Tight L2 radius f(r) whose ball contains the metric ball of radius r.

    Every point within distance r of a center under `metric` lies within
    L2 distance f(r) of it:

    * 1 <= p <= 2: f(r) = r (the L2 sphere circumscribes these balls);
    * p > 2:       f(r) = r * d**(1/2 - 1/p), attained on the diagonal;
    * LInf:        f(r) = r * sqrt(d), the corner of the cube.

    No finite f exists for the transform-backed metrics, so they are
    rejected; resolve them to a native pipeline metric first.  `r` is a real number > 0.
    """
    if not metric.is_native:
        raise ValueError(
            f"metric {metric.canonical()!r} has no L2 inclusion radius; "
            "map the points with transform_chain_for and search with pipeline_metric_for"
        )
    r = checked_real(r, "radius", 0.0, strict=True)
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    if metric.kind == KIND_LINF:
        return r * math.sqrt(d)
    if metric.p <= 2:
        return r
    return r * d ** (0.5 - 1.0 / metric.p)


def in_lp_ball(q, center, metric: MetricSpec, r: float) -> bool:
    """True iff the row q lies in the closed metric ball of radius r around the row center.

    This is the membership test behind the user-filter geometries: sphere
    (p=2), square bi-pyramid (p=1), cube (LInf), and the surfaces between.
    It compares weights, against the weight of the ball's point r along an
    axis, so that point is inside for every p; a p-th root of r**p need not
    round back to r, and the balls would then not nest exactly.  `r` is a real number > 0.
    """
    if not metric.is_native:
        raise ValueError(f"metric {metric.canonical()!r} has no ball geometry")
    r = checked_real(r, "radius", 0.0, strict=True)
    w = weights(metric, checked_rows([q], "query"), checked_rows([center], "center"))[0]
    return bool(w <= weights(metric, [(r, 0.0, 0.0)], (0.0, 0.0, 0.0))[0])
