"""Distance measures and their geometry.

Two families are supported:

* native metrics, handled directly by the filter-refine pipeline:
  ``Lp`` for any finite p >= 1 and ``LInf`` (componentwise max);
* transform-backed metrics (cosine, angular, 2D Euclidean, Hamming on
  bit strings of length <= 3), which are mapped onto a native pipeline
  by the transforms below.

Native distances are computed by one vectorized kernel that the oracle
and the pipeline share: :func:`weights` gives the un-rooted sum
sum(|d_i|^p) for Lp and max(|d_i|) for LInf per row, and :func:`distances`
takes the p-th root.  The kernel works column by column, one array
operation per coordinate and term, adding the terms left to right, so it
rounds exactly as a row-wise sum would.  Radius queries keep a point iff
its distance is <= r and order neighbors by (weight, id).

Every metric reaches the pipeline by one route, and one table decides
it: ``_REDUCTIONS``, at the end of this module, gives each transform-backed
metric, which has no finite circumscribing L2 radius, one row that is its
whole route: the function of an order-preserving map of its points, the
native metric searched in their image, and the function that maps that
metric's distances back to source units.  It is the only list of those
kinds: :class:`MetricSpec` accepts ``lp``, ``linf`` and its keys.  From it
:func:`transform_chain_for` gives the chain of maps into pipeline space,
the row's map or nothing for the native Lp and LInf metrics, which
:func:`transform_points` applies; :func:`pipeline_metric_for` names the
native metric searched there, and :func:`source_distances`, the one
back-map, turns pipeline-space distances into source units.

Beside it, ``_FRAMES`` chooses the basis that the BVH of each native
metric is built and walked in (:func:`frame_for`, a
:class:`bvhknn.geometry.Frame`): the identity for every metric but lp:1,
whose ball is boxed in the basis of its faces, u = S x / 4, and so is
Hamming's, which is searched as lp:1 on 0/1 rows.  The frame decides the
filter's boxes alone; distances are always taken on the pipeline-space
rows.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import IDENTITY, Frame, checked_real, checked_rows, face_rows, float_rows

KIND_LP = "lp"
KIND_LINF = "linf"
KIND_COSINE = "cosine"
KIND_ANGULAR = "angular"
KIND_EUCLID2D = "euclid2d"
KIND_HAMMING3 = "hamming3"


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """A target distance measure. For kind "lp", `p` is the exponent, a real number >= 1 stored as a float."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind == KIND_LP:
            object.__setattr__(self, "p", checked_real(self.p, "p", 1.0))
        elif self.kind in (KIND_LINF, *_REDUCTIONS):
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
        """Parse the canonical string form (inverse of :meth:`canonical`); a non-string is refused."""
        if not isinstance(text, str):
            raise ValueError(f"metric must be a metric name, got {text!r}")
        s = text.strip().lower()
        if s.startswith("lp:"):
            try:
                p = float(s[3:])
            except ValueError:
                raise ValueError(f"bad lp exponent in metric {text!r}") from None
            return cls.lp(p)
        if s in (KIND_LINF, *_REDUCTIONS):
            return cls(s)
        raise ValueError(f"unknown metric {text!r}")


def _checked_metric(metric) -> MetricSpec:
    """`metric` itself if it is a :class:`MetricSpec`, else ValueError: the one check of a metric argument."""
    if not isinstance(metric, MetricSpec):
        raise ValueError(f"metric must be a MetricSpec, got {metric!r}")
    return metric


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
    if not _checked_metric(metric).is_native:
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
    if not _checked_metric(metric).is_native:
        raise ValueError(f"metric {metric.canonical()!r} has no ball geometry")
    r = checked_real(r, "radius", 0.0, strict=True)
    w = weights(metric, checked_rows([q], "query"), checked_rows([center], "center"))[0]
    return bool(w <= weights(metric, [(r, 0.0, 0.0)], (0.0, 0.0, 0.0))[0])


# ---------------------------------------------------------------------------
# Order-preserving transformations: the route of every metric into pipeline space


def bit_vertex(s) -> tuple[float, float, float]:
    """The unit-cube vertex of a bit string of length 1..3, left-padded with zeros, else ValueError.

    Hamming's map and the ``bits`` dataset reader both read bit strings by this rule.
    """
    if not isinstance(s, str) or not 1 <= len(s) <= 3 or set(s) - {"0", "1"}:
        raise ValueError(f"expected a bit string of length 1..3, got {s!r}")
    padded = s.zfill(3)
    return (float(padded[0]), float(padded[1]), float(padded[2]))


def _normalized(points, label: str) -> np.ndarray:
    """Unit vectors, for cosine and angular: every finite nonzero 3-vector by one path.

    y = x / m, m = max |x_i|, then y / sqrt(sum y_i**2), a sum in [1, 3] at
    any scale; so exact positive multiples c * x map to bitwise the same
    unit vector, as c * x_i / (c * m) rounds as x_i / m does.  A zero
    vector is refused by its `label` index.
    """
    arr = checked_rows(points, label)
    origin = (0.0, 0.0, 0.0)
    m = weights(MetricSpec.linf(), arr, origin)  # max |x_i|, by the column-wise kernel
    zero = np.flatnonzero(m == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero vector at {label} index {zero[0]}")
    y = arr / m[:, None]
    return y / np.sqrt(weights(MetricSpec.lp(2), y, origin))[:, None]


def _embedded_2d(points, label: str) -> np.ndarray:
    """(x, y) rows lifted to (x, y, 0), for euclid2d."""
    return np.pad(float_rows(points, label, 2), ((0, 0), (0, 1)))  # a zero z column


def _hamming_vertices(points, label: str) -> np.ndarray:
    """The cube vertices of bit strings (:func:`bit_vertex`), or 0/1 vertex rows as they are, for hamming3."""
    if len(points) and isinstance(points[0], str):
        rows = []
        for i, s in enumerate(points):
            try:
                rows.append(bit_vertex(s))
            except ValueError as exc:
                raise ValueError(f"{label} index {i}: {exc}") from None
        return np.asarray(rows, dtype=np.float64)
    rows = float_rows(points, label)
    bad = np.flatnonzero(~np.isin(rows, (0.0, 1.0)).all(axis=1))
    if bad.size:
        raise ValueError(f"{label} index {bad[0]}: hamming input must be bit strings or 0/1 vertex rows")
    return rows


def transform_points(chain: list[Callable], points, label: str = "point") -> np.ndarray:
    """Apply a transform chain from :func:`transform_chain_for` to a whole collection, returning an (n, 3) array.

    Each entry is the map of a ``_REDUCTIONS`` row, applied in turn: unit
    vectors for cosine and angular, (x, y, 0) for euclid2d, and cube
    vertices of bit strings of length <= 3 (left-padded with zeros) for
    hamming3.  An entry that is no row's map is refused as an unknown
    transform.  Rejects inputs a map cannot accept, naming the shape or
    the offending `label` row (e.g. a zero vector under cosine), and a
    bare string, which is one bit string, not a collection of them.
    """
    if isinstance(points, str):
        raise ValueError(f"expected a collection of {label} rows, got the bare string {points!r}: "
                         "put one bit string in a list")
    current = points
    for t in chain:
        if not any(t is row[0] for row in _REDUCTIONS.values()):
            raise ValueError(f"unknown transform {t!r}")
        current = t(current, label)
    return float_rows(current, label)


# The one list of transform-backed metrics, which MetricSpec accepts beside
# lp and linf.  Each row is a metric's whole route into pipeline space: the
# map of its points there, the native metric searched there, and the map of
# that metric's distances back to source units, None where they are the
# same.  A chord c between unit vectors is the cosine similarity
# 1 - c * c / 2 and the angle 2 asin(min(1, c / 2)).  A metric not listed is
# native and is searched as it is.
_REDUCTIONS = {
    KIND_COSINE: (_normalized, MetricSpec.lp(2), lambda c: 1.0 - c * c / 2.0),  # a similarity
    KIND_ANGULAR: (_normalized, MetricSpec.lp(2), lambda c: 2.0 * np.arcsin(np.minimum(c / 2.0, 1.0))),
    KIND_EUCLID2D: (_embedded_2d, MetricSpec.lp(2), None),
    KIND_HAMMING3: (_hamming_vertices, MetricSpec.lp(1), None),
}


def _route(source: MetricSpec) -> tuple:
    """The `_REDUCTIONS` row of `source`, (None, source, None) for a native metric, else ValueError.

    A non-MetricSpec is refused.
    """
    return _REDUCTIONS.get(_checked_metric(source).kind, (None, source, None))


def transform_chain_for(source: MetricSpec) -> list[Callable]:
    """The transform chain that maps `source`-form points into pipeline space: its route's map.

    Empty for a native metric, whose points are searched as they are.
    """
    transform = _route(source)[0]
    return [] if transform is None else [transform]


def pipeline_metric_for(source: MetricSpec) -> MetricSpec:
    """Native metric the mapped space is searched with.

    L1 for Hamming, L2 for the other transform-backed metrics, and the
    metric itself for a native one.
    """
    return _route(source)[1]


def source_distances(source: MetricSpec, d: np.ndarray) -> np.ndarray:
    """Pipeline-space distances `d` in `source` units, by the route's map back.

    This is the one back-map of the oracle and the pipeline: chords become
    similarities for cosine and angles for angular; other metrics keep `d`,
    the array itself.  A batch's padding stays: an inf maps to inf in every
    unit, without a warning.
    """
    back = _route(source)[2]
    if back is None:
        return d
    out = back(d)  # a neighbor's distance is at most r, so finite; the padding's converts without a warning
    out[d == np.inf] = np.inf
    return out


# The basis the BVH of each native metric is built and walked in.  It is
# the identity for every metric but lp:1, whose ball is boxed in the basis
# of its faces (geometry.face_rows), a box 1.5 times the ball where the cube
# is 6 times; Hamming, which is searched as lp:1 on 0/1 rows, takes it too.
# The probe reads that frame's boxes at c = 2 times the frame's half width
# of r; on clustered data c = 1 probed half as many queries as the identity
# frame does, and c = 3 probed a few more than c = 2 at a higher median
# latency (ROADMAP item 16).
_FRAMES = {
    MetricSpec.lp(1): Frame("l1-faces", face_rows, scale=0.25, probe=2.0),
}


def frame_for(metric: MetricSpec) -> Frame:
    """The frame the BVH of `metric` is built and walked in, that of its pipeline metric.

    :data:`bvhknn.geometry.IDENTITY` unless that metric is lp:1, as it is
    for Hamming.  A non-MetricSpec is refused.
    """
    return _FRAMES.get(pipeline_metric_for(metric), IDENTITY)
