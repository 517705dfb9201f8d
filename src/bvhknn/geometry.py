"""Checked input: one rule each for rows, counts and real numbers.

Every data and query array passes :func:`checked_rows` where it enters,
and its shape rule, :func:`shaped_rows`, reads an empty list as no rows;
every count passes :func:`checked_count`, and every radius, half width,
exponent and `Point3` coordinate :func:`checked_real`.  The
boxes live only as rows of the BVH's numpy tables (see bvh.py), where the
walks test them closed: a point sitting exactly on a face counts as
contained.

A :class:`Frame` is the basis those boxes live in: the identity, or the
face map :func:`face_rows` that takes every L1 ball to a box of the
frame.  The metric chooses it (:func:`bvhknn.metrics.frame_for`).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np


def shaped_rows(rows: np.ndarray, label: str, width: int = 3) -> np.ndarray:
    """The array `rows` as (n, `width`), else ValueError naming its shape; an empty 1-D array is no rows."""
    if rows.ndim != 2 or rows.shape[1] != width:
        if rows.shape == (0,):
            return rows.reshape(0, width)
        raise ValueError(f"expected an (n, {width}) array of {label} points, got shape {rows.shape}")
    return rows


def float_rows(points, label: str, width: int = 3) -> np.ndarray:
    """`points` as a float64 (n, `width`) array, by :func:`shaped_rows`."""
    return shaped_rows(np.asarray(points, dtype=np.float64), label, width)


def checked_rows(points, label: str, width: int = 3) -> np.ndarray:
    """:func:`float_rows` with finite rows, else ValueError naming the first bad one, sought only then."""
    rows = float_rows(points, label, width)
    if np.count_nonzero(np.isfinite(rows)) != rows.size:
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        raise ValueError(f"{label} index {bad} has non-finite coordinates")
    return rows


def checked_count(value, name: str) -> int:
    """`value`, a Python or numpy integer, as an int >= 1, else ValueError naming `name`; a bool is no integer."""
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index(True) is 1
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def checked_real(value, name: str, low: float | None = None, strict: bool = False) -> float:
    """`value`, a Python or numpy real number, as a finite float >= `low` (> if `strict`), else ValueError naming `name`.

    A bool is no real number, nor is a string.  A Python float skips the
    type test, as the search checks its radius a few times per query.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy bools are no Real
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not math.isfinite(value) or (low is not None and (value <= low if strict else value < low)):
        bound = "" if low is None else f" and {'>' if strict else '>='} {low:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class Frame:
    """The basis a BVH is built and walked in: a fixed linear map of the caller's (n, 3) rows.

    The tree boxes the mapped data rows and walks the mapped query rows,
    while every distance stays on the caller's rows.  `map` takes a float64
    (n, 3) array to a new one, or is None for the identity, which hands the
    rows back as they are.  A box of half width ``scale * h`` around a mapped
    point holds the map of every point within the frame's source ball of
    radius h: the cube of the identity, the L1 ball of :func:`face_rows`.
    `probe` is c: the search's probe reads the frame's boxes at c times the
    frame's half width of its radius r, ``c * scale * r``.  Frames compare
    by identity, and `name` names one in refusals.
    """

    name: str
    map: Callable[[np.ndarray], np.ndarray] | None = None
    scale: float = 1.0
    probe: float = 1.0

    def rows(self, rows: np.ndarray) -> np.ndarray:
        """The float64 (n, 3) `rows` in this frame: `rows` itself for the identity."""
        return rows if self.map is None else self.map(rows)


IDENTITY = Frame("identity")


def face_rows(rows: np.ndarray) -> np.ndarray:
    """The float64 (n, 3) `rows` mapped to u = S x / 4, the basis of the L1 ball's faces.

    S has the rows (1, 1, 1), (1, 1, -1) and (1, -1, 1), three of the four
    face normals of the octahedron |x|_1 <= 1.  For every s in {±1}^3,
    |s . d| <= |d|_1, so |u_j(p) - u_j(q)| <= |p - q|_1 / 4: the box of half
    width r / 4 around u(p) holds u(q) for every q within L1 distance r of p,
    a parallelepiped of volume 2r^3 in x, 1.5 times the ball, where the cube
    (2r)^3 is 6 times.  The fourth normal (1, -1, -1) is s2 + s3 - s1, so
    |x|_1, the largest |s . x|, is at most 3 max_j |(S x)_j| = 12 max_j |u_j|.

    The map is fixed column arithmetic, the same IEEE operations for every
    row however many there are, so one row maps bitwise as it does in a
    batch: a = x / 4, b = y / 4, c = z / 4 (exact multiplications by 1/4),
    then u = ((a + b) + c, (a + b) - c, (a - b) + c).  No finite row maps to
    an infinity: |a|, |b|, |c| <= max_float / 4, so every |u_j| <= 3/4 of the
    largest double, and a box u_j ± r / 4 stays finite for every finite r,
    as the exact u_j + r / 4 <= max_float then rounds to at most max_float.

    Rounding.  A quarter is exact unless it falls below 2**-1022, where it
    is off by at most 2**-1075; a sum or difference is off by at most 2**-53
    of its size, and exact in the subnormal range.  So the computed u_j of a
    row x differs from the exact one by at most
    2**-52 (1 + 2**-53) |x|_1 / 4 + 2**-1073: an error set by the
    coordinates' magnitude, not by any radius.  :func:`bvhknn.pipeline._insets`
    pads the box test by that bound for both the data and the query point.
    """
    out = rows * 0.25  # the one (n, 3) allocation kept; its columns are a, b and c
    a, b, c = out[:, 0], out[:, 1], out[:, 2]
    both = a + b
    either = a - b
    np.add(both, c, out=out[:, 0])  # a is no longer read
    np.subtract(both, c, out=out[:, 1])
    np.add(either, c, out=out[:, 2])
    return out
