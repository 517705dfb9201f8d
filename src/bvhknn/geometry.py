"""Checked input: one rule each for rows, counts and real numbers.

Every data and query array passes :func:`checked_rows` where it enters,
and its shape rule, :func:`shaped_rows`, reads an empty list as no rows;
every count passes :func:`checked_count`, and every radius, half width,
exponent and `Point3` coordinate :func:`checked_real`.  The
boxes live only as rows of the BVH's numpy tables (see bvh.py), where the
walks test them closed: a point sitting exactly on a face counts as
contained.
"""

from __future__ import annotations

import math
import numbers
import operator

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
