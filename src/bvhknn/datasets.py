"""Dataset ingestion for the experiment drivers.

A dataset file is a flat sequence of records, and :func:`read_records`
returns all of them.  The command line takes the first n as data points
and, without ``--query-file``, the next q as queries; with it, every
record of that file is a query.  Supported formats:

* ``csv-xyz``    one point per line, "x,y,z"
* ``bin-f32x4``  packed little-endian float32 records of 4 values, the
                 first 3 used (LiDAR-style x,y,z,intensity dumps)
* ``csv-2d``     one point per line, "x,y"
* ``bits``       one bit string per line, length 1..3, mapped to unit-cube
                 vertices on load

All 32-bit input is widened to float64.  Parse errors report the 1-based
record index; non-finite values are rejected.
"""

from __future__ import annotations

import numpy as np

from .geometry import checked_count
from .metrics import bit_vertex

FORMATS = ("csv-xyz", "bin-f32x4", "csv-2d", "bits")


def _lines(path: str):
    """(record, line number, text) for every non-blank line; records count from 1."""
    record = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text:
                record += 1
                yield record, lineno, text


def _parse_csv(path: str, columns: int) -> np.ndarray:
    rows = []
    for record, lineno, text in _lines(path):
        parts = text.split(",")
        if len(parts) != columns:
            raise ValueError(
                f"record {record} (line {lineno}): expected {columns} fields, got {len(parts)}"
            )
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ValueError(f"record {record} (line {lineno}): not a number: {text!r}") from None
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), columns)


def _parse_bin_f32x4(path: str) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 4 != 0:
        raise ValueError(
            f"record {raw.size // 4 + 1}: truncated (file holds {raw.size} floats, not a multiple of 4)"
        )
    return raw.reshape(-1, 4)[:, :3].astype(np.float64)


def _parse_bits(path: str) -> np.ndarray:
    rows = []
    for record, lineno, text in _lines(path):
        try:
            rows.append(bit_vertex(text))
        except ValueError as exc:
            raise ValueError(f"record {record} (line {lineno}): {exc}") from None
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 3)


def read_records(path: str, format: str) -> np.ndarray:
    """Every record in the file, as an (m, 3) or (m, 2) float64 array of finite values."""
    if format in ("csv-xyz", "csv-2d"):
        records = _parse_csv(path, 3 if format == "csv-xyz" else 2)
    elif format == "bin-f32x4":
        records = _parse_bin_f32x4(path)
    elif format == "bits":
        records = _parse_bits(path)
    else:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    bad = np.flatnonzero(~np.isfinite(records).all(axis=1))
    if bad.size:
        raise ValueError(f"record {bad[0] + 1}: non-finite value")
    return records


def synthetic_points(n: int, seed: int, dim: int = 3, kind: str = "uniform") -> np.ndarray:
    """Seeded uniform draws in [0, 1)^dim ("uniform") or vertices of the unit cube ("bits", dim 3).

    `n` and `dim` are counts, checked by :func:`bvhknn.geometry.checked_count`.
    """
    n, dim = checked_count(n, "n"), checked_count(dim, "dim")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random((n, dim))
    if kind == "bits":
        if dim != 3:
            raise ValueError(f"synthetic bits records are cube vertices of dim 3, got dim {dim}")
        return rng.integers(0, 2, size=(n, dim)).astype(np.float64)
    raise ValueError(f"unknown synthetic kind {kind!r}")
