"""Query points: a checked 3D point and the containment query around it.

Both are immutable values, so instances can be shared freely across
concurrent query workers.  The boxes themselves live only as rows of the
BVH's numpy tables (see bvh.py), where the walks test them closed: a
point sitting exactly on a face counts as contained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point3:
    """A point (or vector) in 3D space. Coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y}, {self.z})")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def as_point3(p) -> Point3:
    """Coerce a Point3 or any (x, y, z) sequence to Point3."""
    if isinstance(p, Point3):
        return p
    x, y, z = p
    return Point3(float(x), float(y), float(z))


@dataclass(frozen=True, slots=True)
class PointQuery:
    """A query against the scene, reduced to pure point containment.

    Hardware rays of infinitesimal length report every box containing their
    origin regardless of direction, so no direction field is needed.
    """

    origin: Point3

