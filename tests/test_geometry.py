"""Query points, and the closed box around each data point.

The boxes exist only as rows of the BVH's tables, so they are read from a
one-point build, and the closed-box rule from its linear-scan reference,
containment_scan, which takes a plain query row.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvhknn import Point3, build_point_bvh, containment_scan
from test_bvh import lo_hi

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
half = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)


def points():
    return st.tuples(coord, coord, coord)


def box_around(center, half_width):
    """The box a one-point scene gives its point, as [x0, y0, z0, x1, y1, z1]."""
    return lo_hi(build_point_bvh([center], half_width).boxes[0]).tolist()


def contains(center, half_width, p):
    """Whether the closed box of half width `half_width` around `center` holds `p`."""
    return containment_scan([center], half_width, p) == [0]


def test_aabb_around_unit():
    assert box_around((0, 0, 0), 1.0) == [-1, -1, -1, 1, 1, 1]


def test_aabb_around_degenerate():
    assert box_around((2, 3, 4), 0.0) == [2, 3, 4, 2, 3, 4]


def test_aabb_around_sqrt3():
    # circumscribing radius of the unit cube in 3D
    box = box_around((0, 0, 0), math.sqrt(3))
    assert box[0] == pytest.approx(-1.7320508, abs=1e-7)
    assert box[4] == pytest.approx(1.7320508, abs=1e-7)


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
def test_aabb_around_rejects_bad_half_width(bad):
    with pytest.raises(ValueError):
        box_around((0, 0, 0), bad)
    with pytest.raises(ValueError):
        contains((0, 0, 0), bad, (0, 0, 0))


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(0.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point3(float("inf"), 0.0, 0.0)
    # a bool or a string is no coordinate, and each refusal names its axis
    for bad, name in ((True, "x"), (np.True_, "y"), ("1", "z")):
        coords = {"x": 0.0, "y": 0.0, "z": 0.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            Point3(**coords)
    # numpy and integer coordinates are stored as floats
    p = Point3(np.float32(0.5), np.float64(1.5), 2)
    assert p == Point3(0.5, 1.5, 2.0) and all(type(c) is float for c in p.as_tuple())


def test_containment_scan_rejects_bad_query_rows():
    for bad in ((0.0, float("nan"), 0.0), (float("inf"), 0.0, 0.0)):
        with pytest.raises(ValueError, match="query index 0 has non-finite coordinates"):
            contains((0, 0, 0), 1.0, bad)
    with pytest.raises(ValueError, match=re.escape("array of query points, got shape (1, 2)")):
        contains((0, 0, 0), 1.0, (0.0, 0.0))


def test_contains_interior_boundary_exterior():
    assert contains((0, 0, 0), 1.0, (0.5, 0, 0))
    assert contains((0, 0, 0), 1.0, (1, 1, 1))  # closed box
    assert not contains((0, 0, 0), 1.0, (1.0000001, 0, 0))


@given(points(), half, points())
@settings(deadline=None)
def test_containment_matches_chebyshev(center, h, p):
    cheb = max(abs(a - c) for a, c in zip(p, center))
    # rounding can flip either side exactly on the boundary; stay off it
    assume(abs(cheb - h) > 1e-9 * max(1.0, h, *map(abs, center)))
    assert contains(center, h, p) == (cheb <= h)
