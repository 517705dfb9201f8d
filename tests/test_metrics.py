import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvhknn import MetricSpec, distances, in_lp_ball, inclusion_radius, weights

ORIGIN = (0.0, 0.0, 0.0)
LINF = MetricSpec.linf()

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
pt = st.tuples(coord, coord, coord)
metric_st = st.sampled_from(
    [MetricSpec.lp(1), MetricSpec.lp(1.5), MetricSpec.lp(2), MetricSpec.lp(3), MetricSpec.lp(4), MetricSpec.linf()]
)


def weight(metric, a, b):
    """The kernel's weight between two single points."""
    return float(weights(metric, [a], b)[0])


def distance(metric, a, b):
    """The kernel's distance between two single points."""
    return float(distances(metric, weights(metric, [a], b))[0])


def test_lp_weight_examples():
    assert weight(MetricSpec.lp(1), ORIGIN, (1, 2, 2)) == 5.0
    assert weight(MetricSpec.lp(2), ORIGIN, (1, 2, 2)) == 9.0
    assert weight(MetricSpec.lp(3), ORIGIN, (0.5, 0.5, 0.5)) == pytest.approx(0.375, rel=1e-15)


def test_lp_weight_rejects_quasinorm():
    with pytest.raises(ValueError):
        weight(MetricSpec.lp(0.5), ORIGIN, (1, 1, 1))
    with pytest.raises(ValueError):
        MetricSpec.lp(0.99)
    for bad in (True, "2"):  # a bool or a string is no exponent
        with pytest.raises(ValueError, match="p must be a real number, got"):
            MetricSpec("lp", bad)
        with pytest.raises(ValueError, match="p must be a real number, got"):
            MetricSpec.lp(bad)
    for good in (2, np.int64(2), np.float32(2.0), 2.0):
        assert type(MetricSpec("lp", good).p) is float and MetricSpec.lp(good) == MetricSpec.lp(2.0)


def test_linf_weight_examples():
    assert weight(LINF, ORIGIN, (1, 2, 2)) == 2.0
    assert weight(LINF, (0.9, 0.9, 0.9), ORIGIN) == 0.9
    assert weight(LINF, (3, -1, 2), (3, -1, 2)) == 0.0


def _reference_distance(metric, a, b):
    """The distance by plain `math`, independent of the numpy kernel."""
    d = [abs(x - y) for x, y in zip(a, b)]
    if metric.kind == "linf":
        return max(d), max(d)
    w = math.fsum(v ** metric.p for v in d)
    return w, (math.sqrt(w) if metric.p == 2 else w ** (1 / metric.p))


@given(
    st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=20),
    st.tuples(coord, coord, coord),
    st.sampled_from([2, 3]),
    metric_st,
)
@settings(deadline=None)
def test_kernel_matches_math_reference(rows, q, ncols, metric):
    rows = [row[:ncols] for row in rows]
    q = q[:ncols]
    # keep |d|**p clear of the subnormal range, where relative error is unbounded
    assume(all(x == y or abs(x - y) >= 1e-20 for row in rows for x, y in zip(row, q)))
    w = weights(metric, rows, q)
    dist = distances(metric, w)
    assert w.shape == dist.shape == (len(rows),)
    for row, got_w, got_d in zip(rows, w.tolist(), dist.tolist()):
        want_w, want_d = _reference_distance(metric, row, q)
        assert got_w == pytest.approx(want_w, rel=1e-12, abs=0.0)
        assert got_d == pytest.approx(want_d, rel=1e-12, abs=0.0)


def _rowwise_reference(metric, points, q):
    """The weight as whole-row array terms reduced along the last axis."""
    d = np.asarray(points, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    if metric.kind == "linf":
        return np.abs(d).max(axis=-1)
    if metric.p == 1:
        return np.abs(d).sum(axis=-1)
    if metric.p == 2:
        return (d * d).sum(axis=-1)
    return (np.abs(d) ** metric.p).sum(axis=-1)


@pytest.mark.parametrize("metric", [MetricSpec.lp(1), MetricSpec.lp(1.5), MetricSpec.lp(2), MetricSpec.lp(3),
                                    MetricSpec.linf()], ids=lambda m: m.canonical())
def test_column_kernel_bitwise_equals_rowwise_sum(metric):
    rng = np.random.default_rng(23)
    for m in (1, 33, 1037):
        for cols in (3, 2):
            points = rng.normal(size=(m, cols)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
            for q in (rng.normal(size=cols),           # one query for every row
                      rng.normal(size=(m, cols)),      # one query per row
                      rng.normal(size=(4, 1, cols))):  # a batch of queries, broadcast
                got = weights(metric, points, q)
                want = _rowwise_reference(metric, points, q)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_kernel_rejects_transform_metrics():
    for m in (MetricSpec.cosine(), MetricSpec.angular(), MetricSpec.euclid2d(), MetricSpec.hamming3()):
        with pytest.raises(ValueError):
            weights(m, [(0.0, 0.0, 0.0)], (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            distances(m, np.zeros(1))
        with pytest.raises(ValueError, match="has no ball geometry"):
            in_lp_ball(ORIGIN, ORIGIN, m, 1.0)


def test_inclusion_radius_values():
    assert inclusion_radius(MetricSpec.linf(), 1.0, 2) == math.sqrt(2)
    assert inclusion_radius(MetricSpec.linf(), 1.0, 3) == math.sqrt(3)
    assert inclusion_radius(MetricSpec.lp(1), 5.0, 3) == 5.0
    assert inclusion_radius(MetricSpec.lp(2), 0.25, 3) == 0.25
    assert inclusion_radius(MetricSpec.lp(4), 1.0, 3) == pytest.approx(3 ** 0.25, rel=1e-12)


def test_inclusion_radius_p4_against_sampling_oracle():
    # maximize the L2 norm over a dense sample of the unit L4 sphere; the
    # analytic value 3**(1/4) must dominate and be attained on the diagonal
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(200_000, 3))
    dirs = dirs[np.abs(dirs).sum(axis=1) > 1e-9]
    l4 = (np.abs(dirs) ** 4).sum(axis=1) ** 0.25
    on_sphere = dirs / l4[:, None]
    l2 = np.sqrt((on_sphere * on_sphere).sum(axis=1))
    sampled_max = l2.max()
    analytic = inclusion_radius(MetricSpec.lp(4), 1.0, 3)
    assert sampled_max <= analytic + 1e-12
    diag = np.full(3, 3 ** (-0.25))
    assert np.sqrt((diag * diag).sum()) == pytest.approx(analytic, rel=1e-12)
    assert sampled_max == pytest.approx(analytic, rel=1e-3)  # dense sample gets close


def test_inclusion_radius_rejects_transform_metrics():
    for m in (MetricSpec.cosine(), MetricSpec.angular(), MetricSpec.euclid2d(), MetricSpec.hamming3()):
        with pytest.raises(ValueError):
            inclusion_radius(m, 1.0, 3)


def test_inclusion_radius_rejects_bad_inputs():
    with pytest.raises(ValueError):
        inclusion_radius(MetricSpec.lp(2), 0.0, 3)
    with pytest.raises(ValueError):
        inclusion_radius(MetricSpec.lp(2), 1.0, 4)
    for bad, message in ((True, "a real number, got True"), ("0.3", "a real number, got '0.3'"),
                         (math.inf, "finite and > 0, got inf"), (0.0, "finite and > 0, got 0.0")):
        with pytest.raises(ValueError, match=f"radius must be {message}"):
            inclusion_radius(MetricSpec.lp(2), bad, 3)
        with pytest.raises(ValueError, match=f"radius must be {message}"):
            in_lp_ball(ORIGIN, ORIGIN, MetricSpec.lp(2), bad)


def test_ball_geometry_refuses_a_metric_that_is_no_metricspec():
    # a metric name, None or a number is refused by name, as the search config refuses it
    for bad in ("lp:2", None, 2):
        refused = re.escape(f"metric must be a MetricSpec, got {bad!r}")
        with pytest.raises(ValueError, match=refused):
            inclusion_radius(bad, 0.3)
        with pytest.raises(ValueError, match=refused):
            in_lp_ball(ORIGIN, ORIGIN, bad, 0.3)


def test_in_lp_ball_examples():
    assert in_lp_ball((0.9, 0.9, 0.9), ORIGIN, MetricSpec.linf(), 1.0)
    assert math.dist((0.9, 0.9, 0.9), ORIGIN) > 1.0  # inside cube, outside sphere
    assert not in_lp_ball((0.5, 0.5, 0.5), ORIGIN, MetricSpec.lp(1), 1.0)
    assert in_lp_ball((1, 0, 0), ORIGIN, MetricSpec.lp(1), 1.0)  # boundary inclusive


def test_in_lp_ball_rejects_bad_rows():
    with pytest.raises(ValueError, match="query index 0 has non-finite coordinates"):
        in_lp_ball((0.0, math.nan, 0.0), ORIGIN, MetricSpec.lp(2), 1.0)
    with pytest.raises(ValueError, match="center index 0 has non-finite coordinates"):
        in_lp_ball(ORIGIN, (math.inf, 0.0, 0.0), MetricSpec.lp(2), 1.0)
    with pytest.raises(ValueError, match=r"array of query points, got shape \(1, 2\)"):
        in_lp_ball((0.0, 0.0), ORIGIN, MetricSpec.lp(2), 1.0)


@given(pt, pt, metric_st, st.floats(min_value=0.01, max_value=50, allow_nan=False))
@settings(deadline=None)
def test_inclusion_superset(center, p, metric, r):
    if in_lp_ball(p, center, metric, r):
        assert math.dist(p, center) <= inclusion_radius(metric, r, 3) * (1 + 1e-12)


@pytest.mark.parametrize("metric", [MetricSpec.lp(1), MetricSpec.lp(2), MetricSpec.lp(3), MetricSpec.lp(4), MetricSpec.linf()])
@pytest.mark.parametrize("r", [0.5, 1.0, 7.25])
def test_inclusion_tightness_at_extremes(metric, r):
    # some boundary point of the metric ball reaches the circumscribing radius
    if metric.kind == "linf":
        extremal = (r, r, r)
    elif metric.p <= 2:
        extremal = (r, 0, 0)
    else:
        t = r * 3 ** (-1.0 / metric.p)
        extremal = (t, t, t)
    assert distance(metric, extremal, ORIGIN) <= r * (1 + 1e-12)
    assert abs(math.dist(extremal, ORIGIN) - inclusion_radius(metric, r, 3)) < 1e-9


@given(pt, pt, pt, metric_st)
@settings(deadline=None)
def test_weight_orders_like_distance(q, a, b, metric):
    w = weights(metric, [a, b], q)
    (wa, wb), (da, db) = w.tolist(), distances(metric, w).tolist()
    if wa < wb:
        assert da <= db
    if wa == wb:
        assert da == db


@given(pt, st.floats(min_value=0.1, max_value=10, allow_nan=False))
@settings(deadline=None, max_examples=50)
def test_lp_ball_nesting(p, r):
    # the ball grows with p at fixed radius
    ps = [1, 1.5, 2, 3, 4]
    for p1, p2 in zip(ps, ps[1:]):
        if in_lp_ball(p, ORIGIN, MetricSpec.lp(p1), r):
            assert in_lp_ball(p, ORIGIN, MetricSpec.lp(p2), r)
    if in_lp_ball(p, ORIGIN, MetricSpec.lp(4), r):
        assert in_lp_ball(p, ORIGIN, MetricSpec.linf(), r)


def test_canonical_roundtrip():
    cases = ["lp:1", "lp:2", "lp:3.5", "linf", "cosine", "angular", "euclid2d", "hamming3"]
    for text in cases:
        assert MetricSpec.parse(text).canonical() == text
    assert MetricSpec.parse("LP:2") == MetricSpec.lp(2)
    with pytest.raises(ValueError):
        MetricSpec.parse("manhattan")
    with pytest.raises(ValueError):
        MetricSpec.parse("lp:abc")
    with pytest.raises(ValueError, match="metric 'linf' takes no exponent"):
        MetricSpec("linf", 2)
    with pytest.raises(ValueError, match="unknown metric kind 'foo'"):
        MetricSpec("foo")
