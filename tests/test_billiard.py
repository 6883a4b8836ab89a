import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzbilliards import billiard, confocal, quadric_flow, revolution, variational
from lorentzbilliards.errors import (
    EscapeError,
    GrazeError,
    RootNotConvergedError,
    SingularNormalError,
    TrajectoryStopped,
)
from lorentzbilliards.metric import CausalClass, Metric


def dxdy_circle():
    return billiard.QuadricBoundary(Metric.dxdy_plane(), [1.0, 1.0])


def test_normal_singular_at_axis_points():
    b = dxdy_circle()
    nu = billiard.normal_at(b, [1.0, 0.0])
    assert np.allclose(nu, [0.0, 4.0])
    assert b.metric.norm2(nu) == 0.0
    assert billiard.is_singular(b, [1.0, 0.0])
    assert billiard.is_singular(b, [0.0, 1.0])
    assert billiard.is_singular(b, [-1.0, 0.0])
    assert billiard.is_singular(b, [0.0, -1.0])


def test_tables_and_surfaces_share_one_level_set_type():
    q = quadric_flow.QuadricSurface((1.0, 1.0), (1, -1))
    assert isinstance(q.surface(), billiard.QuadricBoundary)
    b = dxdy_circle()
    for p in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]):
        assert billiard.is_singular(b, p)
        assert b.singular_measure(p) == 0.0
    r = np.sqrt(0.5)
    for p in ([r, r], [-r, -r]):
        assert not billiard.is_singular(b, p)
        assert b.singular_measure(p) != 0.0


_M2 = Metric.from_signature(1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: billiard.QuadricBoundary.from_semi_axes(_M2, [2.0, 0.0]),
        lambda: billiard.QuadricBoundary.from_semi_axes(_M2, [2.0, np.nan]),
        lambda: billiard.QuadricBoundary.from_semi_axes(_M2, [2.0, np.inf]),
        lambda: billiard.QuadricBoundary(_M2, [1.0, np.inf]),
        lambda: billiard.QuadricBoundary(_M2, [1.0, 2.0, 3.0]),
        lambda: quadric_flow.QuadricSurface((3.0, np.inf, 1.0), (1, 1, -1)),
        lambda: confocal.ConfocalFamily((3.0, np.inf), (1, -1)),
        lambda: variational.find_diameters(_M2, [2.0, 0.0]),
    ],
    ids=["semi-axis 0", "semi-axis nan", "semi-axis inf", "coeff inf", "coeff length",
         "quadric inf", "family inf", "diameters 0"],
)
def test_ellipsoids_are_rejected_when_built(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            build()


def test_radial_point_lies_on_the_table():
    b = billiard.QuadricBoundary.from_semi_axes(_M2, [2.0, 1.0])
    raw = np.array([0.3, -1.7])
    x = b.radial_point(raw)
    assert b.value(x) == pytest.approx(0.0, abs=1e-14)
    assert x[0] * raw[1] == pytest.approx(x[1] * raw[0])
    assert x @ raw > 0.0


def test_normal_space_like_at_diagonal():
    b = dxdy_circle()
    q = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
    nu = billiard.normal_at(b, q)
    assert nu[0] == pytest.approx(nu[1])
    assert b.metric.classify(nu) is CausalClass.SPACE_LIKE


def test_pseudocircle_normals_through_origin():
    m = Metric.diagonal([1, -1])
    b = billiard.ImplicitBoundary(
        m, lambda q: q[0] ** 2 - q[1] ** 2 - 1.0, lambda q: np.array([2 * q[0], -2 * q[1]])
    )
    for t in (0.0, 0.4, -1.1):
        q = np.array([np.cosh(t), np.sinh(t)])
        nu = billiard.normal_at(b, q)
        # normal is parallel to the position vector: the line passes the origin
        assert abs(q[0] * nu[1] - q[1] * nu[0]) < 1e-12


def test_next_hit_circle_from_center():
    b = dxdy_circle()
    q, s = billiard.next_hit(b, [0.0, 0.0], [1.0, 0.0])
    assert np.allclose(q, [1.0, 0.0])
    assert s == pytest.approx(1.0)


def test_next_hit_horizontal_chord():
    b = dxdy_circle()
    t1 = 0.7
    start = np.array([np.cos(t1), np.sin(t1)])
    q, _ = billiard.next_hit(b, start, [-1.0, 0.0])
    assert np.allclose(q, [np.cos(np.pi - t1), np.sin(t1)], atol=1e-12)


def test_next_hit_ellipse_quadratic():
    m = Metric.euclidean(2)
    b = billiard.QuadricBoundary(m, [0.25, 1.0])
    _, s = billiard.next_hit(b, [0.0, 0.0], [1.0, 1.0])
    assert s == pytest.approx(np.sqrt(1.0 / 1.25))


def test_next_hit_escape_and_graze():
    m = Metric.euclidean(2)
    b = billiard.QuadricBoundary(m, [1.0, 1.0])
    with pytest.raises(EscapeError):
        billiard.next_hit(b, [2.0, 0.0], [1.0, 0.0])
    with pytest.raises(GrazeError):
        billiard.next_hit(b, [-2.0, 1.0], [1.0, 0.0])


def test_reflect_euclidean_radial():
    m = Metric.euclidean(2)
    b = billiard.QuadricBoundary(m, [1.0, 1.0])
    w = np.array([0.6, 0.8])
    w1 = billiard.reflect(b, [0.6, 0.8], w)
    assert np.allclose(w1, -w, atol=1e-12)


def test_reflect_singular_point_stops():
    b = dxdy_circle()
    with pytest.raises(TrajectoryStopped):
        billiard.reflect(b, [1.0, 0.0], [-1.0, 0.2])


def test_reflection_scale_refuses_a_light_like_normal():
    with pytest.raises(SingularNormalError):
        billiard.reflection_scale(Metric.from_signature(1, 1), [1.0, 0.2], [1.0, 1.0])


def test_reflect_light_like_at_diagonal():
    b = dxdy_circle()
    q = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
    w1 = billiard.reflect(b, q, np.array([1.0, 0.0]))
    # light-like incoming (1,0) maps to the other null direction
    assert w1[0] == pytest.approx(0.0, abs=1e-12)
    assert b.metric.norm2(w1) == pytest.approx(0.0, abs=1e-12)


def test_reflect_involution_and_energy():
    rng = np.random.default_rng(0)
    for k, l in [(2, 0), (1, 1), (2, 1), (2, 2)]:
        m = Metric.from_signature(k, l)
        b = billiard.QuadricBoundary.from_semi_axes(m, rng.uniform(0.5, 2.0, k + l))
        for _ in range(30):
            raw = rng.normal(size=k + l)
            q = raw / np.sqrt(float(b.coeffs @ raw**2))
            if billiard.is_singular(b, q):
                continue
            w = rng.normal(size=k + l)
            w1 = billiard.reflect(b, q, w)
            assert m.norm2(w1) == pytest.approx(m.norm2(w), abs=1e-12)
            assert np.allclose(billiard.reflect(b, q, w1), w, atol=1e-12)


def test_harmonic_defect_values():
    assert billiard.harmonic_defect([1, 0], [0, 1], [1, 1], [1, -1]) == pytest.approx(0.0)
    assert billiard.harmonic_defect([1, 2], [3, 4], [5, 6], [7, 8]) != 0.0


def test_harmonic_defect_euclidean_bounce():
    m = Metric.euclidean(2)
    b = billiard.QuadricBoundary(m, [1.0, 1.0])
    traj = billiard.iterate(b, [0.1, -0.2], [0.9, 0.5], 20)
    assert traj.status == "ok"
    for r in traj.records:
        assert abs(r.harmonic) < 1e-10


def test_iterate_light_like_four_periodic():
    b = dxdy_circle()
    t = np.pi / 6
    start = np.array([np.cos(t), np.sin(t)])
    w = np.array([np.cos(np.pi - t) - np.cos(t), 0.0])
    traj = billiard.iterate(b, start, w, 8)
    assert traj.status == "ok"
    pts = traj.points()
    assert np.allclose(pts[0], pts[4], atol=1e-9)
    assert np.allclose(pts[1], pts[5], atol=1e-9)


def test_iterate_diameter_two_periodic():
    b = dxdy_circle()
    t = np.pi / 4
    q1 = np.array([np.cos(t), np.sin(t)])
    traj = billiard.iterate(b, q1, -q1, 6)
    pts = traj.points()
    assert np.allclose(pts[0], pts[2], atol=1e-12)
    assert np.allclose(pts[1], pts[3], atol=1e-12)


def test_iterate_zero_bounces_empty():
    traj = billiard.iterate(dxdy_circle(), [0.0, 0.0], [1.0, 0.3], 0)
    assert len(traj) == 0 and traj.status == "ok"


@pytest.mark.parametrize("bad", [-1, -2, 1.5, 2.0, "1", None])
def test_iterate_bounce_count_is_checked(bad):
    with pytest.raises(ValueError, match="count"):
        billiard.iterate(dxdy_circle(), [0.0, 0.0], [1.0, 0.3], bad)


def test_iterate_singular_impact_stops():
    b = dxdy_circle()
    traj = billiard.iterate(b, [0.0, 0.0], [1.0, 0.0], 5)
    assert traj.status == "stopped_singular"
    assert len(traj) == 0


def test_causal_class_preserved():
    m = Metric.from_signature(1, 1)
    b = billiard.QuadricBoundary.from_semi_axes(m, [2.0, 1.0])
    traj = billiard.iterate(b, [0.1, 0.0], [1.0, 0.3], 40)
    cls = m.classify(np.array([1.0, 0.3]))
    for r in traj.records:
        assert m.classify(r.outgoing) is cls


_QUADRIC_TABLES = [
    billiard.QuadricBoundary(Metric.euclidean(2), [1.0, 1.0]),
    billiard.QuadricBoundary.from_semi_axes(Metric.from_signature(1, 1), [2.0, 1.0]),
    billiard.QuadricBoundary.from_semi_axes(Metric.diagonal([1, 1, -1]), [3.0, 2.0, 1.0]),
]
_QUARTIC = billiard.ImplicitBoundary(
    Metric.from_signature(1, 1),
    lambda q: q[0] ** 4 + q[1] ** 4 - 1.0,
    lambda q: np.array([4.0 * q[0] ** 3, 4.0 * q[1] ** 3]),
)
# components far from the subnormal range, where rounding is scale-free
_UNIT = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@settings(max_examples=300)
@given(st.sampled_from(_QUADRIC_TABLES), st.data(), st.integers(-600, 600))
def test_quadric_hit_does_not_depend_on_direction_length(table, data, k):
    n = table.metric.n
    raw = np.array(data.draw(st.lists(_UNIT, min_size=n, max_size=n)))
    d = np.array(data.draw(st.lists(_UNIT, min_size=n, max_size=n)))
    if not raw.any() or np.max(np.abs(d)) < 1e-3:
        return
    start = abs(data.draw(_UNIT)) * 0.9 * table.radial_point(raw)
    q, s = billiard.next_hit(table, start, d)
    q_k, s_k = billiard.next_hit(table, start, np.ldexp(d, k))
    assert q_k.tobytes() == q.tobytes()
    assert s_k == math.ldexp(s, -k)


@settings(max_examples=40)
@given(st.floats(0.0, 2.0 * np.pi), st.integers(-600, 600))
def test_bracketed_hit_does_not_depend_on_direction_length(angle, k):
    start = np.array([0.5, 0.0])
    d = np.array([np.cos(angle), np.sin(angle)])
    q, _ = billiard.next_hit(_QUARTIC, start, d)
    q_k, _ = billiard.next_hit(_QUARTIC, start, np.ldexp(d, k))
    assert np.allclose(q_k, q, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [[1e-200, 1e-200], [1e200, 1e200], [2.0**-520, 2.0**-520]])
def test_short_and_long_directions_hit_the_table(d):
    table = _QUADRIC_TABLES[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        q, _ = billiard.next_hit(table, [0.5, 0.0], d)
    assert np.allclose(q, billiard.next_hit(table, [0.5, 0.0], [1.0, 1.0])[0], rtol=0.0, atol=1e-15)
    assert table.value(q) == pytest.approx(0.0, abs=1e-15)


def test_zero_direction_escapes():
    with pytest.raises(EscapeError):
        billiard.next_hit(_QUADRIC_TABLES[0], [0.5, 0.0], [0.0, 0.0])
    with pytest.raises(EscapeError):
        billiard.next_hit(_QUARTIC, [0.5, 0.0], [0.0, 0.0])


def test_subnormal_direction_hits_at_an_infinite_parameter():
    # the point is exact, but s ~ 2^1029 leaves the float range
    table = _QUADRIC_TABLES[0]
    q, s = billiard.next_hit(table, [0.5, 0.0], [1e-310, 1e-310])
    assert s == math.inf
    assert q.tobytes() == billiard.next_hit(table, [0.5, 0.0], [1.0, 1.0])[0].tobytes()
    traj = billiard.iterate(table, [0.5, 0.0], [1e-310, 1e-310], 3)
    ref = billiard.iterate(table, [0.5, 0.0], [1.0, 1.0], 3)
    assert traj.status == ref.status == "ok" and len(traj) == 3
    assert np.allclose(traj.points(), ref.points(), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("k", [-1000, -520, -200, 100])
def test_bounce_harmonic_defects_do_not_depend_on_direction_length(k):
    table = billiard.QuadricBoundary.from_semi_axes(Metric.from_signature(1, 1), [2.0, 1.0])
    ref = billiard.iterate(table, [0.1, 0.05], [0.43, 0.17], 3)
    traj = billiard.iterate(table, [0.1, 0.05], np.ldexp([0.43, 0.17], k), 3)
    defects = [r.harmonic for r in ref.records]
    assert len(defects) == 3 and all(d != 0.0 for d in defects)
    assert [r.harmonic for r in traj.records] == defects


@pytest.mark.parametrize("k", [-520, 300, 500, 520, 1000])
def test_iterate_reads_long_and_short_directions_at_unit_scale(k):
    # at k = 520 the outgoing <w, w> ~ 2^1040 overflows: energy is inf, and
    # no square raises a RuntimeWarning on the way
    table = billiard.QuadricBoundary.from_semi_axes(Metric.from_signature(1, 1), [2.0, 1.0])
    ref = billiard.iterate(table, [0.1, 0.05], [0.43, 0.17], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = billiard.iterate(table, [0.1, 0.05], np.ldexp([0.43, 0.17], k), 3)
    assert traj.status == ref.status == "ok" and len(traj) == 3
    assert traj.points().tobytes() == ref.points().tobytes()
    for r, r0 in zip(traj.records, ref.records):
        assert r.harmonic == r0.harmonic
        assert r0.energy > 0.0
        assert r.energy == (math.ldexp(r0.energy, 2 * k) if 2 * k < 1024 else math.inf)


@pytest.mark.parametrize("k", [-40, 40, 100])
def test_iterate_orbit_does_not_depend_on_direction_length(k):
    table = billiard.QuadricBoundary.from_semi_axes(Metric.diagonal([1, -1]), [2.0, 1.0])
    ref = billiard.iterate(table, [0.1, 0.0], [0.43, 0.17], 100)
    traj = billiard.iterate(table, [0.1, 0.0], np.ldexp([0.43, 0.17], k), 100)
    assert traj.status == ref.status and len(traj) == len(ref) > 1
    assert traj.points().tobytes() == ref.points().tobytes()


def test_graph_boundary_bracketed_hit():
    m = Metric.dxdy_plane()
    b = billiard.GraphBoundary(m, f=lambda x: x * x, df=lambda x: 2 * x)
    q, _ = billiard.next_hit(b, np.array([0.5, 1.0]), np.array([0.0, -1.0]))
    assert q[1] == pytest.approx(0.25, abs=1e-10)


def test_bracketed_hit_stops_at_first_crossing():
    # x^4 + y^4 = 1 from the origin along (1, 0): the crossing at s = 1 lies
    # in the 32nd of the brackets, so no bracket beyond it should be evaluated
    calls = []

    def func(q):
        calls.append(1)
        return q[0] ** 4 + q[1] ** 4 - 1.0

    b = billiard.ImplicitBoundary(
        Metric.from_signature(1, 1),
        func,
        lambda q: np.array([4.0 * q[0] ** 3, 4.0 * q[1] ** 3]),
    )
    q, s = billiard.next_hit(b, np.zeros(2), np.array([1.0, 0.0]))
    assert np.max(np.abs(q - [1.0, 0.0])) <= 1e-12
    assert s == pytest.approx(1.0, abs=1e-12)
    assert len(calls) < billiard.N_BRACKETS // 2


def test_newton_polish_that_never_converges_raises():
    # F = -1 left of x = 0.5 and +1 right of it: a sign change, but |F| never
    # falls under NEWTON_TOL
    step = billiard.ImplicitBoundary(
        Metric.from_signature(1, 1),
        lambda q: -1.0 if q[0] < 0.5 else 1.0,
        lambda q: np.zeros(2),
    )
    with pytest.raises(RootNotConvergedError):
        billiard.next_hit(step, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(RootNotConvergedError):
        billiard.iterate(step, [0.0, 0.0], [1.0, 0.0], 3)


def reference_bracketed_hit(boundary, start, direction):
    """The bracketed search with each point formed on its own, the bracket
    ends kept as numpy floats and F evaluated afresh at the lower end of the
    bracket that Newton-bisection starts from, as the kernel did before it
    built all points in one array operation and reused the scan's value."""
    scale = boundary.scale()
    s_max = 8.0 * scale / float(np.linalg.norm(direction))
    # the step floor is a length: a parameter value over the largest |d_i|
    s_floor = billiard.EPS_STEP * scale / float(np.max(np.abs(direction)))
    ss = np.linspace(s_floor, s_max, billiard.N_BRACKETS + 1)
    f_lo = boundary.value(start + ss[0] * direction)
    for i in range(billiard.N_BRACKETS):
        if f_lo == 0.0 and i > 0:
            return start + ss[i] * direction, float(ss[i])
        f_hi = boundary.value(start + ss[i + 1] * direction)
        if f_lo * f_hi < 0.0:
            lo, hi = ss[i], ss[i + 1]
            f_lo = boundary.value(start + lo * direction)
            s = 0.5 * (lo + hi)
            for _ in range(billiard.NEWTON_ITERS):
                q = start + s * direction
                f = boundary.value(q)
                if abs(f) <= billiard.NEWTON_TOL:
                    return start + s * direction, float(s)
                if f_lo * f < 0.0:
                    hi = s
                else:
                    lo, f_lo = s, f
                df = float(boundary.gradient(q) @ direction)
                s_newton = s - f / df if df != 0.0 else None
                s = s_newton if s_newton is not None and lo < s_newton < hi else 0.5 * (lo + hi)
            raise RootNotConvergedError
        f_lo = f_hi
    raise EscapeError


def counted_table(func, grad):
    calls = []

    def value(q):
        calls.append(1)
        return func(q)

    return billiard.ImplicitBoundary(Metric.from_signature(1, 1), value, grad), calls


@pytest.mark.parametrize("table", ["quartic", "ellipse"])
def test_bracketed_hit_matches_point_by_point_reference(table):
    if table == "quartic":
        func = lambda q: q[0] ** 4 + q[1] ** 4 - 1.0  # noqa: E731
        grad = lambda q: np.array([4.0 * q[0] ** 3, 4.0 * q[1] ** 3])  # noqa: E731
    else:
        func = lambda q: q[0] ** 2 / 4.0 + q[1] ** 2 - 1.0  # noqa: E731
        grad = lambda q: np.array([0.5 * q[0], 2.0 * q[1]])  # noqa: E731
    b, calls = counted_table(func, grad)
    rng = np.random.default_rng(11)
    for _ in range(100):
        start = rng.uniform(-0.7, 0.7, 2)
        direction = rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2)
        q, s = billiard.next_hit(b, start, direction)
        n_calls = len(calls)
        calls.clear()
        q_ref, s_ref = reference_bracketed_hit(b, start, direction)
        assert q.tobytes() == q_ref.tobytes()
        assert type(s) is float and s.hex() == s_ref.hex()
        # every hit here ends in a bracket: the kernel saves the reference's
        # second evaluation at its lower end
        assert n_calls == len(calls) - 1
        calls.clear()


def counted_graph(f, df):
    calls = []

    def value(x):
        calls.append(1)
        return f(x)

    return billiard.GraphBoundary(Metric.from_signature(1, 1), value, df), calls


def counted_quartic_3d():
    calls = []

    def value(q):
        calls.append(1)
        return q[0] ** 4 + q[1] ** 4 + q[2] ** 4 - 1.0

    grad = lambda q: np.array([4.0 * q[0] ** 3, 4.0 * q[1] ** 3, 4.0 * q[2] ** 3])  # noqa: E731
    return billiard.ImplicitBoundary(Metric.from_signature(2, 1), value, grad), calls


@pytest.mark.parametrize("table", ["graph", "quartic 3-D"])
def test_bracketed_hit_matches_point_by_point_reference_on_graphs_and_in_3d(table):
    # the kernel forms bracket ends and points on Python floats and passes
    # F a list; the reference forms them in numpy and passes arrays
    rng = np.random.default_rng(14)
    if table == "graph":
        b, calls = counted_graph(lambda x: 0.5 + 0.25 * np.sin(3.0 * x), lambda x: 0.75 * np.cos(3.0 * x))
        starts = np.column_stack([rng.uniform(-0.7, 0.7, 100), rng.uniform(-0.7, 0.2, 100)])
    else:
        b, calls = counted_quartic_3d()
        starts = rng.uniform(-0.7, 0.7, (100, 3))
    hits = 0
    for start in starts:
        direction = rng.normal(size=start.size) * 10.0 ** rng.uniform(-2, 2)
        try:
            q, s = billiard.next_hit(b, start, direction)
        except EscapeError:
            n_calls = len(calls)
            calls.clear()
            with pytest.raises(EscapeError):
                reference_bracketed_hit(b, start, direction)
            assert n_calls == len(calls) == billiard.N_BRACKETS + 1
            calls.clear()
            continue
        n_calls = len(calls)
        calls.clear()
        q_ref, s_ref = reference_bracketed_hit(b, start, direction)
        assert q.tobytes() == q_ref.tobytes()
        assert type(s) is float and s.hex() == s_ref.hex()
        assert n_calls == len(calls) - 1
        calls.clear()
        hits += 1
    assert hits >= 50


class _Bracket(Exception):
    pass


def _capture_bracket(boundary, ray, direction, lo, hi, f_lo):
    raise _Bracket(lo, hi)


@settings(max_examples=200)
@given(
    st.integers(2, 3),
    st.data(),
    # inside _KERNEL_RANGE, and far enough out of it that next_hit rescales
    st.one_of(st.integers(-240, 240), st.integers(260, 700), st.integers(-700, -260)),
    st.integers(1, billiard.N_BRACKETS),
)
def test_scan_bracket_ends_are_linspace_to_the_bit(n, data, k, crossing):
    d = np.ldexp(data.draw(st.lists(_UNIT, min_size=n, max_size=n)), k)
    if np.max(np.abs(d)) < math.ldexp(1e-3, k):
        return
    top = float(np.max(np.abs(d)))
    d_unit = d if 2.0**-250 <= top <= 2.0**250 else np.ldexp(d, -math.frexp(top)[1])
    s_floor = billiard.EPS_STEP / float(np.max(np.abs(d_unit)))
    s_max = 8.0 / float(np.linalg.norm(d_unit))
    ends = np.linspace(s_floor, s_max, billiard.N_BRACKETS + 1).tolist()
    # F is negative at the first `c` bracket ends and positive from the next
    # on, so Newton starts on the bracket (ends[c - 1], ends[c])
    for c in (1, crossing, billiard.N_BRACKETS):
        calls = []

        def value(q):
            calls.append(1)
            return -1.0 if len(calls) <= c else 1.0

        b = billiard.ImplicitBoundary(Metric.from_signature(n - 1, 1), value, lambda q: np.ones(n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(billiard, "_newton_bisect", _capture_bracket)
            with pytest.raises(_Bracket) as caught:
                billiard.next_hit(b, np.zeros(n), d)
        lo, hi = caught.value.args
        assert (lo.hex(), hi.hex()) == (ends[c - 1].hex(), ends[c].hex())


_M2 = Metric.from_signature(1, 1)
LEVEL_SETS = {
    "quadric 2-D": (billiard.QuadricBoundary.from_semi_axes(_M2, [2.0, 1.0]), 2),
    "quadric 3-D": (billiard.QuadricBoundary.from_semi_axes(Metric.diagonal([1, 1, -1]), [3.0, 2.0, 1.0]), 3),
    "implicit": (_QUARTIC, 2),
    "graph": (billiard.GraphBoundary(_M2, f=lambda x: x**3 - x, df=lambda x: 3.0 * x**2 - 1.0), 2),
    "cylinder": (revolution.cylinder(1.5), 3),
    "sine": (revolution.sine_profile(2.0), 3),
    "polynomial": (revolution.polynomial_profile([1.0, 0.3, -0.2]), 3),
}


@pytest.mark.parametrize("name", list(LEVEL_SETS))
def test_level_sets_take_a_point_as_a_list(name):
    table, n = LEVEL_SETS[name]
    rng = np.random.default_rng(15)
    for q in rng.normal(size=(50, n)) * 10.0 ** rng.uniform(-3, 3, (50, 1)):
        as_list = q.tolist()
        assert table.value(as_list).hex() == table.value(q).hex()
        assert table.gradient(as_list).tobytes() == table.gradient(q).tobytes()


def test_revolution_table_bounces_on_the_bracketed_path():
    # the inside of the cylinder x^2 + y^2 = 1 in dx^2 + dy^2 - dz^2: the
    # wall's normals are space-like, so every bounce is regular
    table = revolution.cylinder(1.0)
    m = table.metric
    traj = billiard.iterate(table, [0.2, -0.1, 0.3], [0.6, 0.5, 0.4], 60)
    assert traj.status == "ok" and len(traj) == 60
    for r in traj.records:
        assert abs(float(r.point[0] ** 2 + r.point[1] ** 2) - 1.0) <= 1e-12
        defect = abs(r.energy - m.norm2(r.incoming))
        assert defect / billiard.reflection_scale(m, r.incoming, r.normal) <= 1e-12
    # the vertical velocity is conserved: the wall's normal is horizontal
    assert all(r.outgoing[2] == 0.4 for r in traj.records)


def test_quadric_hit_matches_numpy_scalar_formula():
    table = billiard.QuadricBoundary.from_semi_axes(Metric.from_signature(1, 1), [2.0, 1.0])
    c = table.coeffs
    rng = np.random.default_rng(12)
    for _ in range(200):
        start, direction = rng.uniform(-0.9, 0.9, 2), rng.normal(size=2)
        a, b = float(c @ direction**2), float(c @ (start * direction))
        c0 = float(c @ start**2 - 1.0)
        sq = np.sqrt(b * b - a * c0)
        qv = -(b + np.copysign(sq, b))
        s_ref = max(qv / a, c0 / qv)
        q, s = billiard.next_hit(table, start, direction)
        assert type(s) is float and s.hex() == float(s_ref).hex()
        assert q.tobytes() == (start + s_ref * direction).tobytes()


def test_norm_is_numpy_norm_to_the_bit():
    rng = np.random.default_rng(13)
    for v in rng.normal(size=(500, 2)) * 10.0 ** rng.uniform(-150, 150, (500, 1)):
        assert billiard._norm(v) == float(np.linalg.norm(v))


def test_double_reflection_closed_form():
    t, v = billiard.double_reflection_near_singular(1.0, 1.0, 0.01)
    assert t == pytest.approx(4 * 0.01**2 - 0.01)
    assert t == pytest.approx(-0.0096)
    assert v == pytest.approx((0.01 / t) ** 2, rel=1e-12)
    assert v == pytest.approx(1.0851, abs=1e-4)


def test_double_reflection_limit_parallel():
    vals = []
    for s in (1e-3, 1e-4, 1e-5):
        _, v = billiard.double_reflection_near_singular(1.0, 1.0, s)
        vals.append(abs(v - 1.0))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-4


def test_input_checks_run_at_the_edge_only(input_checks):
    table = billiard.QuadricBoundary.from_semi_axes(Metric.from_signature(1, 1), [2.0, 1.0])
    quadric = quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1))
    x_q, v_q = quadric.random_state(np.random.default_rng(0))
    states = [
        (quadric.surface(), x_q, v_q),
        (revolution.sine_profile(2.0), np.array([2.0 + np.sin(1.0), 0.0, 1.0]), np.array([0.0, 1.0, 0.0])),
    ]
    input_checks.clear()
    traj = billiard.iterate(table, [0.1, 0.0], [0.43, 0.17], 50)
    assert traj.status == "ok" and len(traj) == 50
    # next_hit and reflect check their two vectors each; iterate its two once
    assert len(input_checks) <= 4 * len(traj) + 2
    input_checks.clear()
    for surf, x, v in states:
        surf.acceleration(x, v)
        surf.project(x, v)
        surf.singular_measure(x)
    assert not input_checks
