import sys
import warnings

import numpy as np
import pytest

from lorentzbilliards import billiard, confocal, metric, quadric_flow, revolution, variational
from lorentzbilliards.errors import (
    EscapeError,
    GrazeError,
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


def test_graph_boundary_bracketed_hit():
    m = Metric.dxdy_plane()
    b = billiard.GraphBoundary(m, f=lambda x: x * x, df=lambda x: 2 * x, d2f=lambda x: 2.0)
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


def _count_input_checks(monkeypatch) -> list:
    """Wrap as_vector in every package module that binds it; the returned
    list grows by one per check."""
    calls = []
    original = metric.as_vector

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("lorentzbilliards"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_input_checks_run_at_the_edge_only(monkeypatch):
    table = billiard.QuadricBoundary.from_semi_axes(Metric.from_signature(1, 1), [2.0, 1.0])
    quadric = quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1))
    x_q, v_q = quadric.random_state(np.random.default_rng(0))
    states = [
        (quadric.surface(), x_q, v_q),
        (revolution.sine_profile(2.0).surface(), np.array([2.0 + np.sin(1.0), 0.0, 1.0]), np.array([0.0, 1.0, 0.0])),
    ]
    calls = _count_input_checks(monkeypatch)
    traj = billiard.iterate(table, [0.1, 0.0], [0.43, 0.17], 50)
    assert traj.status == "ok" and len(traj) == 50
    # next_hit and reflect check their two vectors each; iterate its two once
    assert len(calls) <= 4 * len(traj) + 2
    calls.clear()
    for surf, x, v in states:
        surf.acceleration(x, v)
        surf.project(x, v)
        surf.singular_measure(x)
    assert not calls
