import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorentzbilliards
from lorentzbilliards import errors, revolution, surface_flow


def state_on_sine(z0, phi0, v_phi, v_z, s=None):
    """Tangent state on f(z) = 2 + sin z at azimuth phi0."""
    s = s or revolution.sine_profile()
    r = s.f(z0)
    x = np.array([r * np.cos(phi0), r * np.sin(phi0), z0])
    v_r = s.df(z0) * v_z
    e_r = np.array([np.cos(phi0), np.sin(phi0), 0.0])
    e_phi = np.array([-np.sin(phi0), np.cos(phi0), 0.0])
    v = v_r * e_r + v_phi * e_phi + v_z * np.array([0.0, 0.0, 1.0])
    return s, x, v


def test_cylindrical_velocity_decomposition():
    s, x, v = state_on_sine(0.5, 1.1, 0.7, -0.3)
    r, v_r, v_phi, v_z = revolution.cylindrical_velocity(x, v)
    assert r == pytest.approx(s.f(0.5))
    assert v_phi == pytest.approx(0.7)
    assert v_z == pytest.approx(-0.3)
    assert v_r == pytest.approx(s.df(0.5) * -0.3)
    with pytest.raises(ValueError):
        revolution.cylindrical_velocity([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])


def test_cross_ratio_cylinder():
    s = revolution.cylinder(radius=1.5)
    x = np.array([1.5, 0.0, 0.0])
    v = np.array([0.0, 0.8, 0.3])
    assert revolution.cross_ratio(s, x, v) == pytest.approx(0.3 / 0.8)


def test_cross_ratio_azimuthal_zero():
    s, x, v = state_on_sine(0.2, 0.0, 1.0, 0.0)
    assert revolution.cross_ratio(s, x, v) == pytest.approx(0.0)


def test_cross_ratio_meridian_infinite():
    s, x, v = state_on_sine(0.2, 0.0, 0.0, 1.0)
    assert revolution.cross_ratio(s, x, v) == float("inf")


def test_cross_ratio_light_like_one():
    # a light-like tangent state: v_phi^2 = (1 - f'^2) v_z^2 on the surface
    s = revolution.sine_profile()
    z0 = 0.3
    disc = 1.0 - s.df(z0) ** 2
    assert disc > 0.0
    v_z = 1.0
    v_phi = np.sqrt(disc) * v_z
    s, x, v = state_on_sine(z0, 0.4, v_phi, v_z)
    assert s.metric.norm2(v) == pytest.approx(0.0, abs=1e-14)
    assert revolution.cross_ratio(s, x, v) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert revolution.clairaut_invariant(s, x, v) == pytest.approx(0.0, abs=1e-14)


def test_invariant_equals_speed_over_m_squared():
    rng = np.random.default_rng(0)
    s = revolution.sine_profile()
    checked = 0
    for _ in range(100):
        z0 = rng.uniform(-1.0, 1.0)
        if abs(1.0 - s.df(z0) ** 2) < 1e-3:
            continue
        v_phi, v_z = rng.normal(size=2)
        if abs(v_phi) < 1e-3:
            continue
        _, x, v = state_on_sine(z0, rng.uniform(0, 2 * np.pi), v_phi, v_z)
        n2 = s.metric.norm2(v)
        if abs(n2) < 1e-6:
            continue
        # normalize to unit pseudo-norm, then the invariant is 1/m^2 up to sign
        u = v / np.sqrt(abs(n2))
        m = revolution.angular_momentum(x, u)
        inv = revolution.clairaut_invariant(s, x, u)
        assert inv == pytest.approx(np.sign(n2) / m**2, rel=1e-10)
        checked += 1
    assert checked >= 50


def test_invariant_drift_along_geodesic():
    s, x0, v0 = state_on_sine(0.1, 0.0, 1.2, 0.4)
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 50.0, record_every=20)
    vals = [revolution.clairaut_invariant(s, st.x, st.v) for st in run.states]
    assert max(vals) - min(vals) < 1e-8 * max(1.0, abs(vals[0]))


def test_angular_momentum_noether_drift():
    s, x0, v0 = state_on_sine(0.1, 0.3, 1.2, 0.4)
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 50.0, record_every=20)
    ms = [revolution.angular_momentum(st.x, st.v) for st in run.states]
    assert max(ms) - min(ms) < 1e-10 * max(1.0, abs(ms[0]))


def test_causal_class_preserved():
    s, x0, v0 = state_on_sine(0.1, 0.0, 1.2, 0.4)
    m = s.metric
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 30.0, record_every=20)
    n0 = m.norm2(run.states[0].v)
    for st in run.states:
        assert abs(m.norm2(st.v) - n0) < 1e-10 * max(1.0, abs(n0))


def test_tropic_run_budget():
    # criterion 9's space-like state runs into the tropic before length 30
    s, x0, v0 = state_on_sine(0.1, 0.0, 1.2, 0.4)
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 30.0)
    assert run.status == "tropic"
    assert run.stats.rhs_evals <= 330


def test_space_like_radius_bounded_by_momentum():
    s, x0, v0 = state_on_sine(0.1, 0.0, 1.2, 0.4)
    assert s.metric.norm2(v0) > 0.0
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 50.0, record_every=5)
    m0 = abs(revolution.angular_momentum(x0, v0))
    for st in run.states:
        r = float(np.hypot(st.x[0], st.x[1]))
        assert r <= m0 + 1e-8


def test_meridian_stays_meridional():
    s, x0, v0 = state_on_sine(0.1, 0.7, 0.0, 1.0)
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 10.0, record_every=5)
    for st in run.states:
        _, _, v_phi, _ = revolution.cylindrical_velocity(st.x, st.v)
        assert abs(v_phi) < 1e-10


def test_time_like_geodesic_hits_tropic_vertically():
    s, x0, v0 = state_on_sine(1.5, 0.0, 0.3, 1.0)
    assert s.metric.norm2(v0) < 0.0
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 50.0, stall_factor=1e-6)
    assert run.status == "tropic"
    zf = float(run.final.x[2])
    assert abs(1.0 - s.df(zf) ** 2) < 1e-4
    assert revolution.meridian_angle(s, run.final.x, run.final.v) < 1e-3
    assert run.stats.rhs_evals <= 800
    # the integrator's other typed outcome is exported from the package
    assert lorentzbilliards.StepUnderflowError is errors.StepUnderflowError


@pytest.mark.parametrize("stall_factor", [float("nan"), 0.0, -1.0, 1.0, 2.0, float("inf")])
def test_stall_factor_outside_the_unit_interval_is_refused(stall_factor):
    # NaN, 0 or -1 would never stop the run at the tropic, 2.0 would stop it
    # after one step
    s, x0, v0 = state_on_sine(1.5, 0.0, 0.3, 1.0)
    with pytest.raises(ValueError, match="stall_factor"):
        revolution.integrate_revolution_geodesic(s, x0, v0, 50.0, stall_factor=stall_factor)


def test_profile_registry():
    poly = revolution.polynomial_profile([2.0, 0.0, 0.1])
    assert poly.f(1.0) == pytest.approx(2.1)
    assert poly.df(1.0) == pytest.approx(0.2)
    assert poly.d2f(1.0) == pytest.approx(0.2)
    assert set(revolution.PROFILES) == {"cylinder", "sine", "polynomial"}


@pytest.mark.parametrize(
    "s",
    [revolution.cylinder(2), revolution.sine_profile(2), revolution.polynomial_profile([2, 0, 1])],
    ids=["cylinder", "sine", "polynomial"],
)
def test_profiles_and_kernel_return_python_floats(s):
    # a numpy scalar out of a profile would run the whole kernel on numpy
    # scalar arithmetic
    for z in (-1.3, 0.0, 0.4):
        for g in (s.f, s.df, s.d2f):
            assert type(g(z)) is float
    _, x, v = state_on_sine(0.4, 0.3, 1.0, 0.5, s)
    dp, meas = s.acceleration(x.tolist(), v.tolist())
    assert [type(c) for c in [*dp, meas]] == [float] * 4


def test_metric_is_built_once():
    s = revolution.sine_profile()
    assert s.metric is revolution.cylinder().metric


def test_profile_is_its_own_level_set():
    s = revolution.sine_profile()
    assert isinstance(s, surface_flow.ImplicitSurface)


@pytest.mark.parametrize(
    "build",
    [lambda: revolution.cylinder(0.0), lambda: revolution.cylinder(-1.0),
     lambda: revolution.sine_profile(1.0)],
    ids=["cylinder 0", "cylinder -1", "sine 1"],
)
def test_profiles_that_reach_the_axis_are_rejected(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize(
    "coeffs",
    [[], [0.0], [-1.0, 0.0], [float("nan")], [float("inf"), 1.0], [[2.0, 1.0]], 2.0],
    ids=["empty", "zero", "negative constant", "nan", "inf", "2-D", "scalar"],
)
def test_unusable_polynomial_profiles_are_rejected(coeffs):
    with pytest.raises(ValueError):
        revolution.polynomial_profile(coeffs)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6).filter(
        lambda c: any(c[1:]) or c[0] > 0.0
    ),
    st.floats(-5.0, 5.0),
)
def test_polynomial_profile_matches_polyval_to_the_bit(coeffs, z):
    p = revolution.polynomial_profile(coeffs)
    desc = np.asarray(coeffs, dtype=float)[::-1]
    d1 = np.polyder(desc)
    assert p.f(z) == np.polyval(desc, z)
    assert p.df(z) == np.polyval(d1, z)
    assert p.d2f(z) == np.polyval(np.polyder(d1), z)


def test_underflow_near_the_axis_names_z_and_the_radius():
    # f = 1 - 0.2 z^2 reaches the axis at z = sqrt(5); the run gets there
    # before its length is used up, and the step collapses
    s = revolution.polynomial_profile([1.0, 0.0, -0.2])
    with pytest.raises(errors.StepUnderflowError) as info:
        revolution.integrate_revolution_geodesic(s, [1.0, 0.0, 0.0], [0.0, 0.2, 1.0], 1.8)
    z = float(info.value.state.x[2])
    assert z == pytest.approx(np.sqrt(5.0), abs=1e-3)
    assert abs(s.f(z)) < 1e-3
    message = str(info.value)
    assert message.startswith("adaptive step size collapsed")
    assert f"at z = {z:.6g}, where the radius r = f(z) = {s.f(z):.3g}" in message
    assert "axis of revolution" in message
    assert isinstance(info.value.__cause__, errors.StepUnderflowError)


def test_cylinder_geodesic_is_helix():
    s = revolution.cylinder(radius=1.0)
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 1.0, 0.5])
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 4.0, record_every=10)
    for st in run.states:
        assert np.hypot(st.x[0], st.x[1]) == pytest.approx(1.0, abs=1e-10)
        assert st.x[2] == pytest.approx(0.5 * st.t, abs=1e-8)


@pytest.mark.parametrize(
    "omega, c", [(1.0, 0.5), (0.8, 1.04), (0.5, 1.2)], ids=["space", "light", "time"]
)
def test_cylinder_geodesics_follow_the_closed_form_helix(omega, c):
    # on r = 1.3 every geodesic is x = (r cos wt, r sin wt, ct), of the class
    # of (r w)^2 - c^2: here 1.44, 0 and -1.017
    r = 1.3
    s = revolution.cylinder(r)
    run = revolution.integrate_revolution_geodesic(s, [r, 0.0, 0.0], [0.0, r * omega, c], 10.0)
    assert run.status == "ok" and run.final.t == 10.0
    t = np.array([st.t for st in run.states])
    wt = omega * t
    x = np.stack([r * np.cos(wt), r * np.sin(wt), c * t], axis=1)
    v = np.stack([-r * omega * np.sin(wt), r * omega * np.cos(wt), np.full_like(t, c)], axis=1)
    assert np.max(np.abs(run.positions() - x)) <= 1e-8
    assert np.max(np.abs(run.velocities() - v)) <= 1e-8


@st.composite
def profile_states(draw):
    """A sine or convex quadratic profile, both off the axis everywhere, and
    a tangent state on it that is not a meridian (Clairaut's invariant
    divides by v_phi)."""
    if draw(st.booleans()):
        s = revolution.sine_profile(draw(st.floats(1.2, 3.0)))
    else:
        # f = c0 + c1 z + c2 z^2 >= c0 - c1^2 / (4 c2) >= 0.55
        s = revolution.polynomial_profile(
            [draw(st.floats(1.0, 2.0)), draw(st.floats(-0.3, 0.3)), draw(st.floats(0.05, 0.3))]
        )
    z0 = draw(st.floats(-1.0, 1.0))
    v_phi = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    # starts near or on the tropic |f'| = 1 (sine at z = 0) are drawn too
    return state_on_sine(z0, draw(st.floats(0.0, 6.0)), v_phi, draw(st.floats(-2.0, 2.0)), s)


@settings(max_examples=40)
@given(profile_states())
def test_random_profile_geodesics_conserve_and_stop_on_the_state(state):
    s, x0, v0 = state
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 3.0)
    s0 = run.states[0]
    c0 = revolution.clairaut_invariant(s, s0.x, s0.v)
    for st_ in run.states:
        c = revolution.clairaut_invariant(s, st_.x, st_.v)
        assert abs(c - c0) <= 1e-6 * max(1.0, abs(c0))
    if run.status == "ok":
        assert run.final.t == 3.0
        return
    assert run.status == "tropic"
    assert run.final.t < 3.0
    ref = abs(s.singular_measure(s0.x))
    if len(run.states) == 1:
        # a start on the locus to rounding stops at once
        assert run.stats.rhs_evals == 0
        assert 1e-3 * ref <= surface_flow.MEASURE_ROUNDING
        return
    last, before = (s.singular_measure(st_.x) for st_ in run.states[-1:-3:-1])
    assert last * before < 0.0 or abs(last) < 1e-3 * ref


@pytest.mark.parametrize("offset", [1.2, 2.0])
@pytest.mark.parametrize("z0", [0.14, 1e-2, 1e-3, 1e-5])
@pytest.mark.parametrize("v_phi, v_z", [(1.0, 0.5), (0.3, -2.0)])
def test_starts_near_the_tropic_stop_within_budget(offset, z0, v_phi, v_z):
    # 0.99 <= |f'(z0)| < 1: the measure at the start is 5e-3 down to 5e-11,
    # and each run reaches the tropic in 156 to 395 right-hand sides
    s, x0, v0 = state_on_sine(z0, 0.3, v_phi, v_z, revolution.sine_profile(offset))
    assert 0.99 <= abs(s.df(z0)) < 1.0
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 3.0)
    assert run.status == "tropic"
    assert run.stats.rhs_evals <= 440
    vals = [revolution.clairaut_invariant(s, st_.x, st_.v) for st_ in run.states]
    assert max(vals) - min(vals) <= 1e-6 * max(1.0, abs(vals[0]))


def test_long_run_far_from_the_tropic_keeps_its_cost():
    # the measure runs between 0.13 and 1 and never nears 0: here tau is t
    # up to a factor within 7% of 1, and the run costs what stepping in t did
    # (10 215 right-hand sides)
    s, x0, v0 = state_on_sine(-0.5, 0.0, 2.0, 0.3)
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 30.0)
    assert run.status == "ok" and run.final.t == 30.0
    assert run.stats.rhs_evals <= 11000
    vals = [revolution.clairaut_invariant(s, st_.x, st_.v) for st_ in run.states]
    assert max(vals) - min(vals) <= 1e-8 * max(1.0, abs(vals[0]))


@pytest.mark.parametrize("rel", [-1e-3, -1e-9, 0.0, 1e-14, 1e-9, 1e-3])
def test_a_run_never_ends_past_its_length(rel):
    # lengths around the time-like run's tropic stop: a run ends ok at
    # exactly t = length or tropic before it
    s, x0, v0 = state_on_sine(1.5, 0.0, 0.3, 1.0)
    stop = revolution.integrate_revolution_geodesic(s, x0, v0, 50.0, stall_factor=1e-6).final.t
    length = stop * (1.0 + rel)
    run = revolution.integrate_revolution_geodesic(s, x0, v0, length, stall_factor=1e-6)
    assert run.final.t <= length
    assert run.status == "tropic" or run.final.t == length


def test_start_on_the_tropic_stops_at_once():
    # f = 2 + sin z has f'(0) = 1: the induced metric is degenerate at z = 0
    s = revolution.sine_profile(2.0)
    run = revolution.integrate_revolution_geodesic(s, [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], 5.0)
    assert run.status == "tropic"
    assert len(run.states) == 1 and run.stats.rhs_evals == 0
