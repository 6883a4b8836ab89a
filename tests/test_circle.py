import numpy as np
import pytest

from lorentzbilliards import billiard, circle
from lorentzbilliards.errors import StencilError, TrajectoryStopped

TWO_PI = 2.0 * np.pi


def random_chord(rng, margin=0.05):
    """A valid chord avoiding singular angles by at least `margin`."""
    while True:
        t1, t2 = rng.uniform(0.0, TWO_PI, size=2)
        gap = np.mod(t2 - t1, TWO_PI)
        if gap < margin or gap > TWO_PI - margin:
            continue
        if any(
            min(abs(np.mod(t, TWO_PI) - s) for s in (0, np.pi / 2, np.pi, 3 * np.pi / 2, TWO_PI))
            < margin
            for t in (t1, t2)
        ):
            continue
        return circle.ChordCoords(t1, t2)


def engine_t3(t1, t2):
    b = circle.unit_circle_boundary()
    q1, q2 = circle.circle_point(t1), circle.circle_point(t2)
    w1 = billiard.reflect(b, q2, q2 - q1)
    q3, _ = billiard.next_hit(b, q2, w1)
    return np.mod(np.arctan2(q3[1], q3[0]), TWO_PI)


def test_map_matches_reflection_engine():
    rng = np.random.default_rng(0)
    for _ in range(300):
        c = random_chord(rng)
        try:
            out = circle.circle_map(c)
        except TrajectoryStopped:
            continue
        expected = engine_t3(c.t1, c.t2)
        diff = np.mod(out.t2 - expected, TWO_PI)
        assert min(diff, TWO_PI - diff) < 1e-10


def test_map_worked_light_like_step():
    out = circle.circle_map(circle.ChordCoords(np.pi / 6, 5 * np.pi / 6))
    assert np.mod(out.t1, TWO_PI) == pytest.approx(5 * np.pi / 6)
    assert np.mod(out.t2, TWO_PI) == pytest.approx(np.mod(-5 * np.pi / 6, TWO_PI), abs=1e-12)


def test_light_like_orbits_four_periodic():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t1 = rng.uniform(0.05, np.pi / 2 - 0.05)
        c = circle.ChordCoords(t1, np.pi - t1)  # den = sin(t1+t2) = 0
        orb = circle.orbit(c, 4)
        d1 = np.mod(orb[4].t1 - orb[0].t1, TWO_PI)
        assert min(d1, TWO_PI - d1) < 1e-9
        gap0 = np.mod(orb[0].t2 - orb[0].t1, TWO_PI)
        gap4 = np.mod(orb[4].t2 - orb[4].t1, TWO_PI)
        dg = np.mod(gap4 - gap0, TWO_PI)
        assert min(dg, TWO_PI - dg) < 1e-9


def test_diameter_two_periodic_exactly():
    c = circle.ChordCoords(np.pi / 4, 5 * np.pi / 4)
    orb = circle.orbit(c, 2)
    assert np.mod(orb[2].t1, TWO_PI) == pytest.approx(np.mod(orb[0].t1, TWO_PI), abs=1e-13)
    assert np.mod(orb[2].t2, TWO_PI) == pytest.approx(np.mod(orb[0].t2, TWO_PI), abs=1e-13)


def test_validate_degenerate_and_singular():
    with pytest.raises(ValueError):
        circle.ChordCoords(1.0, 1.0).validate()
    with pytest.raises(ValueError):
        circle.ChordCoords(1.0, 1.0 + TWO_PI).validate()
    with pytest.raises(TrajectoryStopped):
        circle.ChordCoords(0.0, 1.0).validate()
    with pytest.raises(TrajectoryStopped):
        circle.ChordCoords(1.0, np.pi / 2).validate()


def test_integral_conserved_along_orbit():
    orb = circle.orbit(circle.ChordCoords(0.3, 1.9), 500)
    vals = [circle.integral_I(c) for c in orb]
    assert max(vals) - min(vals) < 1e-8 * max(1.0, abs(vals[0]))


def test_projective_level_invariant():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = random_chord(rng)
        try:
            tc = circle.circle_map(c)
        except TrajectoryStopped:
            continue
        a = circle.integral_level(c)
        b = circle.integral_level(tc)
        scale = max(abs(a.num), abs(a.den), abs(b.num), abs(b.den), 1.0)
        assert abs(a.num * b.den - b.num * a.den) < 1e-10 * scale


def test_light_like_level_representable():
    lev = circle.integral_level(circle.ChordCoords(np.pi / 6, 5 * np.pi / 6))
    # t1 + t2 = pi, so den = sin(pi) which is zero to rounding
    assert lev.is_light_like(tol=1e-15)
    assert abs(lev.den) < 1e-15
    # an exactly-zero denominator raises instead of dividing
    exact = circle.InvariantLevel(num=lev.num, den=0.0)
    assert exact.is_light_like(tol=0.0)
    with pytest.raises(ZeroDivisionError):
        exact.lam


def test_diameter_level_degenerate_conic():
    lev = circle.integral_level(circle.ChordCoords(np.pi / 4, 5 * np.pi / 4))
    assert lev.num == pytest.approx(1.0)
    assert lev.den == pytest.approx(-1.0)
    cxx, cyy, cxy, rhs = circle.envelope_conic(lev.lam)
    # x^2 + y^2 - 2xy = 0: the degenerate line y = x
    assert (cxx, cyy, cxy) == (1.0, 1.0, -2.0)
    assert rhs == pytest.approx(0.0)


def test_geometric_integral_value_and_involutions():
    c = circle.ChordCoords(np.pi / 6, np.pi / 2 - 0.2)
    q1, q2 = c.endpoints()
    v = circle.chord_direction(c)
    m = circle.dxdy_metric()
    w = c.chord_vector()
    expected = -np.sin(0.5 * (c.t2 - c.t1)) ** 2 / np.sqrt(abs(m.norm2(w)))
    g = circle.geometric_integral(q1, v)
    assert g == pytest.approx(expected, abs=1e-12)
    assert g == pytest.approx(-circle.integral_I(c) / np.sqrt(2.0), abs=1e-12)
    # fixing the evaluation point and reversing the direction flips the sign
    assert circle.geometric_integral(q1, -v) == pytest.approx(-g, abs=1e-12)
    # the departure-endpoint evaluation is orientation independent: the swapped
    # chord departs from q2 with direction -v, and q1.v = -q2.v on a circle
    swapped = circle.ChordCoords(c.t2, c.t1 + TWO_PI)
    assert circle.geometric_integral(q2, circle.chord_direction(swapped)) == pytest.approx(
        g, abs=1e-10
    )
    # reflection at the far endpoint flips the sign as well
    b = circle.unit_circle_boundary()
    v2 = circle.chord_direction(c, unit=False)
    w_out = billiard.reflect(b, q2, v2)
    n2 = m.norm2(w_out)
    w_unit = w_out / np.sqrt(abs(n2))
    assert circle.geometric_integral(q2, w_unit) == pytest.approx(-circle.geometric_integral(q2, v), abs=1e-10)


def test_density_invariance_both_forms():
    rng = np.random.default_rng(3)
    done = 0
    for _ in range(400):
        if done >= 60:
            break
        c = random_chord(rng, margin=0.1)
        try:
            d1 = circle.form_invariance_check("arcirc", c)
            d2 = circle.form_invariance_check("invform", c)
        except (TrajectoryStopped, StencilError):
            continue
        assert d1 < 1e-6
        assert d2 < 1e-6
        done += 1
    assert done >= 60


def test_density_ratio_invariant_function():
    rng = np.random.default_rng(4)
    for _ in range(30):
        c = random_chord(rng, margin=0.1)
        try:
            tc = circle.circle_map(c)
        except TrajectoryStopped:
            continue
        ratio = circle.density_arcirc(c) / circle.density_invform(c)
        ratio_t = circle.density_arcirc(tc) / circle.density_invform(tc)
        assert ratio_t == pytest.approx(ratio, rel=1e-9)


def test_envelope_point_on_conic():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = rng.uniform(-0.9, 0.9)
        alpha = rng.uniform(0, TWO_PI)
        if 1.0 - lam * np.sin(2 * alpha) <= 1e-6:
            continue
        p = circle.envelope_point(alpha, lam)
        assert abs(circle.conic_residual(p, lam)) < 1e-10


def test_conic_double_root_on_y_equals_one():
    # substituting y=1 into the level conic gives (x + lam)^2 = 0
    for lam in (-0.7, 0.3, 0.9):
        cxx, cyy, cxy, rhs = circle.envelope_conic(lam)
        # x^2 + cxy*x + (cyy - rhs) should equal (x + lam)^2
        assert cxy == pytest.approx(2 * lam)
        assert cyy - rhs == pytest.approx(lam**2)


def test_chords_tangent_to_level_conic():
    orb = circle.orbit(circle.ChordCoords(0.3, 1.9), 200)
    lam = circle.integral_level(orb[0]).lam
    for c in orb:
        assert abs(circle.chord_tangency_discriminant(c, lam)) < 1e-8


def test_envelope_conic_lambda_zero_is_circle():
    assert circle.envelope_conic(0.0) == (1.0, 1.0, 0.0, 1.0)


def test_rotation_number_light_like_quarter():
    c = circle.ChordCoords(0.3, np.pi - 0.3)
    orb = circle.orbit(c, 7)  # 8 chords: two full light-like periods
    assert circle.rotation_number(orb) == pytest.approx(0.25, abs=1e-12)


def test_rotation_number_diameter_half():
    orb = circle.orbit(circle.ChordCoords(np.pi / 4, 5 * np.pi / 4), 3)
    assert circle.rotation_number(orb) == pytest.approx(0.5, abs=1e-12)


def test_rotation_number_constant_on_level():
    lam = 0.3
    rhos = []
    for t1 in (0.2, 0.5, 0.8):
        c = circle.point_on_level(lam, t1)
        assert circle.integral_level(c).lam == pytest.approx(lam, abs=1e-10)
        orb = circle.orbit(c, 20000)
        rhos.append(circle.rotation_number(orb))
    assert max(rhos) - min(rhos) < 1e-3
    assert 0.0 < rhos[0] < 1.0


def test_poncelet_consistency():
    """If one orbit of a level closes up after N steps, others on the same
    level close with the same period.  Every orbit on the level 0.5 is
    4-periodic."""
    base = circle.point_on_level(0.5, 0.2)
    orb = circle.orbit(base, 600)
    period = None
    for n in range(1, 600):
        d1 = np.mod(orb[n].t1 - orb[0].t1, TWO_PI)
        d2 = np.mod(orb[n].t2 - orb[0].t2, TWO_PI)
        if min(d1, TWO_PI - d1) < 1e-8 and min(d2, TWO_PI - d2) < 1e-8:
            period = n
            break
    assert period is not None, "level 0.5 orbit is not periodic within 600 steps"
    for t1 in (0.5, 0.8):
        c = circle.point_on_level(0.5, t1)
        orb2 = circle.orbit(c, period)
        d1 = np.mod(orb2[period].t1 - orb2[0].t1, TWO_PI)
        assert min(d1, TWO_PI - d1) < 1e-6


def test_map_jacobian_stencil_error():
    # the lower stencil point t1 - h lands within the singular tolerance
    with pytest.raises(StencilError):
        circle.map_jacobian(circle.ChordCoords(np.pi / 2 + 1e-6 + 5e-10, 2.5), h=1e-6)


def test_to_alpha_p():
    c = circle.ChordCoords(0.4, 1.4)
    ap = circle.to_alpha_p(c)
    assert ap.alpha == pytest.approx(0.9)
    assert ap.p == pytest.approx(np.cos(0.5))
