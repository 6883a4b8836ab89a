import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lorentzbilliards import billiard, circle, confocal, quadric_flow
from lorentzbilliards.errors import TrajectoryStopped
from lorentzbilliards.metric import Metric

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
    assert abs(lev.den) < 1e-15
    # an exactly-zero denominator raises instead of dividing
    exact = circle.InvariantLevel(num=lev.num, den=0.0)
    assert exact.is_light_like()
    with pytest.raises(ZeroDivisionError):
        exact.lam


def test_diameter_level_degenerate_conic():
    lev = circle.integral_level(circle.ChordCoords(np.pi / 4, 5 * np.pi / 4))
    assert lev.num == pytest.approx(1.0)
    assert lev.den == pytest.approx(-1.0)
    # x^2 + y^2 - 2xy = (x - y)^2: the degenerate line y = x
    for x, y in ((0.3, 0.3), (-2.0, -2.0), (1.0, 0.0), (0.2, -0.5)):
        assert circle.conic_residual([x, y], lev.lam) == pytest.approx((x - y) ** 2, abs=1e-12)


def test_geometric_integral_value_and_involutions():
    c = circle.ChordCoords(np.pi / 6, np.pi / 2 - 0.2)
    q1, q2 = c.endpoints()
    v = circle.chord_direction(c)
    m = Metric.dxdy_plane()
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
    v2 = c.chord_vector()
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
        except TrajectoryStopped:
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
        assert circle.conic_residual([-lam, 1.0], lam) == 0.0
        for x in (-1.5, 0.0, 0.4, 2.0):
            assert circle.conic_residual([x, 1.0], lam) == pytest.approx((x + lam) ** 2, abs=1e-12)


def test_chords_tangent_to_level_conic():
    orb = circle.orbit(circle.ChordCoords(0.3, 1.9), 200)
    lam = circle.integral_level(orb[0]).lam
    for c in orb:
        assert abs(circle.chord_tangency_discriminant(c, lam)) < 1e-8


def test_envelope_conic_lambda_zero_is_circle():
    # the level-0 conic is x^2 + y^2 = 1
    for t in np.linspace(0.0, TWO_PI, 17):
        assert abs(circle.conic_residual(circle.circle_point(t), 0.0)) < 1e-15
    assert circle.conic_residual([0.0, 0.0], 0.0) == -1.0


def _caustic_spectrum(c):
    """The caustic family's members tangent to the chord, in the null frame."""
    (x, y), _ = c.endpoints()
    wx, wy = c.chord_vector()
    return confocal.tangent_spectrum_of_line(
        circle.caustic_family(), [x + y, x - y], [wx + wy, wx - wy]
    )


def test_caustic_family_is_built_once():
    assert circle.caustic_family() is circle.caustic_family()


def test_levels_are_caustic_family_parameters():
    """In the null frame every chord of level lam touches exactly one member
    of the caustic family, the member -2 lam.  Chords with |w_x w_y| < 1e-3 |w|^2
    are left out: near the light cone the leading coefficient, proportional to
    <w, w>, vanishes and the root loses its accuracy (off by 1.6e-3 at a chord
    with |w_x w_y| = 6e-10 |w|^2 from this seed)."""
    rng = np.random.default_rng(23)
    levels = []
    while len(levels) < 800:
        t1, gap = rng.uniform(0.0, TWO_PI), rng.uniform(0.1, TWO_PI - 0.1)
        try:
            orb = circle.orbit(circle.ChordCoords(t1, t1 + gap), 100)
        except TrajectoryStopped:
            continue
        for c in orb:
            w = c.chord_vector()
            if abs(w[0] * w[1]) < 1e-3 * float(w @ w):
                continue
            lam = circle.integral_level(c).lam
            spec = _caustic_spectrum(c)
            assert spec.count == 1 and not spec.degenerate
            assert abs(spec.values[0] + 2.0 * lam) <= 1e-10 * max(1.0, abs(lam))
            levels.append(lam)
    levels = np.abs(levels)
    assert (levels < 1.0).any() and (levels > 1.0).any()


def test_caustic_spectrum_of_light_like_and_diameter_chords():
    # t1 + t2 = pi: a light-like chord touches no member
    spec = _caustic_spectrum(circle.ChordCoords(0.4, np.pi - 0.4))
    assert spec.count == 0 and spec.pole_values.size == 0
    # the diameter of level -1 touches the member 2, a pole of the family:
    # the double line y = x
    spec = _caustic_spectrum(circle.ChordCoords(np.pi / 4, 5 * np.pi / 4))
    assert spec.count == 0
    assert spec.pole_values.tolist() == [2.0]


def test_circle_billiard_is_the_conic_billiard_in_the_null_frame():
    """The billiard in u^2 + v^2 = 2 with metric diag(1, -1) is the circle
    billiard in (u, v) = (x + y, x - y): it keeps one caustic, the member -2 lam
    for lam the circle level of its chords."""
    q = quadric_flow.QuadricSurface((2.0, 2.0), (1, -1))
    rng = np.random.default_rng(29)
    for _ in range(12):
        traj = quadric_flow.billiard_in_quadric(q, rng.uniform(-0.5, 0.5, 2), rng.normal(size=2), 200)
        assert traj.status == "ok"
        lines = quadric_flow.billiard_chord_lines(traj)
        spread, size = quadric_flow.jacobi_chasles_check(q, lines)
        assert size == 1 and spread <= 1e-6
        # the chord from the first hit to the second, in circle angles
        (u1, v1), (u2, v2) = traj.records[0].point, traj.records[1].point
        t1 = np.arctan2(u1 - v1, u1 + v1)
        t2 = np.arctan2(u2 - v2, u2 + v2)
        lam = circle.integral_level(circle.ChordCoords(t1, t2)).lam
        (caustic,) = quadric_flow.tangency_spectra(q, lines[1:2])[0]
        assert abs(caustic + 2.0 * lam) <= 1e-9 * max(1.0, abs(lam))


def test_circle_singular_band_covers_the_billiards():
    # every point near a singular angle where the general billiard's normal
    # is light-like (up to about 1e-10 away) is one the circle refuses too (up
    # to EPS_SING = 1e-9).  The circle's band is the wider one and cannot
    # shrink alone: a chord that ends delta from a singular angle maps to one
    # whose gap is about 2 delta mod 2 pi, which `ChordCoords.validate`
    # refuses under the same EPS_SING.
    b = circle.unit_circle_boundary()
    refused = 0
    for k in range(-4, 9):
        for delta in np.geomspace(1e-12, 1e-8, 400):
            for t in (k * np.pi / 2 - delta, k * np.pi / 2 + delta):
                if billiard.is_singular(b, circle.circle_point(t)):
                    assert circle.angle_is_singular(t)
                    refused += 1
    assert refused > 0


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


def _closure_residual(lam: float, t1: float = 0.7, q: int = 3) -> float:
    """The angle swept by the first q chords of the orbit from t1 on the level
    lam, less one turn: zero on the level whose orbits close after q steps
    around the circle once."""
    chords = circle.orbit(circle.point_on_level(lam, t1), q - 1)
    return sum(np.mod(c.t2 - c.t1, TWO_PI) for c in chords) - TWO_PI


def test_poncelet_closure_at_period_three():
    """The 3-step closure residual, monotone across [0.85, 0.88], has its
    root at the level sqrt(3)/2; every orbit there that has a chord closes
    after 3 steps, and the other starts have no chord on the level."""
    from scipy.optimize import brentq

    lam = np.sqrt(3.0) / 2.0
    assert _closure_residual(0.85) < 0.0 < _closure_residual(0.88)
    assert brentq(_closure_residual, 0.85, 0.88, xtol=1e-15) == pytest.approx(lam, abs=1e-12)
    starts = np.linspace(0.1, 6.2, 25)
    closed, no_chord = [], []
    for t1 in starts:
        try:
            c = circle.point_on_level(lam, float(t1))
        except ValueError as exc:
            assert "no chord" in str(exc)
            no_chord.append(float(t1))
            continue
        orb = circle.orbit(c, 3)
        for start, end in ((orb[0].t1, orb[3].t1), (orb[0].t2, orb[3].t2)):
            d = np.mod(end - start, TWO_PI)
            assert min(d, TWO_PI - d) < 1e-9
        closed.append(float(t1))
    assert len(closed) == 21
    assert no_chord == list(starts[[8, 9, 21, 22]])  # t1 = 2.13, 2.39, 5.44, 5.69


def test_dxdy_metric_is_built_once():
    assert Metric.dxdy_plane() is Metric.dxdy_plane()
    assert circle.unit_circle_boundary().metric is Metric.dxdy_plane()


LO, HI = circle.LEVEL_BRACKET


def exact_roots(lam, t1):
    """The level equation from the reduced start angle t1 at 50 digits, lam
    and t1 read as exact: g(dt) = sin^2(dt/2) - lam sin(2 t1 + dt)
    = 1/2 - R cos(dt - phi), whose roots are phi -+ arccos(1/(2R)).
    Returns the roots mod 2 pi in order, |g'| at them, R sin(arccos(1/(2R))),
    and g at its minimum phi, 1/2 - R."""
    with mpmath.workdps(50):
        lam, t1 = mpmath.mpf(lam), mpmath.mpf(t1)
        p = mpmath.mpf(0.5) + lam * mpmath.sin(2 * t1)
        q = lam * mpmath.cos(2 * t1)
        r, phi = mpmath.hypot(p, q), mpmath.atan2(q, p)
        if 2 * r < 1:
            return [], mpmath.mpf(0), mpmath.mpf(0.5) - r
        half = mpmath.acos(1 / (2 * r))
        roots = sorted((x % (2 * mpmath.pi)) for x in (phi - half, phi + half))
        return roots, r * mpmath.sin(half), mpmath.mpf(0.5) - r


def exact_g(lam, t1, dt):
    with mpmath.workdps(50):
        dt = mpmath.mpf(dt)
        return mpmath.sin(dt / 2) ** 2 - mpmath.mpf(lam) * mpmath.sin(2 * mpmath.mpf(t1) + dt)


def check_first_root(lam, t1):
    """Assert that point_on_level(lam, t1) finds the first exact root of g
    in LEVEL_BRACKET, to g's rounding; return "chord", "no chord" or
    "tangent".

    g's rounding, about tau = 2e-15 max(1, |lam|), blurs a root by tau/|g'|:
    a root that close to an end of the bracket may be taken or not, and a
    level whose minimum |g(phi)| <= tau is tangent to rounding, where either
    outcome may come out, a chord only with a small residual."""
    t1 = t1 % TWO_PI
    roots, slope, g_min = exact_roots(lam, t1)
    tau = 2e-15 * max(1.0, abs(lam))
    tangent = abs(g_min) <= tau
    blur = 4.0 * tau / slope if slope > 0.0 else np.inf
    firm = [r for r in roots if LO + blur < r < HI - blur]
    try:
        c = circle.point_on_level(lam, t1)
    except ValueError as exc:
        assert str(exc).startswith("no chord")
        assert tangent or not firm, (lam, t1, firm)
        return "tangent" if tangent else "no chord"
    assert c.t1 == t1
    dt = mpmath.mpf(c.t2) - mpmath.mpf(c.t1)
    assert LO - 2e-15 <= dt <= HI + 2e-15  # t2 = t1 + dt is rounded
    assert abs(exact_g(lam, t1, dt)) <= 1e-14 * max(1.0, abs(lam)), (lam, t1)
    if tangent:
        return "tangent"
    nearest = min(roots, key=lambda r: abs(r - dt))
    assert abs(dt - nearest) <= 2e-14 + blur, (lam, t1, float(dt), float(nearest))
    assert not [r for r in firm if r < nearest], (lam, t1)
    return "chord"


def _check_all(cases):
    """check_first_root on every (lam, t1); the count of each outcome."""
    kinds = [check_first_root(lam, t1) for lam, t1 in cases]
    return {kind: kinds.count(kind) for kind in ("chord", "no chord", "tangent")}


def test_point_on_level_matches_the_oracle_on_uniform_levels():
    rng = np.random.default_rng(5)
    cases = [(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, TWO_PI))) for _ in range(2000)]
    kinds = _check_all(cases)
    assert kinds["chord"] >= 1500 and kinds["no chord"] >= 100


def test_point_on_level_takes_an_exact_root():
    # g is exactly 0, changing sign, at dt = 0.06245973881780417 (the sixth
    # point of the 512-point grid that point_on_level once scanned); the chord
    # with that gap is found, not a far one, from t1 and from angles 1e-12
    # either side, where sin(2 t1 + dt) rounds to 1 all the same
    dt = 0.06245973881780417
    lam = float(np.sin(0.5 * dt) ** 2)
    t1 = (0.5 * np.pi - dt) / 2
    assert np.sin(0.5 * dt) ** 2 - lam * np.sin(t1 + (t1 + dt)) == 0.0
    for t in (t1, t1 - 1e-12, t1 + 1e-12):
        c = circle.point_on_level(lam, t)
        assert c.t2 - c.t1 == pytest.approx(dt, abs=1e-12)


def test_point_on_level_matches_the_oracle_near_tangency():
    # lam = -sin(2 t1) (1 + eps) puts 4R^2 - 1 at about 4 eps sin^2(2 t1):
    # the two roots merge, a chord for eps > 0 and none for eps < 0, beyond
    # g's rounding of 0 at its minimum
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(1500):
        t1 = float(rng.uniform(0.0, TWO_PI))
        eps = float(10.0 ** rng.uniform(-16.0, -3.0) * rng.choice([-1.0, 1.0]))
        cases.append((float(-np.sin(2.0 * t1) * (1.0 + eps)), t1))
    kinds = _check_all(cases)
    assert kinds["chord"] >= 400 and kinds["no chord"] >= 400 and kinds["tangent"] >= 100


def test_point_on_level_matches_the_oracle_at_the_bracket_ends():
    # g's root at LEVEL_BRACKET's lower or upper end to rounding; lam and t1
    # are then moved by a few ulps either way, so that the root falls just
    # inside or just outside the bracket
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(60):
        end = float(rng.choice(circle.LEVEL_BRACKET))
        theta = float(rng.uniform(0.05, np.pi - 0.05) * rng.choice([-1.0, 1.0]))
        t1 = float(np.mod(0.5 * (theta - end), TWO_PI))
        lam = float(np.sin(0.5 * end) ** 2 / np.sin(t1 + (t1 + end)))
        for ulps in (-3, -1, 0, 1, 3):
            lam_u = lam
            for _ in range(abs(ulps)):
                lam_u = float(np.nextafter(lam_u, np.copysign(np.inf, ulps)))
            for t in (t1, float(np.nextafter(t1, 0.0)), float(np.nextafter(t1, 7.0))):
                cases.append((lam_u, t))
    kinds = _check_all(cases)
    assert kinds["chord"] >= 600 and kinds["no chord"] >= 100
    at_an_end = 0
    for lam, t1 in cases:
        try:
            c = circle.point_on_level(lam, t1)
        except ValueError:
            continue
        at_an_end += min(abs(c.t2 - c.t1 - end) for end in circle.LEVEL_BRACKET) < 1e-9
    # 278 of the 900 chords were the root at an end when this was written
    assert at_an_end >= 200


def test_point_on_level_matches_the_oracle_on_large_levels():
    # |lam| up to 1e3, uniform and log-uniform: R ~ |lam|, so the roots sit
    # near phi -+ pi/2 and g spans about 2|lam|
    rng = np.random.default_rng(20)
    cases = [
        (float(rng.uniform(-1e3, 1e3)), float(rng.uniform(0.0, TWO_PI))) for _ in range(1000)
    ]
    cases += [(float(10.0 ** rng.uniform(0.0, 3.0) * rng.choice([-1.0, 1.0])), float(t))
              for t in rng.uniform(0.0, TWO_PI, 500)]
    assert _check_all(cases)["chord"] == len(cases)


def test_point_on_level_matches_the_oracle_when_the_second_root_comes_first():
    # phi within `half` of 0: phi + half is the lower root mod 2 pi, and g is
    # negative at both ends of the bracket.  P = R cos phi and
    # Q = R sin phi with R = 1/(2 cos half) give lam and t1.
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(1000):
        half = float(rng.uniform(0.01, 1.55))
        phi = float(rng.uniform(-half, half))
        r = 0.5 / np.cos(half)
        p, q = r * np.cos(phi), r * np.sin(phi)
        lam, angle = float(np.hypot(p - 0.5, q)), float(np.arctan2(p - 0.5, q))
        t1 = float(np.mod(0.5 * angle, TWO_PI))
        roots, _, _ = exact_roots(lam, t1)
        if len(roots) == 2 and roots[1] - roots[0] > np.pi and roots[0] > LO:
            cases.append((lam, t1))
    assert len(cases) > 900
    assert _check_all(cases)["chord"] >= len(cases) * 9 // 10


@given(
    st.one_of(st.floats(-3.0, 3.0), st.floats(-1e3, 1e3), st.floats(-1e308, 1e308)),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
def test_point_on_level_is_on_the_level_and_first(lam, t1):
    # the level residual, and no sign change of g on [lo, dt) beyond rounding
    check_first_root(lam, t1)
    try:
        c = circle.point_on_level(lam, t1)
    except ValueError:
        return
    lev = circle.integral_level(c)
    assert abs(lev.num - lam * lev.den) <= 1e-14 * max(1.0, abs(lam))


@pytest.mark.parametrize("t1", [1e8, 1e16, 1e17, 1e308, -1e300])
@pytest.mark.parametrize("lam", [-0.7, 0.3, 0.5, 2.0])
def test_point_on_level_solves_from_the_reduced_start_angle(lam, t1):
    # t1 + dt rounds to t1 near 1e17; the chord starts at t1 mod 2 pi
    assert outcome(circle.point_on_level, lam, t1) == outcome(circle.point_on_level, lam, t1 % TWO_PI)
    try:
        c = circle.point_on_level(lam, t1)
    except ValueError as exc:
        assert str(exc).startswith("no chord")
        return
    assert c.t1 == t1 % TWO_PI
    assert circle.LEVEL_BRACKET[0] <= c.t2 - c.t1 <= circle.LEVEL_BRACKET[1]
    lev = circle.integral_level(c)
    assert abs(lev.num - lam * lev.den) / max(1.0, abs(lev.num), abs(lev.den)) <= 1e-10


@pytest.mark.parametrize("lam", [1e308, -1e308, 1.7e308])
def test_point_on_level_matches_the_oracle_on_huge_levels(lam):
    # g spans 2|lam|, near the largest float; its roots sit where
    # sin(2 t1 + dt) = 0, and phi needs no R, so nothing overflows
    with np.errstate(all="raise"):
        kinds = _check_all([(lam, t1) for t1 in (0.3, 2.0, 4.0, 1.0, 5.5)])
    assert kinds["chord"] == 5


def test_orbit_step_count_is_checked():
    c = circle.ChordCoords(0.3, 1.9)
    assert circle.orbit(c, 0) == [c]
    assert len(circle.orbit(c, np.int64(2))) == 3
    for bad in (-1, -3, 2.0, "3", None):
        with pytest.raises(ValueError, match="count"):
            circle.orbit(c, bad)


def central_difference_jacobian(c, h=1e-6):
    """Central difference of circle_map in (t1, t2), each difference of
    image angles taken modulo 2 pi."""
    cols = []
    for dt1, dt2 in ((h, 0.0), (0.0, h)):
        cp = circle.circle_map(circle.ChordCoords(c.t1 + dt1, c.t2 + dt2))
        cm = circle.circle_map(circle.ChordCoords(c.t1 - dt1, c.t2 - dt2))
        diff = np.array([cp.t1 - cm.t1, cp.t2 - cm.t2])
        cols.append((np.mod(diff + np.pi, TWO_PI) - np.pi) / (2 * h))
    return np.array(cols).T


def test_map_jacobian_matches_a_central_difference():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 1000:
        c = random_chord(rng, margin=0.1)
        try:
            ref = central_difference_jacobian(c)
        except TrajectoryStopped:
            continue
        jac = circle.map_jacobian(c)
        assert np.max(np.abs(jac - ref)) <= 1e-7 * max(1.0, np.max(np.abs(jac)))
        checked += 1


def test_map_jacobian_stops_where_the_map_stops():
    # a chord from t2 = 1 whose image ends at the singular angle 0, solved
    # from cot((t2-t1)/2) + cot((t2-t3)/2) = 2 cot(2 t2)
    half = 0.5 * np.pi - np.arctan(2.0 / np.tan(2.0) - 1.0 / np.tan(0.5))
    chords = [
        (circle.ChordCoords(1.0 - 2.0 * half, 1.0), TrajectoryStopped),
        (circle.ChordCoords(np.pi / 2 + 5e-10, 2.5), TrajectoryStopped),
        (circle.ChordCoords(0.4, 0.4), ValueError),
    ]
    for chord, error in chords:
        with pytest.raises(error):
            circle.circle_map(chord)
        with pytest.raises(error):
            circle.map_jacobian(chord)


def test_to_alpha_p():
    c = circle.ChordCoords(0.4, 1.4)
    ap = circle.to_alpha_p(c)
    assert ap.alpha == pytest.approx(0.9)
    assert ap.p == pytest.approx(np.cos(0.5))


# -- non-finite angles and levels ---------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.inf)])
def test_nonfinite_angles_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        circle.angle_is_singular(bad)
    for chord in (circle.ChordCoords(bad, 1.0), circle.ChordCoords(1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            chord.validate()
        with pytest.raises(ValueError, match="finite"):
            circle.circle_map(chord)
        with pytest.raises(ValueError, match="finite"):
            circle.orbit(chord, 3)


@pytest.mark.parametrize("lam, t1", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)])
def test_point_on_level_rejects_nonfinite_input(lam, t1):
    with pytest.raises(ValueError, match="finite"):
        circle.point_on_level(lam, t1)


# -- the float kernels against the numpy formulas they replaced ---------------

# angles across +-1e6, within 1e-8 of a multiple of pi/2, and signed zeros
ANGLES = st.one_of(
    st.floats(-1e6, 1e6),
    st.builds(lambda k, e: k * (0.5 * np.pi) + e, st.integers(-40, 40), st.floats(-1e-8, 1e-8)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.pi, TWO_PI, -TWO_PI, 2.5 * np.pi]),
)
_SINGULAR = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, TWO_PI])


def numpy_angle_is_singular(t):
    return bool(np.min(np.abs(np.mod(t, TWO_PI) - _SINGULAR)) < circle.EPS_SING)


def numpy_validate(t1, t2):
    gap = np.mod(t2 - t1, TWO_PI)
    if gap < circle.EPS_SING or gap > TWO_PI - circle.EPS_SING:
        raise ValueError
    if numpy_angle_is_singular(t1) or numpy_angle_is_singular(t2):
        raise TrajectoryStopped


def numpy_reduced(t1, t2):
    r1 = float(np.mod(t1, TWO_PI))
    return r1, r1 + float(np.mod(t2 - t1, TWO_PI))


def numpy_circle_map(t1, t2):
    numpy_validate(t1, t2)
    rhs = 2.0 / np.tan(2.0 * t2) - 1.0 / np.tan(0.5 * (t2 - t1))
    t3 = t2 - 2.0 * (0.5 * np.pi - np.arctan(rhs))
    if numpy_angle_is_singular(t3):
        raise TrajectoryStopped
    return numpy_reduced(t2, t3)


def outcome(f, *args):
    """f's result with every float as its exact bit pattern, or its exception type."""
    try:
        r = f(*args)
    except (ValueError, TrajectoryStopped) as exc:
        return type(exc)
    if isinstance(r, circle.ChordCoords):
        assert type(r.t1) is float and type(r.t2) is float
        r = (r.t1, r.t2)
    return tuple(x.hex() for x in r) if isinstance(r, tuple) else r


def _edge_angles():
    """k pi/2 +- (EPS_SING and its neighbouring floats) for k = -4..8, the
    midpoints (k + 1/2) pi/2, tiny negative angles that reduce to exactly
    2 pi, and +-1e300."""
    eps = circle.EPS_SING
    offsets = [eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)]
    out = []
    for k in range(-4, 9):
        out += [k * (0.5 * np.pi) + sign * float(o) for o in offsets for sign in (1.0, -1.0)]
        out.append((k + 0.5) * (0.5 * np.pi))
    out += [-5e-324, -1e-300, -1e-17, -1e-16, -4e-16, 1e300, -1e300]
    return out


EDGE_ANGLES = _edge_angles()


def with_examples(cases):
    """Apply hypothesis's @example once per argument tuple in cases."""

    def wrap(f):
        for case in cases:
            f = example(*case)(f)
        return f

    return wrap


def test_edge_angles_reach_both_answers_and_two_pi():
    assert sum(t % TWO_PI == TWO_PI for t in EDGE_ANGLES) == 5
    singular = [circle.angle_is_singular(t) for t in EDGE_ANGLES]
    assert any(singular) and not all(singular)


@given(ANGLES)
@with_examples([(t,) for t in EDGE_ANGLES])
def test_angle_is_singular_matches_numpy(t):
    assert type(circle.angle_is_singular(t)) is bool
    assert circle.angle_is_singular(t) == numpy_angle_is_singular(t)


@given(ANGLES, ANGLES)
def test_reduced_matches_numpy_to_the_bit(t1, t2):
    assert outcome(lambda: circle.ChordCoords(t1, t2).reduced()) == outcome(numpy_reduced, t1, t2)


@given(ANGLES, ANGLES)
@with_examples([(t, 1.0) for t in EDGE_ANGLES] + [(2.0, t) for t in EDGE_ANGLES])
def test_circle_map_matches_numpy_to_the_bit(t1, t2):
    expected = outcome(numpy_circle_map, t1, t2)
    assert outcome(circle.circle_map, circle.ChordCoords(t1, t2)) == expected


def test_orbit_matches_numpy_to_the_bit():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_chord(rng)
        t1, t2 = c.t1, c.t2
        for chord in circle.orbit(c, 200)[1:]:
            t1, t2 = numpy_circle_map(t1, t2)
            assert (chord.t1.hex(), chord.t2.hex()) == (t1.hex(), t2.hex())


def test_numpy_scalar_angles_give_python_types():
    assert type(circle.angle_is_singular(np.float64(1.0))) is bool
    assert type(circle.angle_is_singular(np.float64(0.5 * np.pi))) is bool
    orb = circle.orbit(circle.ChordCoords(np.float64(0.3), np.float64(1.9)), 5)
    assert all(type(c.t1) is float and type(c.t2) is float for c in orb)
    assert orb == circle.orbit(circle.ChordCoords(0.3, 1.9), 5)
