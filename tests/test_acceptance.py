"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (visible with pytest -s) and asserts
the stated tolerance.  The suite is property-based: no tabulated reference
data, only invariants, closed forms, and independent oracles.
"""
import numpy as np
import pytest

from lorentzbilliards import (
    billiard,
    circle,
    confocal,
    lines,
    quadric_flow,
    revolution,
    variational,
)
from lorentzbilliards.errors import TrajectoryStopped
from lorentzbilliards.metric import CausalClass, Metric

TWO_PI = 2.0 * np.pi


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'pass' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_chord(rng, margin=0.05):
    while True:
        t1, t2 = rng.uniform(0.0, TWO_PI, size=2)
        gap = np.mod(t2 - t1, TWO_PI)
        if gap < margin or gap > TWO_PI - margin:
            continue
        if any(
            min(
                abs(np.mod(t, TWO_PI) - s)
                for s in (0, np.pi / 2, np.pi, 3 * np.pi / 2, TWO_PI)
            )
            < margin
            for t in (t1, t2)
        ):
            continue
        return circle.ChordCoords(t1, t2)


# -- 1. reflection law --------------------------------------------------------


def test_criterion_01_reflection_law():
    rng = np.random.default_rng(1)
    total = 0
    worst_energy = 0.0
    worst_harmonic = 0.0
    n_harmonic = 0
    while total < 10_000:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        m = Metric.from_signature(k, n - k)
        b = billiard.QuadricBoundary.from_semi_axes(m, rng.uniform(0.5, 2.0, n))
        start = rng.uniform(-0.2, 0.2, size=n)
        w = rng.normal(size=n)
        traj = billiard.iterate(b, start, w, 60)
        for r in traj.records:
            defect = abs(r.energy - m.norm2(r.incoming))
            defect /= billiard.reflection_scale(m, r.incoming, r.normal)
            worst_energy = max(worst_energy, defect)
            if n == 2:
                worst_harmonic = max(worst_harmonic, abs(r.harmonic))
                n_harmonic += 1
        total += len(traj.records)
    ok = worst_energy <= 1e-12 and worst_harmonic <= 1e-10 and n_harmonic >= 1000
    _report(
        1,
        "reflection law",
        ok,
        f"{total} bounces, scaled energy defect {worst_energy:.2e} (<=1e-12), "
        f"harmonic defect {worst_harmonic:.2e} (<=1e-10, {n_harmonic} 2-D bounces)",
    )


# -- 2. circle billiard closed form -------------------------------------------


def test_criterion_02_circle_closed_form():
    rng = np.random.default_rng(2)
    b = circle.unit_circle_boundary()
    worst = 0.0
    checked = 0
    while checked < 10_000:
        c = _random_chord(rng, margin=0.02)
        try:
            out = circle.circle_map(c)
        except TrajectoryStopped:
            continue
        q1, q2 = circle.circle_point(c.t1), circle.circle_point(c.t2)
        w1 = billiard.reflect(b, q2, q2 - q1)
        q3, _ = billiard.next_hit(b, q2, w1)
        expected = np.mod(np.arctan2(q3[1], q3[0]), TWO_PI)
        d = np.mod(out.t2 - expected, TWO_PI)
        worst = max(worst, min(d, TWO_PI - d))
        checked += 1

    # light-like orbits are 4-periodic
    worst_light = 0.0
    for _ in range(25):
        t1 = rng.uniform(0.05, np.pi / 2 - 0.05)
        orb = circle.orbit(circle.ChordCoords(t1, np.pi - t1), 4)
        d1 = np.mod(orb[4].t1 - orb[0].t1, TWO_PI)
        worst_light = max(worst_light, min(d1, TWO_PI - d1))

    # slope +-1 diameters are 2-periodic: at such a chord both cotangents in
    # the closed-form relation vanish, so the map's limiting form returns the
    # reversed diameter exactly; the floating iteration reproduces it to the
    # precision of the trig evaluations at the (irrational) angles
    exact = 2.0 * circle._arccot(0.0) == np.pi
    worst_diam = 0.0
    for t in (np.pi / 4, 3 * np.pi / 4):
        orb = circle.orbit(circle.ChordCoords(t, t + np.pi), 2)
        for a, b in ((orb[2].t1, orb[0].t1), (orb[2].t2, orb[0].t2)):
            d = np.mod(a - b, TWO_PI)
            worst_diam = max(worst_diam, min(d, TWO_PI - d))

    ok = worst <= 1e-10 and worst_light <= 1e-9 and exact and worst_diam <= 1e-12
    _report(
        2,
        "circle closed form",
        ok,
        f"map vs engine {worst:.2e} (<=1e-10), light-like 4-period "
        f"{worst_light:.2e} (<=1e-9), diameter limit exact {exact}, "
        f"iterated residual {worst_diam:.2e} (<=1e-12)",
    )


# -- 3. integral conservation -------------------------------------------------


def test_criterion_03_integral_conservation():
    # an orbit circulating around the elliptic slope-one diameter; its closest
    # approach to the degenerate chord stratum (where evaluating I is
    # ill-conditioned) stays above 1e-7 over the whole run
    orb = circle.orbit(circle.ChordCoords(0.8, 0.8 + np.pi + 0.4), 10_000)
    vals = [circle.integral_I(c) for c in orb]
    drift = (max(vals) - min(vals)) / abs(vals[0])

    # projective level invariance (cross-multiplied)
    rng = np.random.default_rng(3)
    worst_level = 0.0
    checked = 0
    while checked < 300:
        c = _random_chord(rng)
        try:
            tc = circle.circle_map(c)
        except TrajectoryStopped:
            continue
        a = circle.integral_level(c)
        b = circle.integral_level(tc)
        scale = max(abs(a.num), abs(a.den), abs(b.num), abs(b.den), 1.0)
        worst_level = max(worst_level, abs(a.num * b.den - b.num * a.den) / scale)
        checked += 1

    # geometric integral is odd under both involutions
    bdy = circle.unit_circle_boundary()
    m = Metric.dxdy_plane()
    worst_inv = 0.0
    checked = 0
    while checked < 200:
        c = _random_chord(rng)
        q1, q2 = c.endpoints()
        v = circle.chord_direction(c)
        g = circle.geometric_integral(q1, v)
        # endpoint-swap involution: fixed point, reversed direction
        worst_inv = max(worst_inv, abs(circle.geometric_integral(q1, -v) + g))
        # reflection involution at the far endpoint
        try:
            w_out = billiard.reflect(bdy, q2, c.chord_vector())
        except TrajectoryStopped:
            continue
        n2 = m.norm2(w_out)
        if abs(n2) < 1e-12:
            continue
        g2 = circle.geometric_integral(q2, v)
        g2r = circle.geometric_integral(q2, w_out / np.sqrt(abs(n2)))
        worst_inv = max(worst_inv, abs(g2r + g2))
        checked += 1

    ok = drift <= 1e-8 and worst_level <= 1e-10 and worst_inv <= 1e-10
    _report(
        3,
        "integral conservation",
        ok,
        f"I drift {drift:.2e} (<=1e-8), level defect {worst_level:.2e} (<=1e-10), "
        f"involution defect {worst_inv:.2e} (<=1e-10)",
    )


# -- 4. envelope --------------------------------------------------------------


def test_criterion_04_envelope():
    orb = circle.orbit(circle.ChordCoords(0.3, 1.9), 200)
    lam = circle.integral_level(orb[0]).lam
    worst = max(abs(circle.chord_tangency_discriminant(c, lam)) for c in orb)

    # on y = 1 the conic reduces to (x + lam)^2 = 0: a double root at -lam,
    # verified in exact rational arithmetic on the float level value
    from fractions import Fraction

    exact = True
    for lam_t in (lam, -0.7, 0.3, 0.9):
        L = Fraction(lam_t)
        c1, c2, c3 = Fraction(1), 2 * L, 1 - (1 - L * L)  # y = 1 substitution
        exact &= c2 * c2 - 4 * c1 * c3 == 0
        exact &= c1 * L * L - c2 * L + c3 == 0  # root at x = -lam
        # and the float conic agrees at that root to rounding
        exact &= abs(circle.conic_residual([-lam_t, 1.0], lam_t)) < 1e-15

    ok = worst <= 1e-8 and exact
    _report(
        4,
        "envelope",
        ok,
        f"tangency discriminant {worst:.2e} (<=1e-8), double root exact {exact}",
    )


# -- 5. invariant densities ---------------------------------------------------


def test_criterion_05_invariant_densities():
    rng = np.random.default_rng(5)
    worst = 0.0
    checked = 0
    while checked < 1000:
        c = _random_chord(rng, margin=0.1)
        try:
            d1 = circle.form_invariance_check("arcirc", c)
            d2 = circle.form_invariance_check("invform", c)
        except TrajectoryStopped:
            continue
        worst = max(worst, d1, d2)
        checked += 1
    ok = worst <= 1e-6
    _report(5, "invariant densities", ok, f"pullback defect {worst:.2e} (<=1e-6)")


# -- 6. confocal quadrics through a point -------------------------------------


def _random_families(rng, n, signature_splits):
    fams = []
    for k, l in signature_splits:
        while True:
            a2 = np.sort(rng.uniform(0.5, 4.0, size=n))
            signs = (1,) * k + (-1,) * l
            poles = -np.array(signs) * a2
            if np.min(np.diff(np.sort(poles))) > 0.05:
                fams.append(confocal.ConfocalFamily(tuple(a2), signs))
                break
    return fams


def _oracle_intervals(family, pad):
    poles = np.sort(family.poles)
    return np.concatenate([[poles[0] - pad], poles, [poles[-1] + pad]])


def _oracle_point_count(family, x, n_samples=4096):
    """Sign changes of the family equation over a dense lambda grid, one row
    of n_samples per interval between poles, in one array expression; the
    outer windows extend past a Cauchy bound on the cleared-denominator
    polynomial so no root escapes the scan."""
    coeffs = confocal.point_polynomial(family, x)
    pad = max(10.0, 1.0 + float(np.max(np.abs(coeffs[1:]))) / abs(coeffs[0]))
    edges = _oracle_intervals(family, pad)
    a, b = edges[:-1], edges[1:]
    gs = np.linspace(a + 1e-6 * (b - a), b - 1e-6 * (b - a), n_samples, axis=1)
    # a sum of n whole-grid terms: numpy sums a short trailing axis slowly
    terms = zip(x**2, family.axes_sq, family.signs)
    vals = sum(x2 / (a2 + tau * gs) for x2, a2, tau in terms) - 1.0
    count = int(np.sum(vals[:, :-1] * vals[:, 1:] < 0.0))
    return count, edges, gs[:, 1] - gs[:, 0]


def test_criterion_06_jacobi_analog():
    rng = np.random.default_rng(6)
    splits = {2: [(2, 0), (1, 1)], 3: [(3, 0), (2, 1), (1, 2)]}
    worst_orth = 0.0
    bad_counts = 0
    oracle_mismatch = 0
    oracle_checked = 0
    total = 0
    fams = {n: _random_families(rng, n, splits[n]) for n in (2, 3)}
    while total < 10_000:
        n = 2 if total % 2 == 0 else 3
        fam = fams[n][int(rng.integers(len(fams[n])))]
        x = rng.uniform(-3, 3, size=n)
        ec = confocal.quadrics_through_point(fam, x)
        if ec.degenerate:
            continue
        total += 1
        if ec.count not in confocal.expected_point_counts(n):
            bad_counts += 1
            continue
        # pairwise orthogonality of the member normals at x
        if ec.count >= 2:
            m = fam.metric
            normals = [confocal.normal_to_member(fam, lam, x) for lam in ec.values]
            for i in range(len(normals)):
                for j in range(i + 1, len(normals)):
                    ref = max(
                        np.linalg.norm(normals[i]) * np.linalg.norm(normals[j]), 1.0
                    )
                    worst_orth = max(
                        worst_orth, abs(m.inner(normals[i], normals[j])) / ref
                    )
        # dense-sampling oracle; roots closer than the local grid resolution
        # (to each other or to a pole) are below what sampling can resolve
        oracle, edges, spacings = _oracle_point_count(fam, x)
        vals = np.sort(np.asarray(ec.values))
        if vals.size:
            idx = np.clip(np.searchsorted(edges, vals) - 1, 0, len(spacings) - 1)
            res = 10.0 * spacings[idx]
            near_pole = (
                np.min(np.abs(vals[:, None] - np.asarray(fam.poles)[None, :]), axis=1)
                < res
            )
            near_twin = vals.size > 1 and bool(
                np.any(np.diff(vals) < np.maximum(res[:-1], res[1:]))
            )
            if bool(np.any(near_pole)) or near_twin:
                continue
        oracle_checked += 1
        if oracle != ec.count:
            oracle_mismatch += 1
    ok = (
        bad_counts == 0
        and worst_orth <= 1e-9
        and oracle_mismatch == 0
        and oracle_checked >= 9000
    )
    _report(
        6,
        "confocal point counts",
        ok,
        f"{total} points, count violations {bad_counts}, orthogonality "
        f"{worst_orth:.2e} (<=1e-9), oracle mismatches {oracle_mismatch}/"
        f"{oracle_checked}",
    )


# -- 7. tangency spectra of lines ---------------------------------------------


def test_criterion_07_chasles_analog():
    rng = np.random.default_rng(7)
    splits = {2: [(2, 0), (1, 1)], 3: [(3, 0), (2, 1), (1, 2)]}
    fams = {n: _random_families(rng, n, splits[n]) for n in (2, 3)}
    bad_counts = 0
    worst_orth = 0.0
    total = 0
    while total < 10_000:
        n = 2 if total % 2 == 0 else 3
        fam = fams[n][int(rng.integers(len(fams[n])))]
        m = fam.metric
        base = rng.uniform(-2, 2, size=n)
        if rng.random() < 0.25 and n == 3:
            a, b = rng.normal(size=2)
            d = np.array([a, b, np.sqrt(a * a + b * b)])  # null for (2,1)
            if fam.signs != (1, 1, -1):
                d = rng.normal(size=n)
        else:
            d = rng.normal(size=n)
        cls = m.classify(d)
        if cls is not CausalClass.LIGHT_LIKE and abs(m.norm2(d)) < 1e-3 * float(d @ d):
            continue
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        if spec.infinite or spec.degenerate:
            continue
        total += 1
        if spec.count not in confocal.expected_line_counts(n, cls):
            bad_counts += 1
            continue
        if spec.count >= 2:
            normals = [
                confocal.normal_to_member(fam, lam, pt)
                for lam, pt in zip(spec.values, spec.points)
            ]
            for i in range(len(normals)):
                for j in range(i + 1, len(normals)):
                    ref = max(
                        np.linalg.norm(normals[i]) * np.linalg.norm(normals[j]), 1.0
                    )
                    worst_orth = max(
                        worst_orth, abs(m.inner(normals[i], normals[j])) / ref
                    )

    # n = 2: generic light-like lines meet no member tangentially
    fam2 = confocal.ConfocalFamily((1.0, 1.0), (1, -1))
    light_bad = 0
    for _ in range(100):
        base = rng.uniform(-2, 2, size=2)
        d = np.array([1.0, 1.0]) if rng.random() < 0.5 else np.array([1.0, -1.0])
        spec = confocal.tangent_spectrum_of_line(fam2, base, d)
        if spec.infinite or spec.degenerate:
            continue
        if spec.count != 0:
            light_bad += 1
    # the four exceptional null lines through (+-sqrt(2), 0) flag as infinite
    infinite_ok = all(
        confocal.tangent_spectrum_of_line(
            fam2, [s1 * np.sqrt(2.0), 0.0], [1.0, s2]
        ).infinite
        for s1 in (1, -1)
        for s2 in (1, -1)
    )

    ok = bad_counts == 0 and worst_orth <= 1e-9 and light_bad == 0 and infinite_ok
    _report(
        7,
        "line tangency counts",
        ok,
        f"{total} lines, count violations {bad_counts}, orthogonality "
        f"{worst_orth:.2e} (<=1e-9), null-line zeros ok {light_bad == 0}, "
        f"exceptional infinite {infinite_ok}",
    )


# -- 8. Jacobi-Chasles dynamics -----------------------------------------------


def test_criterion_08_jacobi_chasles_dynamics():
    q = quadric_flow.QuadricSurface((1.0, 2.0, 3.0), (1, 1, -1))
    # the equator x3 = 0 is totally geodesic and tropic-free: it carries the
    # long-time geodesic run
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 1.0, 0.0])
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 100.0, record_every=100)
    geo_lines = quadric_flow.geodesic_tangent_lines(run)
    geo_spread, geo_size = quadric_flow.jacobi_chasles_check(q, geo_lines, drop_self=True)

    traj = quadric_flow.billiard_in_quadric(q, [0.1, 0.05, 0.0], [1.0, 0.4, 0.1], 100)
    bil_lines = quadric_flow.billiard_chord_lines(traj)
    bil_spread, bil_size = quadric_flow.jacobi_chasles_check(q, bil_lines)

    F0 = quadric_flow.integrals_F(q, run.states[0].x, run.states[0].v)
    J0 = quadric_flow.joachimsthal(q, run.states[0].x, run.states[0].v)
    f_drift = 0.0
    j_drift = 0.0
    sum_defect = 0.0
    m = q.metric
    for s in run.states:
        F = quadric_flow.integrals_F(q, s.x, s.v)
        f_drift = max(f_drift, float(np.max(np.abs(F - F0))))
        j_drift = max(j_drift, abs(quadric_flow.joachimsthal(q, s.x, s.v) - J0))
        sum_defect = max(
            sum_defect,
            abs(float(np.sum(F)) - m.norm2(s.v)) / max(1.0, float(s.v @ s.v)),
        )

    ok = (
        geo_size == 1
        and bil_size == 2
        and geo_spread <= 1e-6
        and bil_spread <= 1e-6
        and f_drift <= 1e-6
        and sum_defect <= 1e-12
        and j_drift <= 1e-6
    )
    _report(
        8,
        "Jacobi-Chasles dynamics",
        ok,
        f"geodesic spectrum {geo_size} value(s) spread {geo_spread:.2e}, billiard "
        f"{bil_size} value(s) spread {bil_spread:.2e} (<=1e-6), F drift "
        f"{f_drift:.2e} (<=1e-6), sum defect {sum_defect:.2e} (<=1e-12), "
        f"J drift {j_drift:.2e} (<=1e-6)",
    )


# -- 9. Clairaut --------------------------------------------------------------


def _sine_state(z0, phi0, v_phi, v_z):
    s = revolution.sine_profile(2.0)
    r = s.f(z0)
    x = np.array([r * np.cos(phi0), r * np.sin(phi0), z0])
    e_r = np.array([np.cos(phi0), np.sin(phi0), 0.0])
    e_phi = np.array([-np.sin(phi0), np.cos(phi0), 0.0])
    v = s.df(z0) * v_z * e_r + v_phi * e_phi + v_z * np.array([0.0, 0.0, 1.0])
    return s, x, v


def test_criterion_09_clairaut():
    s, x0, v0 = _sine_state(0.1, 0.0, 1.2, 0.4)
    run = revolution.integrate_revolution_geodesic(s, x0, v0, 50.0, record_every=20)
    vals = [revolution.clairaut_invariant(s, st.x, st.v) for st in run.states]
    drift = (max(vals) - min(vals)) / max(1.0, abs(vals[0]))

    # light-like tangent state: the invariant vanishes identically
    z0 = 0.3
    v_z = 1.0
    v_phi = np.sqrt(1.0 - s.df(z0) ** 2) * v_z
    s2, xl, vl = _sine_state(z0, 0.4, v_phi, v_z)
    run_l = revolution.integrate_revolution_geodesic(s2, xl, vl, 10.0, record_every=20)
    light_worst = max(
        abs(revolution.clairaut_invariant(s2, st.x, st.v)) for st in run_l.states
    )

    # space-like geodesics stay inside the momentum radius
    m0 = abs(revolution.angular_momentum(x0, v0))
    radius_ok = all(
        float(np.hypot(st.x[0], st.x[1])) <= m0 + 1e-8 for st in run.states
    )

    # time-like geodesics terminate on the tropic along the null direction
    s3, xt, vt = _sine_state(1.5, 0.0, 0.3, 1.0)
    run_t = revolution.integrate_revolution_geodesic(
        s3, xt, vt, 50.0, stall_factor=1e-6
    )
    angle = revolution.meridian_angle(s3, run_t.final.x, run_t.final.v)
    tropic_ok = run_t.status == "tropic" and angle < 1e-3

    # both runs end at the tropic, each in under 1 000 right-hand sides
    evals = (run.stats.rhs_evals, run_t.stats.rhs_evals)
    budget_ok = run.status == "tropic" and max(evals) < 1000

    ok = drift <= 1e-8 and light_worst <= 1e-8 and radius_ok and tropic_ok and budget_ok
    _report(
        9,
        "Clairaut invariant",
        ok,
        f"drift {drift:.2e} (<=1e-8), light-like invariant {light_worst:.2e}, "
        f"radius bound {radius_ok}, tropic termination angle {angle:.2e} (<1e-3), "
        f"tropic runs {evals[0]} and {evals[1]} RHS evaluations (<1000)",
    )


# -- 10. diameters ------------------------------------------------------------


def test_criterion_10_diameters():
    bound_ok = True
    rng = np.random.default_rng(10)
    for n in (2, 3, 4):
        for k in range(1, n):
            l = n - k
            m = Metric.from_signature(k, l)
            for trial in range(20):
                axes = rng.uniform(0.6, 2.5, size=n)
                diams = variational.find_diameters(m, axes)
                n_space = sum(1 for d in diams if d.causal is CausalClass.SPACE_LIKE)
                n_time = sum(1 for d in diams if d.causal is CausalClass.TIME_LIKE)
                bound_ok &= n_space >= k and n_time >= l

    m = Metric.diagonal([1, -1])
    diams = variational.find_diameters(m, [2.0, 1.0])
    by_class = {}
    for d in diams:
        by_class.setdefault(d.causal, []).append(d)
    plane_ok = (
        set(by_class) == {CausalClass.SPACE_LIKE, CausalClass.TIME_LIKE}
        and all(len(v) == 1 for v in by_class.values())
    )
    worst_orth = max(
        variational.endpoint_orthogonality(m, [2.0, 1.0], d) for d in diams
    )
    ok = bound_ok and plane_ok and worst_orth <= 1e-10
    _report(
        10,
        "diameters",
        ok,
        f"signature lower bounds {bound_ok}, Lorentz ellipse one of each "
        f"{plane_ok}, orthogonality {worst_orth:.2e} (<=1e-10)",
    )


# -- 11. caustics -------------------------------------------------------------


def test_criterion_11_caustics():
    m = Metric.diagonal([1, -1])
    b = billiard.ImplicitBoundary(
        m,
        lambda q: q[0] ** 2 + q[1] ** 2 - 1.0,
        lambda q: np.array([2.0 * q[0], 2.0 * q[1]]),
    )
    ts = np.linspace(0.1, np.pi / 2 - 0.1, 60)
    env = variational.envelope_of_normals(
        b, lambda t: np.array([np.cos(t), np.sin(t)]), ts
    )
    astro = max(abs(variational.astroid_residual(p, radius=2.0)) for p in env)

    bp = billiard.ImplicitBoundary(
        m,
        lambda q: q[0] ** 2 - q[1] ** 2 - 1.0,
        lambda q: np.array([2.0 * q[0], -2.0 * q[1]]),
    )
    env_p = variational.envelope_of_normals(
        bp,
        lambda t: np.array([np.cosh(t), np.sinh(t)]),
        np.linspace(-1.0, 1.0, 41),
    )
    center = float(np.max(np.abs(env_p)))
    ok = astro <= 1e-8 and center <= 1e-8
    _report(
        11,
        "caustics",
        ok,
        f"astroid residual {astro:.2e} (<=1e-8), pseudocircle collapse "
        f"{center:.2e} (<=1e-8)",
    )


# -- 12. line-space forms -----------------------------------------------------


def test_criterion_12_line_space_forms():
    rng = np.random.default_rng(12)
    worst_coeff = 0.0
    for _ in range(200):
        phi = rng.uniform(-2.0, 2.0)
        r2 = rng.uniform(0.1, 50.0)
        a, b = lines.omega3_char_coeffs(phi, r2)
        a_ref = 1.0 + r2**2 * np.sinh(phi) ** 2 + np.cosh(phi) ** 2
        b_ref = np.cosh(phi) ** 2
        worst_coeff = max(
            worst_coeff,
            abs(a - a_ref) / max(1.0, abs(a_ref)),
            abs(b - b_ref) / max(1.0, abs(b_ref)),
        )

    r2s = np.geomspace(10.0, 1e4, 40)
    small, large = lines.omega3_eigen_scaling(0.8, r2s)
    s_small = lines.loglog_slope(r2s, small)
    s_large = lines.loglog_slope(r2s, large)
    slopes_ok = abs(s_small + 1.0) <= 0.01 and abs(s_large - 1.0) <= 0.01

    m = Metric.diagonal([1, 1, -1])

    def patch(u, v):
        return np.array([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)])

    def grad(u, v):
        return 2.0 * patch(u, v)

    defect = variational.lagrangian_defect(
        m, patch, grad, np.linspace(0.2, 0.6, 5), np.linspace(0.0, 1.0, 5)
    )
    me = Metric.euclidean(3)
    a2 = np.array([1.0, 2.0, 3.0])

    def patch_e(u, v):
        raw = np.array([np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v)])
        return raw * np.sqrt(a2)

    def grad_e(u, v):
        return 2.0 * patch_e(u, v) / a2

    defect = max(
        defect,
        variational.lagrangian_defect(
            me, patch_e, grad_e, np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.8, 5)
        ),
    )
    ok = worst_coeff <= 1e-10 and slopes_ok and defect <= 1e-6
    _report(
        12,
        "line-space forms",
        ok,
        f"char coeffs {worst_coeff:.2e} (<=1e-10), slopes {s_small:+.3f}/"
        f"{s_large:+.3f} (+-0.01), Lagrangian defect {defect:.2e} (<=1e-6)",
    )


# -- 13. near-singular scattering ---------------------------------------------


def test_criterion_13_near_singular_scattering():
    worst = 0.0
    for s in np.geomspace(1e-6, 1e-2, 60):
        t, v = billiard.double_reflection_near_singular(1.0, 1.0, s)
        t_ref = 4.0 * s * s - s
        ref = (s / t_ref) ** 2 - 1.0
        worst = max(worst, abs((v - 1.0) - ref))

    ss = np.geomspace(1e-6, 1e-4, 30)
    vs = np.array([billiard.double_reflection_near_singular(1.0, 1.0, s)[1] for s in ss])
    slope = float(np.polyfit(ss, vs - 1.0, 1)[0])
    slope_ok = abs(slope - 8.0) <= 0.05 * 8.0
    ok = worst <= 1e-10 and slope_ok
    _report(
        13,
        "near-singular scattering",
        ok,
        f"closed-form defect {worst:.2e} (<=1e-10), fitted slope {slope:.3f} "
        f"(8 +- 5%)",
    )
