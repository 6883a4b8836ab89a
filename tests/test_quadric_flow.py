import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lorentzbilliards import confocal, quadric_flow, surface_flow
from lorentzbilliards.metric import CausalClass


def lorentz_ellipsoid():
    return quadric_flow.QuadricSurface((1.0, 2.0, 3.0), (1, 1, -1))


def euclidean_ellipsoid():
    return quadric_flow.QuadricSurface((1.0, 2.0, 3.0), (1, 1, 1))


def test_surface_validation():
    with pytest.raises(ValueError):
        quadric_flow.QuadricSurface((1.0, -2.0), (1, 1))
    with pytest.raises(ValueError):
        quadric_flow.QuadricSurface((1.0, 2.0), (1, 0))
    with pytest.raises(ValueError):
        quadric_flow.QuadricSurface((1.0, 2.0, 3.0), (1, 1))
    # coincident poles are a valid quadric, unlike a valid confocal family
    quadric_flow.QuadricSurface((1.0, 1.0, 1.0), (1, 1, -1))


def test_sphere_great_circle_closes():
    sphere = quadric_flow.QuadricSurface((1.0, 1.0, 1.0), (1, 1, 1))
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 1.0, 0.0])
    run = quadric_flow.integrate_quadric_geodesic(sphere, x0, v0, 2.0 * np.pi)
    assert run.status == "ok"
    assert np.allclose(run.final.x, x0, atol=1e-8)
    assert np.allclose(run.final.v, v0, atol=1e-8)


def test_constraint_residuals_stay_small():
    q = euclidean_ellipsoid()
    rng = np.random.default_rng(0)
    x0, v0 = q.random_state(rng)
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 30.0, record_every=10)
    for s in run.states:
        g, gv = q.constraint_residuals(s.x, s.v)
        assert abs(g) < 1e-10
        assert abs(gv) < 1e-10


def test_light_like_velocity_stays_light_like():
    q = lorentz_ellipsoid()
    m = q.metric
    rng = np.random.default_rng(1)
    found = 0
    for _ in range(50):
        if found >= 5:
            break
        x0, v0 = q.random_state(rng)
        # project the tangent vector onto the light cone within the tangent
        # plane: solve <v + s w, v + s w> = 0 for a second tangent w
        _, w = q.random_state(rng)
        xw, _ = q.constraint_residuals(x0, w)
        grad = 2.0 * q.coeffs * x0
        w = w - (float(grad @ w) / float(grad @ grad)) * grad
        a, b, c = m.norm2(w), 2.0 * m.inner(v0, w), m.norm2(v0)
        disc = b * b - 4 * a * c
        if disc < 0.0 or abs(a) < 1e-12:
            continue
        s = (-b + np.sqrt(disc)) / (2 * a)
        v = v0 + s * w
        if abs(m.norm2(v)) > 1e-10 * float(v @ v):
            continue
        run = quadric_flow.integrate_quadric_geodesic(
            q, x0, v, 2.0, record_every=20, local_err=1e-12
        )
        # near the degeneracy locus the velocity blows up and the projection
        # loses digits, so the tight bound applies away from the tropic only
        surf = q.surface()
        for st in run.states:
            rel = abs(m.norm2(st.v)) / max(1.0, float(st.v @ st.v))
            if abs(surf.singular_measure(st.x)) > 1e-3:
                assert rel < 1e-10
            else:
                assert rel < 1e-8
        found += 1
    assert found >= 5


def test_reversibility():
    q = euclidean_ellipsoid()
    rng = np.random.default_rng(2)
    x0, v0 = q.random_state(rng)
    fwd = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 10.0)
    back = quadric_flow.integrate_quadric_geodesic(q, fwd.final.x, -fwd.final.v, 10.0)
    assert np.allclose(back.final.x, x0, atol=1e-8)
    assert np.allclose(back.final.v, -v0, atol=1e-8)


def test_integrals_refuse_coincident_poles():
    # a valid quadric (a sphere in the first two axes), but F_k divides by
    # tau_i a_k^2 - tau_k a_i^2 = 0; the same ValueError as its family
    q = quadric_flow.QuadricSurface((2.0, 2.0, 1.0), (1, 1, -1))
    with pytest.raises(ValueError, match="pairwise distinct"):
        q.family
    with pytest.raises(ValueError, match="pairwise distinct"):
        quadric_flow.integrals_F(q, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def reference_integrals_F(q, x, v):
    """integrals_F as numpy arrays compute it: the reference for its bits."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    a2 = np.asarray(q.axes_sq)
    tau = np.asarray(q.signs, dtype=float)
    n = q.n
    out = np.empty(n)
    for k in range(n):
        cross = x * v[k] - x[k] * v
        denom = tau * a2[k] - tau[k] * a2
        terms = np.array([cross[i] ** 2 / denom[i] for i in range(n) if i != k])
        out[k] = v[k] ** 2 / tau[k] + float(np.sum(terms))
    return out


UNIT_COORDS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


@st.composite
def quadric_states(draw):
    """A quadric with n = 2-4, any signs and pairwise distinct poles, and a
    state whose coordinates (signed zeros among them) run on scales 1e-3-1e3."""
    n = draw(st.integers(2, 4))
    signs = tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    a2 = tuple(draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n)))
    assume(len({-t * a for t, a in zip(signs, a2)}) == n)
    x, v = (
        draw(st.floats(1e-3, 1e3)) * np.array(draw(st.lists(UNIT_COORDS, min_size=n, max_size=n)))
        for _ in range(2)
    )
    return quadric_flow.QuadricSurface(a2, signs), x, v


@settings(max_examples=500)
@given(quadric_states())
def test_integrals_match_numpy_formula_to_the_bit(state):
    q, x, v = state
    got = quadric_flow.integrals_F(q, x, v)
    expected = reference_integrals_F(q, x, v)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_each_surface_builds_its_table_once():
    q = lorentz_ellipsoid()
    assert q.boundary() is q.surface() is q.boundary()
    assert q.metric is q.boundary().metric and q.coeffs is q.boundary().coeffs
    # the table is not part of the surface's value
    twin = lorentz_ellipsoid()
    assert twin == q and hash(twin) == hash(q)
    # coincident poles leave a table, though no family
    sphere = quadric_flow.QuadricSurface((2.0, 2.0, 1.0), (1, 1, -1))
    assert sphere.boundary() is sphere.surface()
    assert sphere.coeffs.tolist() == [0.5, 0.5, 1.0]


def test_integrals_sum_to_speed():
    rng = np.random.default_rng(3)
    for q in (lorentz_ellipsoid(), euclidean_ellipsoid()):
        m = q.metric
        for _ in range(100):
            x = rng.normal(size=3)
            v = rng.normal(size=3)
            F = quadric_flow.integrals_F(q, x, v)
            assert float(np.sum(F)) == pytest.approx(m.norm2(v), abs=1e-12 * max(1.0, float(v @ v)))


def test_integrals_euclidean_reduce_to_classical():
    q = euclidean_ellipsoid()
    rng = np.random.default_rng(4)
    a2 = np.array(q.axes_sq)
    for _ in range(20):
        x = rng.normal(size=3)
        v = rng.normal(size=3)
        F = quadric_flow.integrals_F(q, x, v)
        for k in range(3):
            terms = [
                (x[i] * v[k] - x[k] * v[i]) ** 2 / (a2[k] - a2[i])
                for i in range(3)
                if i != k
            ]
            assert F[k] == pytest.approx(v[k] ** 2 + sum(terms), rel=1e-12)


def test_integrals_conserved_along_geodesic():
    q = euclidean_ellipsoid()
    rng = np.random.default_rng(5)
    x0, v0 = q.random_state(rng)
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 100.0, record_every=25)
    F0 = quadric_flow.integrals_F(q, run.states[0].x, run.states[0].v)
    J0 = quadric_flow.joachimsthal(q, run.states[0].x, run.states[0].v)
    for s in run.states:
        F = quadric_flow.integrals_F(q, s.x, s.v)
        assert np.max(np.abs(F - F0)) < 1e-6
        assert abs(quadric_flow.joachimsthal(q, s.x, s.v) - J0) < 1e-6


def test_lorentz_equator_conserves_integrals():
    # x3 = 0 is fixed by the reflection symmetry, hence totally geodesic and
    # tropic-free; it supports the long-run conservation check
    q = lorentz_ellipsoid()
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 1.0, 0.0])
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 100.0, record_every=25)
    assert run.status == "ok"
    F0 = quadric_flow.integrals_F(q, run.states[0].x, run.states[0].v)
    for s in run.states:
        F = quadric_flow.integrals_F(q, s.x, s.v)
        assert np.max(np.abs(F - F0)) < 1e-6
        assert abs(s.x[2]) < 1e-9


def test_generic_lorentz_geodesic_hits_tropic():
    q = lorentz_ellipsoid()
    rng = np.random.default_rng(6)
    x0, v0 = q.random_state(rng)
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 100.0)
    assert run.status == "tropic"
    # at the stop the normal is nearly light-like relative to the start
    surf = q.surface()
    ref = abs(surf.singular_measure(x0))
    assert abs(surf.singular_measure(run.final.x)) < 1e-3 * ref


def test_joachimsthal_constant_on_F_levels():
    # perturb a state within the joint level set of the F_k (numerically: along
    # the flow) and check J does not move
    q = euclidean_ellipsoid()
    rng = np.random.default_rng(7)
    x0, v0 = q.random_state(rng)
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 5.0, record_every=50)
    J = [quadric_flow.joachimsthal(q, s.x, s.v) for s in run.states]
    assert max(J) - min(J) < 1e-8 * max(1.0, abs(J[0]))


def test_billiard_chords_conserve_integrals():
    q = lorentz_ellipsoid()
    traj = quadric_flow.billiard_in_quadric(q, [0.1, 0.05, 0.0], [1.0, 0.4, 0.1], 100)
    assert traj.status == "ok"
    lines = quadric_flow.billiard_chord_lines(traj)
    # F_k is quadratic in v and reflection preserves the pseudo-norm, so the
    # raw chord vectors (not Euclidean-normalized) carry the conservation
    F0 = None
    for base, d in lines:
        F = quadric_flow.integrals_F(q, base, d)
        if F0 is None:
            F0 = F
        else:
            assert np.max(np.abs(F - F0)) < 1e-8


def test_billiard_spectra_two_constant_values():
    q = lorentz_ellipsoid()
    traj = quadric_flow.billiard_in_quadric(q, [0.1, 0.05, 0.0], [1.0, 0.4, 0.1], 100)
    lines = quadric_flow.billiard_chord_lines(traj)
    spread, size = quadric_flow.jacobi_chasles_check(q, lines)
    assert size == 2
    assert spread < 1e-6


def test_conic_billiard_keeps_one_caustic():
    q = quadric_flow.QuadricSurface((4.0, 1.0), (1, -1))
    rng = np.random.default_rng(11)
    for _ in range(6):
        traj = quadric_flow.billiard_in_quadric(q, rng.uniform(-0.5, 0.5, 2), rng.normal(size=2), 200)
        assert traj.status == "ok"
        spread, size = quadric_flow.jacobi_chasles_check(q, quadric_flow.billiard_chord_lines(traj))
        assert size == 1
        assert spread <= 1e-6


def test_geodesic_spectrum_one_constant_value():
    q = lorentz_ellipsoid()
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 1.0, 0.0])
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 50.0, record_every=100)
    lines = quadric_flow.geodesic_tangent_lines(run)
    spread, size = quadric_flow.jacobi_chasles_check(q, lines, drop_self=True)
    assert size == 1
    assert spread < 1e-6


def test_euclidean_geodesic_spectrum_constant():
    q = euclidean_ellipsoid()
    rng = np.random.default_rng(8)
    x0, v0 = q.random_state(rng)
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 20.0, record_every=100)
    lines = quadric_flow.geodesic_tangent_lines(run)
    spread, size = quadric_flow.jacobi_chasles_check(q, lines, drop_self=True)
    assert size == 1
    assert spread < 1e-6


def test_return_directions_at_most_two():
    # whenever the recorded Euclidean-ellipsoid geodesic revisits a point, the
    # tangent direction there comes from at most two possibilities (up to sign)
    q = euclidean_ellipsoid()
    rng = np.random.default_rng(9)
    x0, v0 = q.random_state(rng)
    v0 = v0 / np.linalg.norm(v0)
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 200.0, record_every=5)
    pts = run.positions()
    vels = run.velocities()
    d = np.linalg.norm(pts - pts[0], axis=1)
    near = np.nonzero(d < 5e-3)[0]
    dirs = []
    for i in near:
        u = vels[i] / np.linalg.norm(vels[i])
        if not any(min(np.linalg.norm(u - w), np.linalg.norm(u + w)) < 0.05 for w in dirs):
            dirs.append(u)
    assert len(dirs) <= 2


def test_light_like_spectra_constant_of_size_n_minus_2_or_4():
    # light-like geodesics and billiard chords in the 4-D Lorentz ellipsoid:
    # the lines that classify light-like, counted directly, keep one spectrum
    # of n - 2 or n - 4 values and none is degenerate
    q = quadric_flow.QuadricSurface((4.0, 3.0, 2.0, 1.0), (1, 1, 1, -1))
    m, family, surf = q.metric, q.family, q.surface()
    line_sets = []
    rng = np.random.default_rng(3)
    for _ in range(50):
        x0, u = q.random_state(rng)
        # a second tangent w, and u + s w on the light cone
        _, w = q.random_state(rng)
        grad, nu = surf.gradient(x0), surf.normal(x0)
        w = w - (float(grad @ w) / float(grad @ nu)) * nu
        a, b, c = m.norm2(w), 2.0 * m.inner(u, w), m.norm2(u)
        if b * b - 4.0 * a * c < 0.0:
            continue
        v = u + ((-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)) * w
        run = quadric_flow.integrate_quadric_geodesic(q, x0, v, 2.0)
        line_sets.append(quadric_flow.geodesic_tangent_lines(run))
        if len(line_sets) == 2:
            break
    start = np.array([1.0, 0.4, 0.1, np.sqrt(1.17)])
    traj = quadric_flow.billiard_in_quadric(q, [0.1, 0.05, 0.0, 0.0], start, 60)
    assert traj.status == "ok"
    line_sets.append(quadric_flow.billiard_chord_lines(traj))
    assert len(line_sets) == 3
    allowed = confocal.expected_line_counts(4, CausalClass.LIGHT_LIKE)
    for lines in line_sets:
        spectra = [
            confocal.tangent_spectrum_of_line(family, base, d)
            for base, d in lines
            if m.classify(d) is CausalClass.LIGHT_LIKE
        ]
        assert len(spectra) >= 20
        assert not any(s.degenerate for s in spectra)
        assert spectra[0].count in allowed
        assert quadric_flow.spectrum_spread([s.values for s in spectra]) < 1e-6


# -- integrator work and stopping ---------------------------------------------


def test_cli_default_geodesic_budget():
    # the `geodesic` subcommand's defaults; it stops at the tropic
    q = quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1))
    run = quadric_flow.integrate_quadric_geodesic(
        q, [np.sqrt(3.0), 0.0, 0.0], [0.0, 1.0, 0.2], 10.0, local_err=1e-10, record_every=5
    )
    assert run.status == "tropic"
    assert run.stats.rhs_evals <= 680


def test_equator_geodesic_budget():
    q = quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1))
    run = quadric_flow.integrate_quadric_geodesic(q, [np.sqrt(3.0), 0.0, 0.0], [0.0, 1.0, 0.0], 4.0)
    assert run.status == "ok"
    assert run.final.t == 4.0
    assert run.stats.rhs_evals <= 320


TROPIC_QUADRIC = quadric_flow.QuadricSurface(
    (1.786875941817089, 1.0395117719094102, 2.3579354298837827, 2.7354462772153463), (-1, 1, 1, -1)
)


def test_start_near_the_tropic_with_a_large_velocity():
    # measure -1.5e-4 at the start and |v0| = 4 761, the state that
    # random_state drew from seed 114986470 when it divided by grad G . n,
    # which vanishes at the tropic; with s normalised by the measure at the
    # start this run took 120 250 right-hand sides, and in t it raised
    # StepUnderflowError
    q = TROPIC_QUADRIC
    x0 = np.array([0.8598044395631792, 0.004469960065803255, 1.1537061542376077, 0.24402625022263516])
    v0 = np.array([3309.4906287370914, -29.211551437856407, -3366.351496564009, 614.1076842482056])
    assert abs(q.surface().singular_measure(x0)) < 2e-4
    assert abs(q.surface().value(x0)) <= 1e-15
    assert abs(q.surface().gradient(x0) @ v0) <= 1e-12
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 3.0)
    assert run.status == "tropic"
    assert run.stats.rhs_evals <= 3100
    s0 = run.states[0]
    F0 = quadric_flow.integrals_F(q, s0.x, s0.v)
    J0 = quadric_flow.joachimsthal(q, s0.x, s0.v)
    for s in run.states:
        assert np.max(np.abs(quadric_flow.integrals_F(q, s.x, s.v) - F0)) <= 1e-6 * np.max(np.abs(F0))
        assert abs(quadric_flow.joachimsthal(q, s.x, s.v) - J0) <= 1e-6 * max(1.0, abs(J0))


@pytest.mark.parametrize("record_every", [2.5, 1.0, "2", 0, -1])
def test_record_every_must_be_a_positive_integer(record_every):
    # 2.5 used to record every 5th step without a word
    q = quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1))
    with pytest.raises(ValueError, match="integer|at least 1|non-negative"):
        quadric_flow.integrate_quadric_geodesic(
            q, [np.sqrt(3.0), 0.0, 0.0], [0.0, 1.0, 0.0], 1.0, record_every=record_every
        )


@st.composite
def mixed_quadrics(draw):
    n = draw(st.sampled_from([3, 4]))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n).filter(
        lambda s: len(set(s)) == 2))
    # distinct axes, so no F_k denominator vanishes
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    axes = draw(st.permutations(list(0.3 + np.cumsum(gaps))))
    return quadric_flow.QuadricSurface(tuple(axes), tuple(signs))


@given(mixed_quadrics(), st.integers(0, 2**32 - 1))
@example(TROPIC_QUADRIC, 114986470)
def test_random_state_removes_the_gradient_part_of_a_normal_draw(q, seed):
    # v is the draw less its part along grad G: tangent and no longer than
    # the draw, also next to the tropic, where grad G . n vanishes (there
    # the division by it gave |v| = 4 761 at the example)
    x, v = q.random_state(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    rng.normal(size=q.n)
    draw = rng.normal(size=q.n)
    grad = q.surface().gradient(x)
    assert abs(grad @ v) <= 1e-15 * np.linalg.norm(grad) * np.linalg.norm(draw)
    assert np.linalg.norm(v) <= np.linalg.norm(draw) * (1.0 + 1e-15)


@settings(max_examples=40)
@given(mixed_quadrics(), st.integers(0, 2**32 - 1))
def test_random_quadric_geodesics_conserve_and_stop_on_the_state(q, seed):
    x0, v0 = q.random_state(np.random.default_rng(seed))
    run = quadric_flow.integrate_quadric_geodesic(q, x0, v0, 3.0)
    assert run.status in ("ok", "tropic")
    s0 = run.states[0]
    F0 = quadric_flow.integrals_F(q, s0.x, s0.v)
    J0 = quadric_flow.joachimsthal(q, s0.x, s0.v)
    for s in run.states:
        assert np.max(np.abs(quadric_flow.integrals_F(q, s.x, s.v) - F0)) <= 1e-6
        assert abs(quadric_flow.joachimsthal(q, s.x, s.v) - J0) <= 1e-6
    if run.status == "tropic":
        # the stop is decided on the state alone: the last step crossed the
        # degeneracy locus, or the measure fell under stall_factor * ref
        assert run.final.t < 3.0
        surf = q.surface()
        ref = abs(surf.singular_measure(s0.x))
        if len(run.states) == 1:
            # a start on the locus to rounding stops at once
            assert run.stats.rhs_evals == 0
            assert 1e-3 * ref <= surface_flow.MEASURE_ROUNDING
            return
        last, before = (surf.singular_measure(s.x) for s in run.states[-1:-3:-1])
        assert last * before < 0.0 or abs(last) < 1e-3 * ref
    else:
        assert run.final.t == 3.0
    stats = run.stats
    # 11 evaluations per attempt, one for the first stage of the first step,
    # one more at the projected state of each accepted step but the last,
    # and four for the dense output of a step that passes the length
    dense = 4 if run.status == "ok" else 0
    assert stats.rhs_evals == 12 * stats.accepted + 11 * stats.rejected + dense
    assert 0.0 < stats.min_h <= 1e-2
