import numpy as np
import pytest

from lorentzbilliards import quadric_flow
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
