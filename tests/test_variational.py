import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lorentzbilliards import billiard, variational
from lorentzbilliards.errors import EnvelopeDegenerateError
from lorentzbilliards.metric import CausalClass, Metric


def test_lorentz_ellipse_exactly_one_of_each():
    m = Metric.diagonal([1, -1])
    diams = variational.find_diameters(m, [2.0, 1.0])
    by_class = {}
    for d in diams:
        by_class.setdefault(d.causal, []).append(d)
    assert set(by_class) == {CausalClass.SPACE_LIKE, CausalClass.TIME_LIKE}
    assert len(by_class[CausalClass.SPACE_LIKE]) == 1
    assert len(by_class[CausalClass.TIME_LIKE]) == 1
    space = by_class[CausalClass.SPACE_LIKE][0]
    time = by_class[CausalClass.TIME_LIKE][0]
    # the axes are the critical chords: f = <2a e1, 2a e1>/2 = 8, -2
    assert space.f_value == pytest.approx(8.0, abs=1e-10)
    assert time.f_value == pytest.approx(-2.0, abs=1e-10)
    for d in (space, time):
        assert d.grad_norm < 1e-10
        assert variational.endpoint_orthogonality(m, [2.0, 1.0], d) < 1e-10


def test_light_like_critical_chord_is_discarded():
    # diag(1, -1e-11) is nondegenerate, but the chord along the long axis has
    # <d,d> / |d|^2 = -1e-11, which classifies light-like: only the
    # space-like diameter is a diameter
    m = Metric.diagonal([1.0, -1e-11])
    diams = variational.find_diameters(m, [1.0, 1e3])
    assert [d.causal for d in diams] == [CausalClass.SPACE_LIKE]
    assert diams[0].f_value == pytest.approx(2.0, abs=1e-12)


def test_euclidean_ellipse_has_two_diameters():
    m = Metric.euclidean(2)
    diams = variational.find_diameters(m, [2.0, 1.0])
    vals = sorted(d.f_value for d in diams)
    assert vals == pytest.approx([2.0, 8.0], abs=1e-10)


def test_lower_bounds_random_ellipsoids():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for k in range(1, n):
            l = n - k
            m = Metric.from_signature(k, l)
            for trial in range(20):
                axes = rng.uniform(0.6, 2.5, size=n)
                diams = variational.find_diameters(m, axes)
                n_space = sum(1 for d in diams if d.causal is CausalClass.SPACE_LIKE)
                n_time = sum(1 for d in diams if d.causal is CausalClass.TIME_LIKE)
                assert n_space >= k
                assert n_time >= l


@st.composite
def nondiagonal_metrics(draw):
    """Symmetric Gram matrices, n = 2-4, entries in [-2, 2], every eigenvalue
    at least 0.1 away from zero."""
    n = draw(st.integers(2, 4))
    entries = st.floats(-2.0, 2.0, allow_nan=False)
    g = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    g = 0.5 * (g + g.T)
    assume(np.min(np.abs(np.linalg.eigvalsh(g))) >= 0.1)
    return Metric(g)


@given(nondiagonal_metrics(), st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4))
def test_nondiagonal_metrics_have_exactly_k_and_l_diameters(m, axes):
    # the diameters are the generalized eigenvectors of (G, A): exactly k
    # space-like and l time-like ones (Sylvester), each a critical chord,
    # largest f first, x signed so that its largest-magnitude entry is positive
    axes = axes[: m.n]
    k, l = m.signature
    diams = variational.find_diameters(m, axes)
    assert sum(d.causal is CausalClass.SPACE_LIKE for d in diams) == k
    assert sum(d.causal is CausalClass.TIME_LIKE for d in diams) == l
    assert [d.f_value for d in diams] == sorted((d.f_value for d in diams), reverse=True)
    for d in diams:
        assert d.grad_norm <= 1e-10
        assert variational.endpoint_orthogonality(m, axes, d) <= 1e-10
        assert d.x[np.argmax(np.abs(d.x))] > 0.0
        assert np.array_equal(d.y, -d.x)


def test_diameters_orthogonal_at_endpoints():
    rng = np.random.default_rng(1)
    m = Metric.from_signature(2, 1)
    for trial in range(5):
        axes = rng.uniform(0.6, 2.5, size=3)
        for d in variational.find_diameters(m, axes):
            assert variational.endpoint_orthogonality(m, axes, d) < 1e-9


def test_dxdy_circle_diameters_have_slope_pm_one():
    # in the dx dy metric the critical chords of the unit circle are the
    # diagonal diameters (the axes are light-like and excluded)
    m = Metric.dxdy_plane()
    diams = variational.find_diameters(m, [1.0, 1.0])
    assert len(diams) == 2
    for d in diams:
        slope = d.chord[1] / d.chord[0]
        assert abs(abs(slope) - 1.0) < 1e-9


def test_astroid_caustic_of_lorentz_circle():
    # normals of the unit circle in diag(1,-1) envelope the astroid
    # x^(2/3) + y^(2/3) = 2^(2/3)
    m = Metric.diagonal([1, -1])
    b = billiard.ImplicitBoundary(
        m,
        lambda q: q[0] ** 2 + q[1] ** 2 - 1.0,
        lambda q: np.array([2.0 * q[0], 2.0 * q[1]]),
    )
    curve = lambda t: np.array([np.cos(t), np.sin(t)])
    ts = np.linspace(0.1, np.pi / 2 - 0.1, 40)
    env = variational.envelope_of_normals(b, curve, ts)
    for p in env:
        assert abs(variational.astroid_residual(p, radius=2.0)) < 1e-8
    # the closed-form envelope point at t: (2 cos^3 t, 2 sin^3 t)
    assert np.allclose(env[0], [2 * np.cos(ts[0]) ** 3, 2 * np.sin(ts[0]) ** 3], atol=1e-7)


def test_pseudocircle_caustic_collapses_to_center():
    m = Metric.diagonal([1, -1])
    b = billiard.ImplicitBoundary(
        m,
        lambda q: q[0] ** 2 - q[1] ** 2 - 1.0,
        lambda q: np.array([2.0 * q[0], -2.0 * q[1]]),
    )
    curve = lambda t: np.array([np.cosh(t), np.sinh(t)])
    env = variational.envelope_of_normals(b, curve, np.linspace(-1.0, 1.0, 21))
    assert np.max(np.abs(env)) < 1e-8


def test_euclidean_circle_caustic_is_center():
    m = Metric.euclidean(2)
    b = billiard.QuadricBoundary(m, [1.0, 1.0])
    curve = lambda t: np.array([np.cos(t), np.sin(t)])
    env = variational.envelope_of_normals(b, curve, np.linspace(0.2, 1.2, 11))
    assert np.max(np.abs(env)) < 1e-8


def test_envelope_degenerate_for_line_family():
    # normals of a straight boundary are parallel: no envelope
    m = Metric.euclidean(2)
    b = billiard.ImplicitBoundary(
        m, lambda q: q[1] - 1.0, lambda q: np.array([0.0, 1.0])
    )
    with pytest.raises(EnvelopeDegenerateError):
        variational.envelope_of_normals(b, lambda t: np.array([t, 1.0]), [0.0, 0.5])


def test_lagrangian_defect_lorentz_ellipsoid():
    m = Metric.diagonal([1, 1, -1])
    a2 = np.array([1.0, 1.0, 1.0])

    def patch(u, v):
        # space-like cap of the unit sphere, away from the equator x3=0
        return np.array([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)])

    def grad(u, v):
        return 2.0 * patch(u, v) / a2

    defect = variational.lagrangian_defect(
        m, patch, grad, np.linspace(0.2, 0.6, 5), np.linspace(0.0, 1.0, 5)
    )
    assert defect < 1e-6


def test_lagrangian_defect_euclidean_ellipsoid():
    m = Metric.euclidean(3)
    a2 = np.array([1.0, 2.0, 3.0])

    def patch(u, v):
        raw = np.array([np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v)])
        return raw * np.sqrt(a2)

    def grad(u, v):
        return 2.0 * patch(u, v) / a2

    defect = variational.lagrangian_defect(
        m, patch, grad, np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.8, 5)
    )
    assert defect < 1e-6


def test_lagrangian_defect_rejects_class_change():
    m = Metric.diagonal([1, 1, -1])

    def patch(u, v):
        return np.array([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)])

    def grad(u, v):
        return 2.0 * patch(u, v)

    with pytest.raises(ValueError):
        variational.lagrangian_defect(
            m, patch, grad, np.linspace(0.3, 1.2, 6), np.linspace(0.0, 1.0, 4)
        )


def test_chord_half_energy_signs():
    m = Metric.diagonal([1, -1])
    assert variational.chord_half_energy(m, [1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)
    assert variational.chord_half_energy(m, [0.0, 1.0], [0.0, -1.0]) == pytest.approx(-2.0)
    assert variational.chord_half_energy(m, [1.0, 1.0], [0.0, 0.0]) == pytest.approx(0.0)
