import numpy as np
import pytest

from lorentzbilliards.errors import (
    DegenerateMetricError,
    DimensionMismatchError,
    SingularNormalError,
)
from lorentzbilliards import billiard, circle, confocal, quadric_flow, revolution, surface_flow
from lorentzbilliards.metric import CausalClass, Metric, as_vector, cross2


def test_inner_diagonal():
    m = Metric.diagonal([1, -1])
    assert m.inner([1, 0], [1, 0]) == 1.0
    assert m.inner([0, 1], [0, 1]) == -1.0


def test_inner_dxdy_orthogonal_pairs():
    m = Metric.dxdy_plane()
    a, b = 0.7, -1.3
    assert m.inner([a, b], [a, -b]) == pytest.approx(0.0, abs=1e-14)


def test_inner_three_dim():
    m = Metric.diagonal([1, 1, -1])
    assert m.inner([1, 1, 1], [1, 1, 1]) == pytest.approx(1.0)


def test_inner_symmetry_bilinearity():
    rng = np.random.default_rng(0)
    m = Metric.from_signature(2, 2)
    for _ in range(50):
        u, v, w = rng.normal(size=(3, 4))
        a, b = rng.normal(size=2)
        assert m.inner(u, v) == pytest.approx(m.inner(v, u), abs=1e-13)
        assert m.inner(a * u + b * w, v) == pytest.approx(
            a * m.inner(u, v) + b * m.inner(w, v), abs=1e-12
        )


def test_classify_basic():
    m = Metric.diagonal([1, -1])
    assert m.classify([1, 0]) is CausalClass.SPACE_LIKE
    assert m.classify([0, 1]) is CausalClass.TIME_LIKE
    assert m.classify([1, 1]) is CausalClass.LIGHT_LIKE


def test_classify_dxdy():
    m = Metric.dxdy_plane()
    assert m.classify([1, -1]) is CausalClass.TIME_LIKE
    assert m.classify([1, 1]) is CausalClass.SPACE_LIKE
    assert m.classify([1, 0]) is CausalClass.LIGHT_LIKE


def test_classify_scale_invariant():
    m = Metric.from_signature(1, 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=3)
        c = m.classify(v)
        assert m.classify(1e6 * v) is c
        assert m.classify(1e-6 * v) is c


def test_classify_zero_vector_rejected():
    with pytest.raises(ValueError):
        Metric.euclidean(2).classify([0.0, 0.0])


def test_sharp_dxdy_swaps_components():
    # with gram [[0,1/2],[1/2,0]] raising an index swaps components and
    # doubles them (the inverse gram is [[0,2],[2,0]])
    m = Metric.dxdy_plane()
    assert np.allclose(m.sharp([0.3, -0.8]), [-1.6, 0.6])
    assert np.allclose(m.flat([0.3, -0.8]), [-0.4, 0.15])


def test_sharp_diagonal():
    m = Metric.diagonal([1, -1])
    assert np.allclose(m.sharp([2.0, 3.0]), [2.0, -3.0])


def test_sharp_flat_roundtrip():
    rng = np.random.default_rng(2)
    for m in (Metric.dxdy_plane(), Metric.from_signature(2, 2)):
        for _ in range(20):
            v = rng.normal(size=m.n)
            assert np.allclose(m.sharp(m.flat(v)), v, atol=1e-14)
            assert np.allclose(m.flat(m.sharp(v)), v, atol=1e-14)


def test_decompose_diagonal():
    m = Metric.diagonal([1, -1])
    t, nrm = m.decompose([1, 1], [1, 0])
    assert np.allclose(t, [0, 1])
    assert np.allclose(nrm, [1, 0])


def test_decompose_dxdy():
    m = Metric.dxdy_plane()
    t, nrm = m.decompose([1, 0], [1, 1])
    assert np.allclose(nrm, [0.5, 0.5])
    assert np.allclose(t, [0.5, -0.5])


def test_decompose_reassembles_and_orthogonal():
    rng = np.random.default_rng(3)
    m = Metric.from_signature(2, 1)
    for _ in range(100):
        w = rng.normal(size=3)
        nu = rng.normal(size=3)
        if abs(m.norm2(nu)) < 1e-6 * float(nu @ nu):
            continue
        t, nrm = m.decompose(w, nu)
        assert np.allclose(t + nrm, w, atol=1e-13)
        assert m.inner(t, nu) == pytest.approx(0.0, abs=1e-12)


def test_decompose_light_like_normal_rejected():
    m = Metric.diagonal([1, -1])
    with pytest.raises(SingularNormalError):
        m.decompose([1.0, 0.2], [1.0, 1.0])


def test_cross2():
    assert cross2([1, 0], [0, 1]) == 1.0
    assert cross2([0.4, 1.1], [0.4, 1.1]) == 0.0
    assert cross2([1, 2], [3, 4]) == -2.0
    with pytest.raises(DimensionMismatchError):
        cross2([1, 2, 3], [1, 2, 3])


def test_signature_stored():
    assert Metric.from_signature(2, 1).signature == (2, 1)
    assert Metric.dxdy_plane().signature == (1, 1)


def test_one_shared_metric_per_gram_matrix():
    assert Metric.diagonal([1, -1]) is Metric.diagonal((1.0, -1.0))
    assert Metric.euclidean(2) is Metric.from_signature(2, 0)
    assert circle.dxdy_metric() is Metric.dxdy_plane()
    q = quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1))
    assert q.metric is q.family.metric is q.surface().metric


def test_degenerate_gram_rejected():
    with pytest.raises(DegenerateMetricError):
        Metric([[1.0, 1.0], [1.0, 1.0]])


def test_nonfinite_gram_rejected():
    with pytest.raises(ValueError):
        Metric.diagonal([np.inf, -1.0])
    with pytest.raises(ValueError):
        Metric([[1.0, np.nan], [np.nan, -1.0]])


def test_dimension_mismatch():
    m = Metric.euclidean(3)
    with pytest.raises(DimensionMismatchError):
        m.inner([1, 0], [1, 0, 0])


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


def test_unit_normalizes_both_classes():
    m = Metric.diagonal([1, -1])
    assert m.norm2(m.unit([3.0, 0.0])) == pytest.approx(1.0)
    assert m.norm2(m.unit([0.0, 3.0])) == pytest.approx(-1.0)
    with pytest.raises(SingularNormalError):
        m.unit([1.0, 1.0])


_TABLE = billiard.QuadricBoundary.from_semi_axes(Metric.from_signature(1, 1), [2.0, 1.0])
_QUADRIC = quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1))
_SINE = revolution.sine_profile(2.0)

# each entry point with one vector argument left open, and that argument's dimension
ENTRY_POINTS = {
    "iterate": (lambda v: billiard.iterate(_TABLE, v, [0.43, 0.17], 5), 2),
    "next_hit": (lambda v: billiard.next_hit(_TABLE, [0.1, 0.0], v), 2),
    "reflect": (lambda v: billiard.reflect(_TABLE, [2.0, 0.0], v), 2),
    "integrate_geodesic_quadric": (
        lambda v: surface_flow.integrate_geodesic(_QUADRIC.surface(), v, [0.0, 1.0, 0.0], 0.1), 3),
    "integrate_geodesic_revolution": (
        lambda v: surface_flow.integrate_geodesic(_SINE.surface(), [2.0, 0.0, 0.0], v, 0.1), 3),
    "quadrics_through_point": (
        lambda v: confocal.quadrics_through_point(confocal.ConfocalFamily((2.0, 1.0), (1, -1)), v), 2),
    "tangent_spectrum_of_line": (
        lambda v: confocal.tangent_spectrum_of_line(
            confocal.ConfocalFamily((1.0, 2.0, 3.0), (1, 1, -1)), [0.1, 0.2, 0.3], v), 3),
    "integrals_F": (lambda v: quadric_flow.integrals_F(_QUADRIC, v, [0.0, 1.0, 0.0]), 3),
    "Metric.inner": (lambda v: Metric.from_signature(2, 1).inner(v, [1.0, 0.0, 0.0]), 3),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_points_reject_bad_vectors(name):
    call, n = ENTRY_POINTS[name]
    with pytest.raises(DimensionMismatchError):
        call(np.ones(n + 1))
    with pytest.raises(ValueError):
        call(np.full(n, np.nan))
