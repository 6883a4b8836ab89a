"""The DOP853 tableau and dense output of the geodesic integrator, against
the order conditions their literals must meet, and the fused right-hand
sides against the generic one."""
import numpy as np
import pytest

from lorentzbilliards import billiard, quadric_flow, revolution, surface_flow
from lorentzbilliards.metric import Metric

# the nodes c_i of Dormand-Prince 8(5,3) in closed form
_C4 = (6.0 - np.sqrt(6.0)) / 30.0
_C = [0.0, 4.0 / 9.0 * _C4, 2.0 / 3.0 * _C4, _C4, (6.0 + np.sqrt(6.0)) / 30.0, 1.0 / 3.0, 0.25,
      4.0 / 13.0, 127.0 / 195.0, 0.6, 6.0 / 7.0, 1.0]


def test_stage_rows_sum_to_the_nodes():
    rows = surface_flow._DOP_A
    assert [len(row) for row in rows] == list(range(1, 12))
    for row, c in zip(rows, _C[1:]):
        assert row.sum() == pytest.approx(c, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("k", range(1, 9))
def test_weights_meet_the_quadrature_conditions(k):
    # sum_i b_i c_i^(k-1) = 1/k up to order 8
    b = surface_flow._DOP_B
    assert float(b @ np.array(_C) ** (k - 1)) == pytest.approx(1.0 / k, rel=0.0, abs=1e-14)


def test_error_weights_sum_to_zero():
    e5, e3 = surface_flow._DOP_E
    assert abs(e5.sum()) <= 1e-14
    assert abs(e3.sum()) <= 1e-14


# the nodes of the three extra stages of the dense output
_C_EXTRA = [1.0, 0.1, 0.2, 7.0 / 9.0]


def test_extra_stage_rows_sum_to_their_nodes():
    rows = surface_flow._DOP_A_EXTRA
    assert [len(row) for row in rows] == [13, 14, 15]
    for row, c in zip(rows, _C_EXTRA[1:]):
        assert row.sum() == pytest.approx(c, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("theta", [0.0, 0.1, 0.37, 0.5, 0.81, 1.0])
def test_dense_output_weights_meet_the_quadrature_conditions(theta):
    # with unit stages, h = 1 and y0 = 0, the interpolant's value at theta is
    # its weight vector b(theta): sum_i b_i(theta) c_i^(k-1) = theta^k / k
    # up to order 7, its derivative in theta is theta^(k-1), and b(1) is the
    # step's own weights
    k = np.eye(16)
    y1 = np.concatenate((surface_flow._DOP_B, np.zeros(4)))
    b, db = surface_flow._interpolate(surface_flow._interpolant(np.zeros(16), y1, k, 1.0), theta)
    c = np.array(_C + _C_EXTRA)
    for order in range(1, 8):
        assert float(b @ c ** (order - 1)) == pytest.approx(theta**order / order, rel=0.0, abs=1e-13)
        assert float(db @ c ** (order - 1)) == pytest.approx(theta ** (order - 1), rel=0.0, abs=1e-12)
    if theta == 1.0:
        assert np.allclose(b, y1, rtol=0.0, atol=1e-14)


def _surfaces():
    """(surface, point, tangent momentum) on quadrics of both signatures in
    n = 3, 4 and on the sine and a polynomial profile."""
    rng = np.random.default_rng(19)
    out = []
    for axes, signs in [((3.0, 2.0, 1.0), (1, 1, -1)), ((4.0, 3.0, 2.0, 1.0), (1, -1, 1, -1))]:
        q = quadric_flow.QuadricSurface(axes, signs)
        for _ in range(5):
            out.append((q.surface(), *q.random_state(rng)))
    for s in (revolution.sine_profile(2.0), revolution.polynomial_profile([2.0, 0.3, 0.1])):
        for z, phi in rng.uniform(-1.0, 1.0, (5, 2)):
            r = s.f(z)
            x = np.array([r * np.cos(phi), r * np.sin(phi), z])
            e_r = np.array([np.cos(phi), np.sin(phi), 0.0])
            e_phi = np.array([-np.sin(phi), np.cos(phi), 0.0])
            vz = rng.normal()
            out.append((s, x, s.df(z) * vz * e_r + rng.normal() * e_phi + np.array([0.0, 0.0, vz])))
    return out


@pytest.mark.parametrize("surf, x, p", _surfaces())
def test_fused_kernels_match_the_generic_field(surf, x, p):
    # one pass over floats against gradient, hessian_quad and polarization;
    # acceleration itself is the base class's, one call per right-hand side
    assert type(surf).acceleration is surface_flow.ImplicitSurface.acceleration
    dp, meas = surf.acceleration(x, p)
    ref_dp, ref_meas = surface_flow.ImplicitSurface._geodesic_field(surf, x, p)
    assert meas == pytest.approx(surf.singular_measure(x), rel=1e-13)
    assert ref_meas == pytest.approx(meas, rel=1e-13)
    assert np.allclose(dp, ref_dp, rtol=1e-9, atol=1e-9 * float(np.abs(ref_dp).max()))


def test_non_diagonal_quadric_takes_the_generic_field():
    # the null-coordinate plane, where the float kernel does not apply
    table = billiard.QuadricBoundary(Metric.dxdy_plane(), [1.0, 1.0])
    x, p = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
    assert table.acceleration(x, p)[1] == pytest.approx(table.singular_measure(x), rel=1e-13)
