"""The DOP853 tableau and dense output of the geodesic integrator, against
the order conditions their literals must meet, the fused right-hand
sides against the generic one, and the list-fed stage loop and the
one-gradient projection against the numpy formulas they replaced."""
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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


# the kernels' list boundary: the integrator passes x and p as lists of
# floats, the tests and the generic field pass arrays; both give the same bits
_FIELD_SURFACES = [
    billiard.QuadricBoundary(Metric.diagonal([1.0, -1.0, 1.0]), [0.3, 1.2, 0.7]),
    billiard.QuadricBoundary(Metric.diagonal([-1.0, 1.0, 1.0, -1.0]), [0.5, 0.25, 2.0, 1.0]),
    billiard.QuadricBoundary(Metric.dxdy_plane(), [1.0, 2.0]),
    billiard.QuadricBoundary(Metric(np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 1.0]])),
                             [1.0, 0.5, 2.0]),
    revolution.cylinder(1.3),
    revolution.sine_profile(2.0),
    revolution.polynomial_profile([2.0, 0.3, 0.5]),
]


@pytest.mark.parametrize("surf", _FIELD_SURFACES, ids=lambda s: f"{type(s).__name__}-{s.metric.n}")
@given(data=st.data())
def test_acceleration_on_lists_is_acceleration_on_arrays(surf, data):
    n = surf.metric.n
    coords = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    x = np.array(data.draw(coords))
    p = np.array(data.draw(coords)) * 10.0 ** data.draw(st.integers(-3, 3))
    # away from the axis and the degeneracy locus, where both divide by zero
    grad = surf.gradient(x)
    normal = surf.metric.gram_inv @ grad
    assume(abs(float(grad @ normal)) > 1e-6 * float(normal @ normal) > 0.0)
    dp, meas = surf.acceleration(x.tolist(), p.tolist())
    ref_dp, ref_meas = surf.acceleration(x, p)
    assert type(dp) is list and type(ref_dp) is list
    assert np.array(dp).tobytes() == np.array(ref_dp).tobytes()
    assert np.float64(meas).tobytes() == np.float64(ref_meas).tobytes()


class _Recorder:
    """A stand-in for `_rhs` that records each stage input and returns the
    next row of a given stage matrix, so that the stages k equal it."""

    def __init__(self, rows):
        self.rows = iter(rows)
        self.inputs = []

    def __call__(self, surface, y, n, sign, stats):
        self.inputs.append(y)
        return next(self.rows)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rows, first", [(surface_flow._DOP_A, 1), (surface_flow._DOP_A_EXTRA, 13)],
                         ids=["step", "dense"])
def test_stage_inputs_are_the_numpy_formula(monkeypatch, rows, first, n):
    rng = np.random.default_rng(24 + n)
    for trial in range(40):
        stages = rng.normal(size=(16, 2 * n + 1)) * 10.0 ** rng.uniform(-8, 8, size=(16, 1))
        y = rng.normal(size=2 * n + 1) * 10.0 ** rng.uniform(-3, 3)
        h = float(10.0 ** rng.uniform(-12, 0))
        if trial % 4 == 3:
            # a stage that landed on the locus, or overflowed: its NaN must
            # reach the later stage inputs and the error estimate
            bad = rng.integers(first - 1, len(stages), size=3), rng.integers(0, 2 * n + 1, size=3)
            stages[bad] = [np.nan, np.inf, -np.inf]
        k = np.empty_like(stages)
        k[:first] = stages[:first]
        recorder = _Recorder(stages[first:].tolist())
        monkeypatch.setattr(surface_flow, "_rhs", recorder)
        # inf * 0 warns in the dot as it did in the matmul
        with np.errstate(invalid="ignore", over="ignore"):
            surface_flow._stages(None, y, h, rows, first, k, n, 1.0, surface_flow.Stats())
        last = first + len(rows)
        assert np.array_equal(k[:last], stages[:last], equal_nan=True)
        assert len(recorder.inputs) == len(rows)
        for s, (row, got) in enumerate(zip(rows, recorder.inputs), first):
            with np.errstate(invalid="ignore", over="ignore"):
                ref = y + h * (row @ stages[:s])
            assert type(got) is list
            assert np.array(got).tobytes() == ref.tobytes()


def _project_two_gradients(surface, x, v):
    """`ImplicitSurface.project` as it was, with a second gradient after the
    Newton loop."""
    x = x.copy()
    for _ in range(surface_flow.PROJECT_ITERS):
        g = surface.value(x)
        grad = surface.gradient(x)
        denom = float(grad @ grad)
        if abs(g) <= 1e-15 * max(1.0, abs(denom)):
            break
        x = x - (g / denom) * grad
    grad = surface.gradient(x)
    v = v - (float(grad @ v) / float(grad @ grad)) * grad
    return x, v


@pytest.mark.parametrize("surf, x, p", _surfaces())
def test_project_is_the_two_gradient_projection(surf, x, p):
    rng = np.random.default_rng(int(1e6 * abs(x[0])))
    # on the surface, off it by a little and by a lot
    for offset in (0.0, 1e-9, 1e-3, 0.3, 1e6):
        start = x + offset * rng.normal(size=x.size)
        v = p + rng.normal(size=x.size)
        got = surf.project(start, v)
        ref = _project_two_gradients(surf, start, v)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
    # from the farthest start no Newton step met the stopping test, so the
    # loop ran through all PROJECT_ITERS steps and its else branch took the gradient
    grad = surf.gradient(got[0])
    assert abs(surf.value(got[0])) > 1e-15 * max(1.0, float(grad @ grad))
