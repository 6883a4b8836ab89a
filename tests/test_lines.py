import warnings

import numpy as np
import pytest

from lorentzbilliards import lines
from lorentzbilliards.errors import ChartError
from lorentzbilliards.metric import CausalClass, Metric


def test_line_from_ur_origin():
    line = lines.line_from_ur(lines.URChart(0.0, 0.0))
    assert np.allclose(line.direction, [1, 1])
    assert np.allclose(line.base, [0, 0])


def test_line_from_ur_unit_r():
    line = lines.line_from_ur(lines.URChart(0.0, 1.0))
    assert np.allclose(line.base, [1, -1])
    assert np.allclose(line.direction, [1, 1])


def test_ur_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.uniform(-2, 2)
        r = rng.uniform(-3, 3)
        c = lines.line_to_ur(lines.line_from_ur(lines.URChart(u, r)))
        assert c.u == pytest.approx(u, abs=1e-12)
        assert c.r == pytest.approx(r, abs=1e-12)


def test_ur_chart_rejects_other_quadrants():
    m = Metric.dxdy_plane()
    bad = lines.make_line(m, [0, 0], [-1, -1])
    with pytest.raises(ChartError):
        lines.line_to_ur(bad)
    with pytest.raises(ChartError):
        lines.line_to_ur(lines.make_line(m, [0, 0], [1, -1]))


def test_make_line_canonical_gauge():
    m = Metric.dxdy_plane()
    line = lines.make_line(m, [2.0, 0.5], [2.0, 2.0])
    assert abs(m.norm2(line.direction)) == pytest.approx(1.0)
    assert m.inner(line.base, line.direction) == pytest.approx(0.0, abs=1e-12)
    assert line.causal is CausalClass.SPACE_LIKE


def test_make_line_leaves_the_callers_arrays_writable():
    # a light-like line keeps its base and direction as given: frozen copies
    # of the caller's arrays, not the arrays themselves
    b, d = np.array([0.5, 0.0]), np.array([1.0, 1.0])
    line = lines.make_line(Metric.from_signature(1, 1), b, d)
    assert line.causal is CausalClass.LIGHT_LIKE
    b[0] = 1.0
    d[0] = 2.0
    assert line.base.tolist() == [0.5, 0.0] and line.direction.tolist() == [1.0, 1.0]
    assert not (line.base.flags.writeable or line.direction.flags.writeable)


def test_area_form_values():
    assert lines.area_form_ur(1) == 2.0
    assert lines.area_form_ur(-1) == -2.0
    with pytest.raises(ValueError):
        lines.area_form_ur(0)


def test_omega3_antisymmetric():
    m = lines.omega3_matrix(0.3, 0.9, -0.2, 4.0)
    assert np.allclose(m, -m.T)


def test_omega3_char_coeffs_match_matrix():
    rng = np.random.default_rng(1)
    for _ in range(25):
        u, phi, r1, r2 = rng.uniform(-2, 2, size=4)
        mat = lines.omega3_matrix(u, phi, r1, r2)
        poly = np.poly(mat)
        a, b = lines.omega3_char_coeffs(phi, r2)
        # char poly lambda^4 + a lambda^2 + b
        assert poly[0] == pytest.approx(1.0)
        assert poly[1] == pytest.approx(0.0, abs=1e-10)
        assert poly[2] == pytest.approx(a, abs=1e-10 * max(1.0, abs(a)))
        assert poly[3] == pytest.approx(0.0, abs=1e-10 * max(1.0, abs(a)))
        assert poly[4] == pytest.approx(b, abs=1e-10 * max(1.0, abs(b)))


def test_omega3_phi_zero_double_pair():
    a, b = lines.omega3_char_coeffs(0.0, 7.0)
    assert (a, b) == (2.0, 1.0)
    eigs = np.linalg.eigvals(lines.omega3_matrix(0.0, 0.0, 0.0, 7.0))
    assert np.allclose(np.sort(np.abs(eigs)), 1.0)


def test_omega3_eigen_product_constant():
    for r2 in (1.0, 10.0, 1e3):
        (small,), (large,) = lines.omega3_eigen_scaling(1.3, [r2])
        assert small * large == pytest.approx(np.cosh(1.3), rel=1e-9)


def eigvals_pairs(phi, r2):
    """(small, large) pair magnitudes from the eigenvalues of omega3_matrix."""
    mags = np.sort(np.abs(np.linalg.eigvals(lines.omega3_matrix(0.3, phi, -1.7, r2))))
    return np.sqrt(mags[0] * mags[1]), np.sqrt(mags[2] * mags[3])


def test_omega3_closed_form_pairs_match_eigvals():
    r2s = np.geomspace(1e-4, 1e6, 41)
    for phi in (1e-6, -1e-6, 1e-3, 0.8, -1.3, 3.2):
        small, large = lines.omega3_eigen_scaling(phi, r2s)
        ref = np.array([eigvals_pairs(phi, r2) for r2 in r2s])
        assert np.allclose(small, ref[:, 0], rtol=1e-13, atol=0.0)
        assert np.allclose(large, ref[:, 1], rtol=1e-13, atol=0.0)


def test_omega3_blowup_slopes():
    r2s = np.geomspace(10.0, 1e4, 40)
    small, large = lines.omega3_eigen_scaling(0.8, r2s)
    assert lines.loglog_slope(r2s, small) == pytest.approx(-1.0, abs=0.01)
    assert lines.loglog_slope(r2s, large) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize(
    "xs", [[5.0, 5.0], np.geomspace(5.0, 5.0, 40), [1.0, 1.0, 1.0]], ids=["pair", "geomspace", "ones"]
)
def test_loglog_slope_rejects_a_sweep_without_spread(xs):
    # np.geomspace(5, 5, 40) is not exactly constant: a fit to it would
    # return a slope from rounding noise
    with pytest.raises(ValueError, match="spread"):
        lines.loglog_slope(xs, np.linspace(1.0, 2.0, len(xs)))


def test_omega3_scaling_requires_nonzero_phi():
    with pytest.raises(ValueError):
        lines.omega3_eigen_scaling(0.0, [1.0, 2.0])


def test_omega3_scaling_refuses_a_nan_phi():
    with pytest.raises(ValueError, match="phi = nan with r2 in"):
        lines.omega3_eigen_scaling(float("nan"), [1.0, 10.0])


@pytest.mark.parametrize("phi, r2s", [(800.0, [1.0, 10.0]), (1.0, [1.0, 1e200]), (-400.0, [1e-3, 1e30])])
def test_omega3_scaling_refuses_terms_outside_the_float_range(phi, r2s):
    # refused before numpy warns: the test suite turns a RuntimeWarning into an error
    with pytest.raises(ValueError, match="phi = .* with r2 in .* outside the float range"):
        lines.omega3_eigen_scaling(phi, r2s)


@pytest.mark.parametrize("phi, r2", [(400.0, 1.0), (-400.0, 2.0), (1.0, 1e200), (0.5, np.array([1.0, 1e300]))])
def test_omega3_char_coeffs_refuse_terms_outside_the_float_range(phi, r2):
    # refused with no RuntimeWarning: cosh(400)^2 overflowed to (inf, inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phi = .* with r2 in .* outside the float range"):
            lines.omega3_char_coeffs(phi, r2)


def test_omega_pairing_antisymmetric_zero():
    m = Metric.dxdy_plane()
    zero = (np.zeros(2), np.zeros(2))
    var = (np.array([0.1, 0.2]), np.array([-0.3, 0.4]))
    assert lines.omega_pairing(m, zero, zero) == 0.0
    assert lines.omega_pairing(m, var, zero) == pytest.approx(
        -lines.omega_pairing(m, zero, var)
    )


def test_omega_pairing_matches_halved_area_form():
    """With gram [[0,1/2],[1/2,0]] the chart pushforward of the pairing is
    half the area-form coefficient stated for the doubled plane metric."""
    m = Metric.dxdy_plane()

    def lf(u, r):
        return lines.line_from_ur(lines.URChart(u, r))

    for u0, r0 in [(0.0, 0.0), (0.4, -1.2), (-0.7, 2.0)]:
        du = lines.gauge_variation(m, lf, [u0, r0], 0)
        dr = lines.gauge_variation(m, lf, [u0, r0], 1)
        assert lines.omega_pairing(m, du, dr) == pytest.approx(
            lines.area_form_ur(1) / 2.0, abs=1e-8
        )
