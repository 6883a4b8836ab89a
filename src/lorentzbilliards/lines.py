"""Oriented lines, coordinate charts on line space, and symplectic area forms.

The (u, r) chart covers the space-like lines of the null-coordinate Lorentz
plane whose direction lies in the first quadrant: direction (e^-u, e^u),
foot of perpendicular r (e^-u, -e^u).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartError, SingularNormalError
from .metric import CausalClass, Metric, as_vector


@dataclass(frozen=True)
class OrientedLine:
    """A line in canonical gauge: unit direction, base orthogonal to it."""

    base: np.ndarray
    direction: np.ndarray
    causal: CausalClass

    def point_at(self, s: float) -> np.ndarray:
        return self.base + s * self.direction


def make_line(metric: Metric, base, direction) -> OrientedLine:
    """Build an oriented line through `base` with the given direction.

    Non-light-like directions are scaled to <d,d> = +/-1 and the base point is
    moved to the foot of the perpendicular from the origin.  Light-like lines
    keep the direction as given (no canonical scale exists).
    """
    base = as_vector(base, metric.n)
    direction = as_vector(direction, metric.n)
    causal = metric.classify(direction)
    if causal is not CausalClass.LIGHT_LIKE:
        direction = metric.unit(direction)
        base = base - (metric.inner(base, direction) / metric.norm2(direction)) * direction
    base.setflags(write=False)
    direction.setflags(write=False)
    return OrientedLine(base=base, direction=direction, causal=causal)


# -- the (u, r) chart -------------------------------------------------------


@dataclass(frozen=True)
class URChart:
    u: float
    r: float


def line_from_ur(chart: URChart) -> OrientedLine:
    d = np.array([np.exp(-chart.u), np.exp(chart.u)])
    base = chart.r * np.array([np.exp(-chart.u), -np.exp(chart.u)])
    base.setflags(write=False)
    d.setflags(write=False)
    return OrientedLine(base=base, direction=d, causal=CausalClass.SPACE_LIKE)


def line_to_ur(line: OrientedLine) -> URChart:
    """Inverse of line_from_ur; rejects lines outside the chart domain."""
    metric = Metric.dxdy_plane()
    d = line.direction
    if line.causal is not CausalClass.SPACE_LIKE or d[0] <= 0.0 or d[1] <= 0.0:
        raise ChartError("the (u, r) chart covers first-quadrant space-like lines only")
    d = metric.unit(d)
    base = line.base - (metric.inner(line.base, d) / metric.norm2(d)) * d
    u = 0.5 * np.log(d[1] / d[0])
    r = base[0] * np.exp(u)
    return URChart(u=float(u), r=float(r))


def area_form_ur(sign: int) -> float:
    """Coefficient of du^dr for the area form on the space-like (+1) or
    time-like (-1) lines of the null-coordinate plane.

    The value +/-2 uses the normalization of the plane metric in which
    <u,v> = u_x v_y + u_y v_x; with the gram of Metric.dxdy_plane() (half of
    that) the chart pushforward of omega_pairing comes out as +/-1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return 2.0 * sign


# -- the angle/perpendicular chart used by the circle billiard ---------------


@dataclass(frozen=True)
class AlphaPChart:
    alpha: float
    p: float


# -- the 3-D blow-up example -------------------------------------------------


def omega3_matrix(u: float, phi: float, r1: float, r2: float) -> np.ndarray:
    """Matrix of the line-space 2-form of the metric dx dy - dz^2 in the
    ordered coordinate basis (du, dphi, dr1, dr2)."""
    m = np.zeros((4, 4))
    m[0, 1] = r2 * np.sinh(phi)
    m[0, 3] = np.cosh(phi)
    m[1, 2] = -1.0
    return m - m.T


def omega3_char_coeffs(phi: float, r2: float) -> tuple[float, float]:
    """Coefficients (a, b) of the characteristic polynomial
    lambda^4 + a lambda^2 + b of omega3_matrix (independent of u, r1)."""
    a = 1.0 + r2**2 * np.sinh(phi) ** 2 + np.cosh(phi) ** 2
    b = np.cosh(phi) ** 2
    return float(a), float(b)


def omega3_eigen_pairs(u: float, phi: float, r1: float, r2: float) -> tuple[float, float]:
    """Magnitudes (small, large) of the two conjugate eigenvalue pairs."""
    eigs = np.linalg.eigvals(omega3_matrix(u, phi, r1, r2))
    mags = np.sort(np.abs(eigs))
    small = float(np.sqrt(mags[0] * mags[1]))
    large = float(np.sqrt(mags[2] * mags[3]))
    return small, large


def omega3_eigen_scaling(phi: float, r2_list) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue-pair magnitudes along a sweep in r2 (phi fixed, nonzero)."""
    if phi == 0.0:
        raise ValueError("phi must be nonzero for the blow-up sweep")
    if not all(0.0 < r2 < np.inf for r2 in r2_list):
        raise ValueError("r2 must be positive and finite")
    small = np.empty(len(r2_list))
    large = np.empty(len(r2_list))
    for i, r2 in enumerate(r2_list):
        small[i], large[i] = omega3_eigen_pairs(0.0, phi, 0.0, float(r2))
    return small, large


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs).  ValueError unless
    the spread of log(xs) is above 1e-12 of its size: a sweep that does not
    move has no slope to fit."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2:
        raise ValueError("a log-log slope needs at least two points")
    if not (np.all(xs > 0.0) and np.all(ys > 0.0)):
        raise ValueError("a log-log slope needs positive values")
    log_xs = np.log(xs)
    if not np.ptp(log_xs) > 1e-12 * np.abs(log_xs).max():
        raise ValueError("a log-log slope needs x values that spread")
    return float(np.polyfit(log_xs, np.log(ys), 1)[0])


# -- the symplectic pairing on tangent vectors of line space -----------------


def omega_pairing(metric: Metric, var1, var2) -> float:
    """Evaluate the line-space 2-form on two variations (dx, dv) of a section
    (x, v) of the unit-vector bundle over a non-light-like line."""
    (dx1, dv1), (dx2, dv2) = var1, var2
    return metric.inner(dv1, dx2) - metric.inner(dv2, dx1)


def gauge_variation(metric: Metric, line_func, params, index: int, h: float = 1e-6):
    """Central finite-difference variation of a line family along one
    parameter, taken in the canonical gauge (foot point, unit direction)."""
    p_plus = list(params)
    p_minus = list(params)
    p_plus[index] += h
    p_minus[index] -= h
    lp = line_func(*p_plus)
    lm = line_func(*p_minus)
    if lp.causal is CausalClass.LIGHT_LIKE or lm.causal is CausalClass.LIGHT_LIKE:
        raise SingularNormalError("light-like lines carry no symplectic pairing")
    return (lp.base - lm.base) / (2 * h), (lp.direction - lm.direction) / (2 * h)
