"""Geodesics on Lorentz surfaces of revolution r = f(z) in dx^2+dy^2-dz^2.

The conserved quantity is (1 - cr^2) / r^2 where cr is the cross-ratio of
the meridian, parallel, geodesic-tangent and null directions in the tangent
plane; it equals <v,v> / m^2 with m = r * v_phi the angular momentum, so it
vanishes identically on light-like geodesics.  The tropic |f'(z)| = 1 is the
degeneracy locus of the induced metric; time-like geodesics terminate there
with direction approaching the meridian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from . import surface_flow
from .metric import Metric, as_vector

TROPIC_TOL = 1e-8


@dataclass(frozen=True)
class RevolutionSurface(surface_flow.ImplicitSurface):
    """Profile r = f(z), rotated about the z-axis: the zero set of
    G = x^2 + y^2 - f(z)^2 in dx^2 + dy^2 - dz^2."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]
    metric: ClassVar[Metric] = Metric.diagonal([1.0, 1.0, -1.0])

    def surface(self) -> surface_flow.ImplicitSurface:
        return self

    def on_tropic(self, z: float, tol: float = TROPIC_TOL) -> bool:
        return abs(1.0 - self.df(z) ** 2) < tol

    # the kernels unpack q and v into Python floats: the profiles take a
    # float z, and scalar arithmetic skips numpy's per-operation dispatch
    def value(self, q):
        x, y, z = q.tolist()
        return float(x * x + y * y - self.f(z) ** 2)

    def gradient(self, q):
        x, y, z = q.tolist()
        return np.array([2.0 * x, 2.0 * y, -2.0 * self.f(z) * self.df(z)])

    def hessian_quad(self, q, v):
        _, _, z = q.tolist()
        vx, vy, vz = v.tolist()
        f = self.f(z)
        df = self.df(z)
        d2f = self.d2f(z)
        return float(2.0 * (vx * vx + vy * vy) - 2.0 * (df * df + f * d2f) * vz * vz)


# -- profile registry --------------------------------------------------------


def cylinder(radius: float = 1.0) -> RevolutionSurface:
    if not 0.0 < radius < math.inf:
        raise ValueError("cylinder radius must be positive and finite")
    return RevolutionSurface(
        f=lambda z: radius, df=lambda z: 0.0, d2f=lambda z: 0.0
    )


def sine_profile(offset: float = 2.0) -> RevolutionSurface:
    """The profile f(z) = offset + sin z, which stays off the axis only for
    offset > 1."""
    if not 1.0 < offset < math.inf:
        raise ValueError("sine profile offset must be finite and greater than 1")
    return RevolutionSurface(f=lambda z: offset + np.sin(z), df=np.cos, d2f=lambda z: -np.sin(z))


def polynomial_profile(coeffs) -> RevolutionSurface:
    """Profile from ascending polynomial coefficients: a non-empty 1-D list
    of finite numbers, positive if the polynomial is constant."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("polynomial profile coefficients must form a non-empty 1-D list")
    if not np.isfinite(c).all():
        raise ValueError("polynomial profile coefficients must be finite")
    if not c[1:].any() and not c[0] > 0.0:
        raise ValueError("a constant polynomial profile must be positive")
    p = c[::-1].tolist()
    dp = _derivative(p)
    return RevolutionSurface(f=_horner(p), df=_horner(dp), d2f=_horner(_derivative(dp)))


def _derivative(p: list[float]) -> list[float]:
    """Descending coefficients of p', computed as np.polyder computes them."""
    n = len(p) - 1
    return [a * (n - i) for i, a in enumerate(p[:-1])]


def _horner(p: list[float]) -> Callable[[float], float]:
    """z -> p(z) for descending coefficients p, by the operations of
    np.polyval in its order, so every value is the same to the bit."""

    def value(z: float) -> float:
        y = 0.0
        for a in p:
            y = y * z + a
        return y

    return value


PROFILES = {
    "cylinder": cylinder,
    "sine": sine_profile,
    "polynomial": polynomial_profile,
}


# -- cylindrical decomposition and invariants --------------------------------


def cylindrical_velocity(x, v) -> tuple[float, float, float, float]:
    """(r, v_r, v_phi, v_z) of a state (x, v)."""
    x = as_vector(x, 3)
    v = as_vector(v, 3)
    r = float(np.hypot(x[0], x[1]))
    if r == 0.0:
        raise ValueError("state on the axis of revolution")
    v_r = float((x[0] * v[0] + x[1] * v[1]) / r)
    v_phi = float((x[0] * v[1] - x[1] * v[0]) / r)
    return r, v_r, v_phi, float(v[2])


def angular_momentum(x, v) -> float:
    r, _, v_phi, _ = cylindrical_velocity(x, v)
    return r * v_phi


def cross_ratio(s: RevolutionSurface, x, v) -> float:
    """Cross-ratio of the meridian, parallel, tangent and null directions:
    cr = v_z sqrt(1 - f'(z)^2) / v_phi.  Infinite on meridians (v_phi = 0)."""
    _, _, v_phi, v_z = cylindrical_velocity(x, v)
    z = float(x[2])
    disc = 1.0 - s.df(z) ** 2
    if disc < 0.0:
        raise ValueError("no null directions: point on the Riemannian side of the tropic")
    if v_phi == 0.0:
        return float("inf") if v_z != 0.0 else float("nan")
    return float(v_z * np.sqrt(disc) / v_phi)


def clairaut_invariant(s: RevolutionSurface, x, v) -> float:
    """(1 - cr^2) / r^2, evaluated in the division-safe form
    (v_phi^2 - v_z^2 (1 - f'(z)^2)) / (r^2 v_phi^2); equals <v,v> / m^2 and
    is exactly 0 for light-like states."""
    r, _, v_phi, v_z = cylindrical_velocity(x, v)
    z = float(x[2])
    disc = 1.0 - s.df(z) ** 2
    num = v_phi**2 - v_z**2 * disc
    if v_phi == 0.0:
        return float("inf") if num != 0.0 else float("nan")
    return float(num / (r**2 * v_phi**2))


def integrate_revolution_geodesic(
    s: RevolutionSurface, x0, v0, length: float, **kwargs
) -> surface_flow.GeodesicRun:
    """Constrained integration on the surface; terminates with status
    "tropic" when |f'(z)| reaches 1."""
    return surface_flow.integrate_geodesic(s.surface(), x0, v0, length, **kwargs)


def meridian_angle(s: RevolutionSurface, x, v) -> float:
    """Angle (in the Euclidean sense, within the tangent plane chart) between
    the velocity and the meridian direction l_z."""
    _, v_r, v_phi, v_z = cylindrical_velocity(x, v)
    along = np.hypot(v_r, v_z)
    return float(np.arctan2(abs(v_phi), along))
