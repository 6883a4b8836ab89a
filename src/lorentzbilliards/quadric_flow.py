"""Geodesic flow on a quadric in pseudo-Euclidean space, the billiard inside
it, and the associated first integrals (the signature-weighted analogues of
the classical ellipsoid integrals and the Joachimsthal product)."""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import billiard as _billiard
from . import confocal as _confocal
from . import surface_flow
from .metric import Metric, as_vector

SELF_TOL = 1e-6
LIGHT_TOL = 1e-6


@dataclass(frozen=True)
class QuadricSurface:
    """The ellipsoid sum_i x_i^2 / a_i^2 = 1 in the diagonal metric with
    the given signs."""

    axes_sq: tuple[float, ...]
    signs: tuple[int, ...]
    _table: _billiard.QuadricBoundary = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _confocal.validate_axes_signs(self.axes_sq, self.signs)
        table = _billiard.QuadricBoundary(Metric.diagonal(self.signs), 1.0 / np.asarray(self.axes_sq))
        object.__setattr__(self, "_table", table)

    @property
    def n(self) -> int:
        return len(self.axes_sq)

    @property
    def metric(self) -> Metric:
        return self._table.metric

    @functools.cached_property
    def family(self) -> _confocal.ConfocalFamily:
        """The confocal family through the quadric, built and checked once
        per surface; ValueError when two poles -tau_i a_i^2 coincide."""
        return _confocal.ConfocalFamily(axes_sq=tuple(self.axes_sq), signs=tuple(self.signs))

    @property
    def coeffs(self) -> np.ndarray:
        return self._table.coeffs

    def surface(self) -> _billiard.QuadricBoundary:
        """The quadric as a geodesic surface: the same level set as the
        billiard table."""
        return self._table

    def boundary(self) -> _billiard.QuadricBoundary:
        return self._table

    def constraint_residuals(self, x, v) -> tuple[float, float]:
        """G(x) and half the tangency residual grad G . v."""
        x = as_vector(x, self.n)
        v = as_vector(v, self.n)
        return self.boundary().value(x), float(self.coeffs @ (x * v))

    def random_state(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """A random point on the quadric with a random tangent vector."""
        surf = self.surface()
        x = surf.radial_point(rng.normal(size=self.n))
        return surf.project(x, rng.normal(size=self.n))


def integrate_quadric_geodesic(
    q: QuadricSurface, x0, v0, length: float, **kwargs
) -> surface_flow.GeodesicRun:
    return surface_flow.integrate_geodesic(q.surface(), x0, v0, length, **kwargs)


# -- first integrals ---------------------------------------------------------


def integrals_F(q: QuadricSurface, x, v) -> np.ndarray:
    """The n quadratic first integrals
    F_k = v_k^2 / tau_k + sum_{i != k} (x_i v_k - x_k v_i)^2
          / (tau_i a_k^2 - tau_k a_i^2); they sum to <v,v>.  ValueError
    when two poles -tau_i a_i^2 coincide (a denominator is 0)."""
    a2, tau = q.family._basis.a2, q.family._basis.tau
    x = as_vector(x, q.n).tolist()
    v = as_vector(v, q.n).tolist()
    out = []
    for k in range(q.n):
        total = 0.0
        for i in range(q.n):
            if i != k:
                total += (x[i] * v[k] - x[k] * v[i]) ** 2 / (tau[i] * a2[k] - tau[k] * a2[i])
        out.append(v[k] ** 2 / tau[k] + total)
    return np.array(out)


def joachimsthal(q: QuadricSurface, x, v) -> float:
    """Signature-weighted Joachimsthal product
    (sum_i x_i^2 / (tau_i a_i^4)) (sum_j v_j^2 / a_j^2)."""
    x = as_vector(x, q.n)
    v = as_vector(v, q.n)
    a2 = np.asarray(q.axes_sq)
    tau = np.asarray(q.signs, dtype=float)
    return float(np.sum(x**2 / (tau * a2**2)) * np.sum(v**2 / a2))


# -- the billiard inside the quadric -----------------------------------------


def billiard_in_quadric(
    q: QuadricSurface, start, direction, n_bounces: int
) -> _billiard.Trajectory:
    return _billiard.iterate(q.boundary(), start, direction, n_bounces)


# -- Jacobi-Chasles tangency spectra -----------------------------------------


def geodesic_tangent_lines(run: surface_flow.GeodesicRun, stride: int = 1):
    """(point, direction) pairs of tangent lines sampled along a geodesic."""
    return [(s.x, s.v) for s in run.states[::stride]]


def billiard_chord_lines(traj: _billiard.Trajectory):
    """(point, direction) pairs of the chord lines of a billiard trajectory."""
    return [(r.point, r.incoming) for r in traj.records]


def tangency_spectra(q: QuadricSurface, lines, drop_self: bool = False):
    """Tangency spectra of a list of lines against the confocal family of q.

    drop_self removes the lam ~ 0 member (the quadric itself) from geodesic
    tangent-line spectra.  Lines within LIGHT_TOL of the light cone (a cut on
    which spectra to trust, not a class test) or with an identically-zero
    discriminant are skipped; tangency values on a family pole (degenerate
    members) are kept, since they are conserved along the trajectory too."""
    family = q.family
    m = q.metric
    spectra = []
    for base, direction in lines:
        d = as_vector(direction, q.n)
        if abs(float(d @ m.gram @ d)) < LIGHT_TOL * float(d @ d):
            continue
        spec = _confocal.tangent_spectrum_of_line(family, base, d)
        if spec.infinite:
            continue
        values = np.concatenate([spec.values, spec.pole_values])
        if drop_self:
            values = values[np.abs(values) > SELF_TOL]
        spectra.append(np.sort(values))
    return spectra


def spectrum_spread(spectra) -> float:
    """Max over spectrum slots of (max - min) across a trajectory; infinite
    when the spectra disagree in size."""
    if not spectra:
        return float("nan")
    sizes = {len(s) for s in spectra}
    if len(sizes) != 1:
        return float("inf")
    stacked = np.array(spectra)
    return float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))


def jacobi_chasles_check(q: QuadricSurface, lines, drop_self: bool = False):
    """Spread of the tangency spectra along a trajectory: (spread, size)."""
    spectra = tangency_spectra(q, lines, drop_self=drop_self)
    if not spectra:
        return float("nan"), 0
    return spectrum_spread(spectra), len(spectra[0])
