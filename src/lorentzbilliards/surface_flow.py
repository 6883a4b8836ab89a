"""Constrained geodesic integration on implicit hypersurfaces G = 0.

Geodesics satisfy x'' = mu * n with n the metric normal (index-raised
gradient) and mu chosen so that the velocity stays tangent.  Steps are
adaptive RK4 (step doubling); after each accepted step the state is projected
back onto the constraint pair G(x) = 0, grad G . v = 0.  Points where the
normal becomes light-like (the induced metric degenerates) stop the
integration with a typed status, localized by bisection.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StepUnderflowError
from .metric import Metric, as_vector

INITIAL_STEP = 1e-2
LOCAL_ERR_TARGET = 1e-10
PROJECT_ITERS = 6
SINGULAR_REL_TOL = 1e-8


class ImplicitSurface:
    """A level set G = 0 with the ambient metric attached: a geodesic
    surface, or a billiard table with the table on the G < 0 side.

    The methods are kernels of the billiard and geodesic loops: they take
    float arrays of the metric's dimension and check nothing; the entry
    points (`billiard.iterate`, `integrate_geodesic`, ...) check on entry."""

    def __init__(self, metric: Metric):
        self.metric = metric

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        """Gradient covector of G."""
        raise NotImplementedError

    def hessian_quad(self, x, v) -> float:
        """v^T (Hess G) v."""
        raise NotImplementedError

    def scale(self) -> float:
        """Characteristic length used to normalize on-surface tests."""
        return 1.0

    # -- derived quantities -------------------------------------------------

    def normal(self, x) -> np.ndarray:
        return self.metric.gram_inv @ self.gradient(x)

    def singular_measure(self, x) -> float:
        """<n,n> normalized by the Euclidean size of n; zero on the
        degeneracy locus of the induced metric."""
        n = self.normal(x)
        return float(n @ self.metric.gram @ n) / float(n @ n)

    def acceleration(self, x, v) -> np.ndarray:
        grad = self.gradient(x)
        n = self.metric.gram_inv @ grad
        denom = float(grad @ n)
        mu = -self.hessian_quad(x, v) / denom
        return mu * n

    def project(self, x, v):
        """Newton projection of x onto G = 0 along the Euclidean gradient,
        then removal of the normal constraint violation from v.

        Corrections move along grad G rather than its metric sharp: the two
        agree to leading order away from the degeneracy locus, but the
        Euclidean direction stays well-conditioned when the metric normal
        turns light-like."""
        x = x.copy()
        for _ in range(PROJECT_ITERS):
            g = self.value(x)
            grad = self.gradient(x)
            denom = float(grad @ grad)
            if abs(g) <= 1e-15 * max(1.0, abs(denom)):
                break
            x = x - (g / denom) * grad
        grad = self.gradient(x)
        v = v - (float(grad @ v) / float(grad @ grad)) * grad
        return x, v


@dataclass
class FlowState:
    x: np.ndarray
    v: np.ndarray
    t: float = 0.0


@dataclass
class GeodesicRun:
    states: list[FlowState] = field(default_factory=list)
    status: str = "ok"

    def positions(self) -> np.ndarray:
        return np.array([s.x for s in self.states])

    def velocities(self) -> np.ndarray:
        return np.array([s.v for s in self.states])

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def final(self) -> FlowState:
        return self.states[-1]


def _rk4_step(surface: ImplicitSurface, x, v, h):
    def rhs(x, v):
        return v, surface.acceleration(x, v)

    k1x, k1v = rhs(x, v)
    k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k4x, k4v = rhs(x + h * k3x, v + h * k3v)
    xn = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    vn = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return xn, vn


def _double_step(surface, x, v, h):
    """One RK4 step of size h and two of size h/2; returns (coarse, fine, err)."""
    x1, v1 = _rk4_step(surface, x, v, h)
    xa, va = _rk4_step(surface, x, v, 0.5 * h)
    x2, v2 = _rk4_step(surface, xa, va, 0.5 * h)
    err = max(float(np.max(np.abs(x1 - x2))), float(np.max(np.abs(v1 - v2))))
    return (x1, v1), (x2, v2), err


def integrate_geodesic(
    surface: ImplicitSurface,
    x0,
    v0,
    length: float,
    local_err: float = LOCAL_ERR_TARGET,
    record_every: int = 1,
    stall_factor: float = 1e-3,
) -> GeodesicRun:
    """Integrate the geodesic up to parameter `length`.

    Stops with status "tropic" when the normal turns light-like, localizing
    the stopping point by bisection on the integration parameter.
    """
    n = surface.metric.n
    x, v = surface.project(as_vector(x0, n), as_vector(v0, n))
    run = GeodesicRun(states=[FlowState(x=x.copy(), v=v.copy(), t=0.0)])
    t = 0.0
    h = min(INITIAL_STEP, length)
    steps_since_record = 0
    # the measure at the start of the current step, carried forward, and its
    # size at the initial state (floored), the reference for "close to the locus"
    meas_old = surface.singular_measure(x)
    ref = max(abs(meas_old), 1e-30)
    h_min = 1e-14 * max(length, 1.0)
    stall_h = 1e-9 * max(length, 1.0)
    while t < length:
        h = min(h, length - t)
        (x1, v1), (x2, v2), err = _double_step(surface, x, v, h)
        if err > local_err and h > h_min:
            h = max(0.5 * h, h_min)
            continue
        x_new, v_new = surface.project(x2, v2)
        meas_new = surface.singular_measure(x_new)
        crossed = meas_new * meas_old < 0.0
        close = abs(meas_new) < SINGULAR_REL_TOL * ref
        if crossed and not close and h > h_min:
            # the step jumped across the degeneracy locus; walk into it
            # with smaller steps instead of accepting a polluted state
            h = max(0.5 * h, h_min)
            continue
        # on the locus, or an asymptotic approach: the measure shrinks
        # without crossing while the step size collapses
        if (
            crossed
            or close
            or (h <= stall_h and abs(meas_new) < stall_factor * ref)
            or (h <= 2.0 * h_min and abs(meas_new) < 1e-2 * ref)
        ):
            run.states.append(FlowState(x=x_new.copy(), v=v_new.copy(), t=t + h))
            run.status = "tropic"
            return run
        if h <= 2.0 * h_min:
            raise StepUnderflowError(
                "adaptive step size collapsed away from the degeneracy locus"
            )
        t += h
        x, v = x_new, v_new
        meas_old = meas_new
        steps_since_record += 1
        if steps_since_record >= record_every:
            run.states.append(FlowState(x=x.copy(), v=v.copy(), t=t))
            steps_since_record = 0
        if err < 0.1 * local_err:
            h *= 1.9
    if run.states[-1].t != t:
        run.states.append(FlowState(x=x.copy(), v=v.copy(), t=t))
    return run
