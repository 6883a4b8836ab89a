"""Constrained geodesic integration on implicit hypersurfaces G = 0.

Geodesics satisfy x'' = mu * n with n the metric normal (index-raised
gradient) and mu chosen so that the velocity stays tangent.  Steps are
adaptive Dormand-Prince 5(4); after each accepted step the state is projected
back onto the constraint pair G(x) = 0, grad G . v = 0.  Where the normal
becomes light-like (the induced metric degenerates, the tropic) the run
stops with status "tropic", decided on the state alone: see
`integrate_geodesic`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StepUnderflowError
from .metric import Metric, as_vector

INITIAL_STEP = 1e-2
LOCAL_ERR_TARGET = 1e-10
PROJECT_ITERS = 6
ON_SURFACE_TOL = 1e-10
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

    def on_surface(self, x) -> bool:
        """|G(x)| within ON_SURFACE_TOL of zero, relative to scale()**2."""
        return abs(self.value(x)) <= ON_SURFACE_TOL * max(1.0, self.scale() ** 2)

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
class Stats:
    """What a geodesic run cost: right-hand-side evaluations, accepted and
    rejected steps (the tropic stop counts as accepted), smallest step tried."""

    rhs_evals: int = 0
    accepted: int = 0
    rejected: int = 0
    min_h: float = float("inf")


@dataclass
class FlowState:
    x: np.ndarray
    v: np.ndarray
    t: float = 0.0


@dataclass
class GeodesicRun:
    states: list[FlowState] = field(default_factory=list)
    status: str = "ok"
    stats: Stats = field(default_factory=Stats)

    def positions(self) -> np.ndarray:
        return np.array([s.x for s in self.states])

    def velocities(self) -> np.ndarray:
        return np.array([s.v for s in self.states])

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def final(self) -> FlowState:
        return self.states[-1]


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980), the tableau of scipy's
# RK45.  Row s - 1 of _DP_A combines stages 0..s-1 into the input of stage s;
# its last row holds the 5th-order weights, so stage 6 is evaluated at the new
# state.  _DP_E holds the 5th- minus 4th-order weights: the error estimate.
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
# row s - 1 of _DP_A cut to the stages it combines, sliced once
_DP_ROWS = [_DP_A[s - 1, :s] for s in range(1, 7)]


def _rhs(surface: ImplicitSurface, y: np.ndarray, n: int, out: np.ndarray, stats: Stats) -> None:
    """Write f(y) = (v, acceleration) into the stage row `out`."""
    stats.rhs_evals += 1
    out[:n] = y[n:]
    out[n:] = surface.acceleration(y[:n], y[n:])


def integrate_geodesic(
    surface: ImplicitSurface,
    x0,
    v0,
    length: float,
    local_err: float = LOCAL_ERR_TARGET,
    record_every: int = 1,
    stall_factor: float = 1e-3,
) -> GeodesicRun:
    """Integrate the geodesic up to parameter `length` by Dormand-Prince 5(4)
    steps, each projected back onto the surface.

    The step size follows the standard controller on the max |error| over x
    and v against `local_err`.  A step that jumps across the degeneracy locus
    is halved and retried.  The run stops with status "tropic" on the state
    alone: when a step of the minimum size still crosses the locus, or the
    singular measure falls below `SINGULAR_REL_TOL` or `stall_factor` times
    its size at the start (the coordinate speed grows like measure^(-1/2),
    so the locus itself is reached only asymptotically).

    ValueError for a negative or non-finite `length`, a `local_err` that is
    not positive and finite, `record_every` < 1, or a start that does not
    project onto the surface.
    """
    if not 0.0 <= length < np.inf:
        raise ValueError("length must be non-negative and finite")
    if not 0.0 < local_err < np.inf:
        raise ValueError("local_err must be positive and finite")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    n = surface.metric.n
    x, v = surface.project(as_vector(x0, n), as_vector(v0, n))
    if not surface.on_surface(x):
        raise ValueError("the start does not project onto the surface")
    run = GeodesicRun(states=[FlowState(x=x.copy(), v=v.copy(), t=0.0)])
    stats = run.stats
    t = 0.0
    h = min(INITIAL_STEP, length)
    # the measure at the start of the current step, carried forward, and its
    # size at the initial state (floored), the reference for "close to the locus"
    meas_old = surface.singular_measure(x)
    ref = max(abs(meas_old), 1e-30)
    h_min = 1e-14 * max(length, 1.0)
    # the stages; k[0] = f(y) at the step's start, reused by a retry
    y = np.concatenate((x, v))
    k = np.empty((7, 2 * n))
    _rhs(surface, y, n, k[0], stats)
    while t < length:
        h = min(h, length - t)
        stats.min_h = min(stats.min_h, h)
        for s, row in enumerate(_DP_ROWS, 1):
            y_new = y + h * (row @ k[:s])
            _rhs(surface, y_new, n, k[s], stats)
        err = h * float(np.abs(_DP_E @ k).max())
        factor = min(5.0, max(0.2, 0.9 * (local_err / err) ** 0.2)) if err > 0.0 else 5.0
        if err > local_err and h > h_min:
            h = max(factor * h, h_min)
            stats.rejected += 1
            continue
        x_new, v_new = surface.project(y_new[:n], y_new[n:])
        meas_new = surface.singular_measure(x_new)
        crossed = meas_new * meas_old < 0.0
        close = abs(meas_new) < SINGULAR_REL_TOL * ref
        if crossed and not close and h > h_min:
            # the step jumped across the degeneracy locus; walk into it
            # with smaller steps instead of accepting a polluted state
            h = max(0.5 * h, h_min)
            stats.rejected += 1
            continue
        stats.accepted += 1
        if (crossed or close or abs(meas_new) < stall_factor * ref
                or (h <= 2.0 * h_min and abs(meas_new) < 1e-2 * ref)):
            run.states.append(FlowState(x=x_new.copy(), v=v_new.copy(), t=t + h))
            run.status = "tropic"
            return run
        if h <= 2.0 * h_min:
            raise StepUnderflowError("adaptive step size collapsed away from the degeneracy locus")
        t += h
        y = np.concatenate((x_new, v_new))
        _rhs(surface, y, n, k[0], stats)
        meas_old = meas_new
        if stats.accepted % record_every == 0:
            run.states.append(FlowState(x=x_new.copy(), v=v_new.copy(), t=t))
        h *= factor
    if run.states[-1].t != t:
        run.states.append(FlowState(x=y[:n].copy(), v=y[n:].copy(), t=t))
    return run
