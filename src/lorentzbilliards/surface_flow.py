"""Constrained geodesic integration on implicit hypersurfaces G = 0.

Geodesics satisfy x'' = mu * n with n the metric normal (index-raised
gradient) and mu chosen so that the velocity stays tangent.  Steps are
adaptive Dormand-Prince 8(5,3) (DOP853); after each accepted step the state
is projected back onto the constraint pair G(x) = 0, grad G . v = 0.  Where
the normal becomes light-like (the induced metric degenerates, the tropic)
the run stops with status "tropic", decided on the state alone: see
`integrate_geodesic`.
"""
from __future__ import annotations

import math
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
    rejected steps (the tropic stop counts as accepted), smallest step tried.
    A DOP853 attempt costs 11 evaluations, and an accepted step one more, at
    the projected state."""

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

    @property
    def final(self) -> FlowState:
        return self.states[-1]


# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10:
# DOP853), the tableau of scipy's DOP853.  Entry s - 1 of _DOP_A combines
# stages 0..s-1 into the input of stage s; _DOP_B holds the 8th-order weights,
# which use stages 0..11 only, so the new state needs no further stage.  The
# rows of _DOP_E hold the 8th- minus 5th-order and 8th- minus 3rd-order
# weights: the two error estimates that the step combines.
_DOP_A = [np.array(row) for row in (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
)]
_DOP_B = np.array([
    0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
])
_DOP_E = np.array([
    [0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294],
    [-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082],
])


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
    """Integrate the geodesic up to parameter `length` by Dormand-Prince
    8(5,3) (DOP853) steps, each projected back onto the surface.

    The step size follows the standard controller, with exponent 1/8, on the
    local error against `local_err`: DOP853's combined estimate
    h e5^2 / sqrt(e5^2 + 0.01 e3^2), with e5 and e3 the max |error| over x
    and v of its 5th- and 3rd-order estimates.  A step that jumps across the
    degeneracy locus is halved and retried.  The run stops with status "tropic" on the state
    alone: when a step of the minimum size still crosses the locus, or the
    singular measure falls below `SINGULAR_REL_TOL` or `stall_factor` times
    its size at the start (the coordinate speed grows like measure^(-1/2),
    so the locus itself is reached only asymptotically).

    ValueError for a negative or non-finite `length`, a `local_err` that is
    not positive and finite, `record_every` < 1, a `stall_factor` outside
    (0, 1), or a start that does not project onto the surface.
    StepUnderflowError, carrying the last accepted state, when the step
    collapses away from the locus.
    """
    if not 0.0 <= length < np.inf:
        raise ValueError("length must be non-negative and finite")
    if not 0.0 < local_err < np.inf:
        raise ValueError("local_err must be positive and finite")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if not 0.0 < stall_factor < 1.0:
        raise ValueError("stall_factor must lie in (0, 1)")
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
    k = np.empty((12, 2 * n))
    _rhs(surface, y, n, k[0], stats)
    while t < length:
        h = min(h, length - t)
        stats.min_h = min(stats.min_h, h)
        for s, row in enumerate(_DOP_A, 1):
            _rhs(surface, y + h * (row @ k[:s]), n, k[s], stats)
        e5, e3 = np.abs(_DOP_E @ k).max(axis=1).tolist()
        # h e5^2 / sqrt(e5^2 + 0.01 e3^2), written so that no square overflows
        err = h * e5 / math.sqrt(1.0 + 0.01 * (e3 / e5) * (e3 / e5)) if e5 > 0.0 else 0.0
        # safety 0.7: at 0.9 the CLI-default geodesic rejects half its attempts
        factor = min(5.0, max(0.2, 0.7 * (local_err / err) ** 0.125)) if err > 0.0 else 5.0
        if err > local_err and h > h_min:
            h = max(factor * h, h_min)
            stats.rejected += 1
            continue
        y_new = y + h * (_DOP_B @ k)
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
            raise StepUnderflowError(
                "adaptive step size collapsed away from the degeneracy locus",
                state=FlowState(x=x_new.copy(), v=v_new.copy(), t=t + h),
            )
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
