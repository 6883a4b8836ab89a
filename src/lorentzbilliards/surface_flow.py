"""Constrained geodesic integration on implicit hypersurfaces G = 0.

Geodesics satisfy x'' = mu * n with n the metric normal (index-raised
gradient) and mu chosen so that the velocity stays tangent.  Where the
normal becomes light-like (the induced metric degenerates, the tropic) a
geodesic arrives in finite time with |v| -> infinity: with meas the singular
measure (<n,n> over |n|^2, zero on the locus), t* - t ~ meas^(3/2) and
|v| ~ meas^(-1/2).  So the flow is integrated in a time tau regularised by
the measure itself (a Sundman rescaling; Hairer, Lubich & Wanner, Geometric
Numerical Integration, VIII.2): dt = s dtau on the state (x, p, t) with
momentum p = s v, where s = meas / sqrt(meas^2 + MEASURE_SCALE^2), signed
so that it is positive at the start.  Near the locus s is meas /
MEASURE_SCALE: along a solution meas ~ (tau* - tau)^2 and p ~ tau* - tau,
so the step does not collapse on the approach.  Away from it |s| is close
to 1 and tau is t, so a run that never nears the locus steps as in t.

Steps are adaptive Dormand-Prince 8(5,3) (DOP853) in tau; after each
accepted step the state is projected back onto the constraint pair
G(x) = 0, grad G . p = 0, and each recorded state carries v = p / s.  A run
ends at exactly t = length, placed on DOP853's dense output, or with status
"tropic", decided on the state alone: see `integrate_geodesic`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import StepUnderflowError
from .metric import Metric, as_count, as_vector

INITIAL_STEP = 1e-2
LOCAL_ERR_TARGET = 1e-10
PROJECT_ITERS = 6
ON_SURFACE_TOL = 1e-10
SINGULAR_REL_TOL = 1e-8
# the size of the singular measure below which the time is regularised: |s|
# is within 1% of 1 where |meas| > 7 MEASURE_SCALE
MEASURE_SCALE = 0.05
# the rounding error of a singular measure near 0
MEASURE_ROUNDING = 64 * sys.float_info.epsilon


class ImplicitSurface:
    """A level set G = 0 with the ambient metric attached: a geodesic
    surface, or a billiard table with the table on the G < 0 side.

    The methods are kernels of the billiard and geodesic loops: they take
    points and vectors of the metric's dimension, as 1-D float arrays, and
    check nothing; `value`, `gradient` and `acceleration` also take them as
    lists of floats, as the bracketed hit and the integrator's stages pass
    them.  The entry points (`iterate`, `integrate_geodesic`, ...) check."""

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

    def acceleration(self, x, p):
        """The geodesic equation in the regularised time tau of
        `integrate_geodesic`, at x with momentum p = s v: (dp/dtau, meas),
        meas the singular measure at x.  With a(x, v) = mu n the acceleration
        of x'' = mu n, which is quadratic in the velocity,
        dp/dtau = (grad s . p / s) p + a(x, p), and for
        s = meas / sqrt(meas^2 + MEASURE_SCALE^2)
        grad s . p / s = (grad meas . p / meas) / (1 + (meas / MEASURE_SCALE)^2).
        The integrator's right-hand side calls it exactly once, on lists, and
        dp is a list; a surface supplies it through `_geodesic_field`."""
        return self._geodesic_field(x, p)

    def _geodesic_field(self, x, p):
        """`acceleration` from `gradient` and `hessian_quad`, the Hessian's
        bilinear form H(p, w) taken by polarization.  With N = grad G,
        <n,n> = N.g^-1 N and |n|^2 = N.g^-2 N, so grad meas . p / meas is
        2 (H(p, n) / <n,n> - H(p, g^-1 n) / |n|^2)."""
        x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
        grad = self.gradient(x)
        gram_inv = self.metric.gram_inv
        n = gram_inv @ grad
        nn = float(grad @ n)
        ee = float(n @ n)
        meas = nn / ee
        rate = 2.0 * (self._hessian_pair(x, p, n) / nn - self._hessian_pair(x, p, gram_inv @ n) / ee)
        rate /= 1.0 + (meas / MEASURE_SCALE) ** 2
        return (rate * p - (self.hessian_quad(x, p) / nn) * n).tolist(), meas

    def _hessian_pair(self, x, p, w) -> float:
        """H(p, w) by polarization, with w scaled to the length of p so that
        neither term swamps the other."""
        size = math.sqrt(float(p @ p) / float(w @ w))
        if size == 0.0:
            return 0.0
        w = size * w
        return 0.25 * (self.hessian_quad(x, p + w) - self.hessian_quad(x, p - w)) / size

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
        else:
            # the last step moved x: its gradient is not yet taken
            grad = self.gradient(x)
            denom = float(grad @ grad)
        v = v - (float(grad @ v) / denom) * grad
        return x, v


@dataclass
class Stats:
    """What a geodesic run cost: right-hand-side evaluations, accepted and
    rejected steps (the tropic stop counts as accepted), and the smallest
    step tried, measured in the regularised time tau of `integrate_geodesic`
    (dt = s dtau, |s| within 1% of 1 where the singular measure exceeds
    7 MEASURE_SCALE, and meas / MEASURE_SCALE near the locus).  A DOP853
    attempt costs 11 evaluations; an accepted step one more, at the
    projected state, except the step that passes t = length, which costs
    four more: one at its end and three for the dense output."""

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


# The dense output of DOP853 (Hairer, Norsett & Wanner, II.6, and scipy's
# DOP853): _DOP_A_EXTRA rows 12..14 make three further stages, from stages
# 0..11, stage 12 = f at the step's end, and each other, and the rows of
# _DOP_D weigh all 16 into the top four of the interpolant's seven terms.
_DOP_A_EXTRA = [np.array(row) for row in (
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
)]
_DOP_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])


def _rhs(surface: ImplicitSurface, y: list[float], n: int, sign: float, stats: Stats) -> list[float]:
    """f(y) = (p, dp/dtau, s) for y = (x, p, t), as lists of floats."""
    stats.rhs_evals += 1
    p = y[n : 2 * n]
    dp, meas = surface.acceleration(y[:n], p)
    return [*p, *dp, sign * meas / math.hypot(meas, MEASURE_SCALE)]


def _stages(surface, y, h, rows, first, k, n, sign, stats) -> None:
    """Write stage s = first, first + 1, ... of the step of size h from y into
    k[s]: f at y + h (rows[s - first] @ k[:s]), formed by one BLAS dot, whose
    fused multiply-adds a Python sum would round apart, then on floats."""
    ys = y.tolist()
    dot = np.empty(len(ys))
    for s, row in enumerate(rows, first):
        np.dot(row, k[:s], out=dot)
        k[s] = _rhs(surface, [a + h * b for a, b in zip(ys, dot.tolist())], n, sign, stats)


def _interpolant(y0: np.ndarray, y1: np.ndarray, k: np.ndarray, h: float) -> np.ndarray:
    """The seven terms F of the dense output over a step from y0 to y1 of
    size h with the 16 stages k."""
    dy = y1 - y0
    return np.vstack((dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]), h * (_DOP_D @ k)))


def _interpolate(terms, theta: float):
    """y(theta) - y0 at the fraction theta of the step and its derivative in
    theta, from the terms F of `_interpolant`:
    theta (F0 + (1 - theta)(F1 + theta (F2 + ...)))."""
    y = dy = 0.0
    for i, term in enumerate(reversed(terms)):
        y += term
        if i % 2 == 0:
            dy, y = dy * theta + y, y * theta
        else:
            dy, y = dy * (1.0 - theta) - y, y * (1.0 - theta)
    return y, dy


def _fraction_at(terms: list[float], target: float, theta: float) -> float:
    """The root of `_interpolate`(terms, theta) = target for one component
    increasing on [0, 1], by Newton's method from theta."""
    for _ in range(20):
        y, dy = _interpolate(terms, theta)
        step = (y - target) / dy
        theta = min(1.0, max(0.0, theta - step))
        if abs(step) <= 1e-15:
            break
    return theta


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
    8(5,3) (DOP853) steps in the regularised time tau (see the module
    docstring), each projected back onto the surface.

    The step size follows the standard controller, with exponent 1/8, on the
    local error against `local_err`: DOP853's combined estimate
    h e5^2 / sqrt(e5^2 + 0.01 e3^2), with e5 and e3 the max |error| over x,
    p and t of its 5th- and 3rd-order estimates.  So `local_err` bounds the
    error per step in the tau-variables: away from the locus p is v, and
    near it an error e in p is an error e / |s| in v.  The step that passes
    t = length is cut there on DOP853's dense output, so a run that ends
    "ok" ends at exactly t = length.  A step that jumps across the
    degeneracy locus is halved and retried; so is one that crosses it past
    t = length, since t decreases past the locus.
    The run stops with status "tropic", at t <= length, on the state alone:
    when a step of the minimum size still crosses the locus or lands a
    stage on it, or the singular measure falls below `SINGULAR_REL_TOL` or
    `stall_factor` times its size at the start, or at once for a start on
    the locus to rounding (`stall_factor` times the measure at the start
    within `MEASURE_ROUNDING`).

    ValueError for a negative or non-finite `length`, a `local_err` that is
    not positive and finite, a `record_every` that is not an integer of at
    least 1, a `stall_factor` outside (0, 1), or a start that does not
    project onto the surface.  StepUnderflowError, carrying the last
    accepted state, when the step collapses away from the locus.
    """
    if not 0.0 <= length < np.inf:
        raise ValueError("length must be non-negative and finite")
    if not 0.0 < local_err < np.inf:
        raise ValueError("local_err must be positive and finite")
    if as_count(record_every) < 1:
        raise ValueError("record_every must be at least 1")
    if not 0.0 < stall_factor < 1.0:
        raise ValueError("stall_factor must lie in (0, 1)")
    n = surface.metric.n
    x, v = surface.project(as_vector(x0, n), as_vector(v0, n))
    if not surface.on_surface(x):
        raise ValueError("the start does not project onto the surface")
    run = GeodesicRun(states=[FlowState(x=x.copy(), v=v.copy(), t=0.0)])
    if length == 0.0:
        return run
    # the measure at the start: the stop tests read the measure relative to
    # it, and its sign makes s positive at the start
    meas0 = surface.singular_measure(x)
    if stall_factor * abs(meas0) <= MEASURE_ROUNDING:
        # the stall test could not tell the measure from rounding: the start
        # lies on the locus to working precision
        run.status = "tropic"
        return run
    sign = math.copysign(1.0, meas0)
    stats = run.stats
    # <v,v> at the start, restored after each projection: near the locus it
    # is a difference of terms of size |v|^2 ~ 1 / meas, so errors in p that
    # the controller accepts would move it far more than they move x
    gram = surface.metric.gram
    energy = float(v @ gram @ v)

    def settle(y_end):
        """The projection of (x, p) in y_end, then one Newton step on
        <p,p> = energy s^2 along w, the tangent part of g p: the least change
        of p that moves <p,p>.  Returns (x, p, s, meas / meas0)."""
        x_end, p_end = surface.project(y_end[:n], y_end[n : 2 * n])
        meas = surface.singular_measure(x_end)
        s_end = sign * meas / math.hypot(meas, MEASURE_SCALE)
        grad = surface.gradient(x_end)
        w = gram @ p_end
        w -= (float(grad @ w) / float(grad @ grad)) * grad
        # the slope of <p,p> along w is 2 w.g p = 2 |w|^2
        ww = float(w @ w)
        if ww > 0.0:
            p_end += ((energy * s_end * s_end - float(p_end @ gram @ p_end)) / (2.0 * ww)) * w
        return x_end, p_end, s_end, meas / meas0

    h = min(INITIAL_STEP, length)
    h_min = 1e-14 * max(length, 1.0)
    # the state (x, p, t) and the stages; k[0] = f(y) at the step's start,
    # reused by a retry
    y = np.concatenate((x, (abs(meas0) / math.hypot(meas0, MEASURE_SCALE)) * v, [0.0]))
    k = np.empty((16, 2 * n + 1))
    k[0] = _rhs(surface, y.tolist(), n, sign, stats)
    while True:
        stats.min_h = min(stats.min_h, h)
        _stages(surface, y, h, _DOP_A, 1, k, n, sign, stats)
        e5, e3 = np.abs(_DOP_E @ k[:12]).max(axis=1).tolist()
        # h e5^2 / sqrt(e5^2 + 0.01 e3^2), written so that no square overflows
        err = h * e5 / math.sqrt(1.0 + 0.01 * (e3 / e5) * (e3 / e5)) if e5 != 0.0 else 0.0
        # safety 0.7: at 0.9 the CLI-default geodesic rejects half its attempts;
        # a NaN estimate, from a stage that landed on the locus, shrinks h
        if err > 0.0:
            factor = min(5.0, max(0.2, 0.7 * (local_err / err) ** 0.125))
        else:
            factor = 5.0 if err == 0.0 else 0.2
        if not err <= local_err and h > h_min:
            h = max(factor * h, h_min)
            stats.rejected += 1
            continue
        if err != err:
            # a stage within the minimum step of y lies on the locus, so y
            # does, to rounding
            run.states.append(FlowState(x=y[:n].copy(), v=_velocity(y[n : 2 * n], k[0, 2 * n]),
                                        t=float(y[2 * n])))
            run.status = "tropic"
            return run
        y_new = y + h * (_DOP_B @ k[:12])
        x_new, p_new, s_new, rel = settle(y_new)
        t_new = float(y_new[2 * n])
        crossed = rel < 0.0
        close = abs(rel) < SINGULAR_REL_TOL
        # past the locus dt/dtau < 0, so a step that crosses it with
        # t_new >= length passed t = length before the locus
        if crossed and (not close or t_new >= length) and h > h_min:
            # the step jumped across the degeneracy locus; walk into it
            # with smaller steps instead of accepting a polluted state
            h = max(0.5 * h, h_min)
            stats.rejected += 1
            continue
        stats.accepted += 1
        if t_new >= length and not crossed:
            x_end, p_end, s_end, _ = settle(_state_at(length, surface, y, y_new, k, h, n, sign, stats))
            run.states.append(FlowState(x=x_end, v=_velocity(p_end, s_end), t=length))
            return run
        v_new = _velocity(p_new, s_new)
        if (crossed or close or abs(rel) < stall_factor
                or (h <= 2.0 * h_min and abs(rel) < 1e-2)):
            # a crossing step of the minimum size may end past t = length by
            # at most h_min
            run.states.append(FlowState(x=x_new, v=v_new, t=min(t_new, length)))
            run.status = "tropic"
            return run
        if h <= 2.0 * h_min:
            raise StepUnderflowError(
                "adaptive step size collapsed away from the degeneracy locus",
                state=FlowState(x=x_new, v=v_new, t=t_new),
            )
        y = np.concatenate((x_new, p_new, [t_new]))
        k[0] = _rhs(surface, y.tolist(), n, sign, stats)
        if stats.accepted % record_every == 0:
            run.states.append(FlowState(x=x_new, v=v_new, t=t_new))
        h *= factor


def _velocity(p: np.ndarray, s: float) -> np.ndarray:
    """v = p / |s|, the velocity along the direction of travel also on a
    state a step has taken just past the locus (s < 0), and finite at an
    exact zero of the measure."""
    return p / max(abs(s), sys.float_info.min)


def _state_at(t_end: float, surface, y, y_new, k, h, n, sign, stats) -> np.ndarray:
    """The state at t = t_end inside the step from y to y_new, on DOP853's
    dense output: four more right-hand sides, for the stage at y_new and
    the three extra stages."""
    k[12] = _rhs(surface, y_new.tolist(), n, sign, stats)
    _stages(surface, y, h, _DOP_A_EXTRA, 13, k, n, sign, stats)
    terms = _interpolant(y, y_new, k, h)
    t0 = float(y[2 * n])
    guess = (t_end - t0) / (float(y_new[2 * n]) - t0)
    return y + _interpolate(terms, _fraction_at(terms[:, 2 * n].tolist(), t_end - t0, guess))[0]
