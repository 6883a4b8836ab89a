"""Generic pseudo-Euclidean billiard dynamics.

Boundaries are `ImplicitSurface` level sets F = 0, the type the geodesic
flows integrate on, with the table on the F < 0 side.  The reflection
replaces the normal component of the velocity, which preserves the scalar
square and hence the causal class of the chord.  Points where the
metric normal is light-like are singular: the billiard map is undefined and
trajectories stop there.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EscapeError,
    GrazeError,
    LocalChartError,
    RootNotConvergedError,
    TrajectoryStopped,
)
from .metric import _KERNEL_RANGE, Metric, _cross2, _kernel_scale, _light_like
from .metric import as_count, as_vector
from .surface_flow import MEASURE_SCALE, ImplicitSurface

EPS_STEP = 1e-12
N_BRACKETS = 256
NEWTON_TOL = 1e-12
NEWTON_ITERS = 80


class QuadricBoundary(ImplicitSurface):
    """Ellipsoidal table sum_i coeffs_i x_i^2 = 1, coeffs positive and finite:
    the one ellipsoid check, for tables, geodesic surfaces and diameters."""

    def __init__(self, metric: Metric, coeffs):
        super().__init__(metric)
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.shape[0] != metric.n:
            raise ValueError("coefficient vector must match the space dimension")
        if not np.all((coeffs > 0.0) & (coeffs < np.inf)):
            raise ValueError("quadric coefficients must be positive and finite")
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        self._scale = float(1.0 / np.sqrt(coeffs.min()))

    @classmethod
    def from_semi_axes(cls, metric: Metric, semi_axes) -> "QuadricBoundary":
        semi_axes = np.asarray(semi_axes, dtype=float)
        if not np.all(np.isfinite(semi_axes) & (semi_axes != 0.0)):
            raise ValueError("semi-axes must be nonzero and finite")
        return cls(metric, 1.0 / semi_axes**2)

    def radial_point(self, raw) -> np.ndarray:
        """The point where the ray from the origin through raw meets the table."""
        return raw / np.sqrt(float(self.coeffs @ raw**2))

    def value(self, q):
        # np.square is the ufunc that q**2 runs on an array, and takes a list
        return float(self.coeffs @ np.square(q) - 1.0)

    def gradient(self, q):
        return 2.0 * self.coeffs * q

    def hessian_quad(self, q, v):
        return float(2.0 * self.coeffs @ v**2)

    def scale(self):
        return self._scale

    @functools.cached_property
    def _diagonal(self):
        """(coeffs_i, 1 / g_ii) for the geodesic kernel, None unless the
        metric is diagonal; built on first use, so tables do not pay for it."""
        gram_inv = self.metric.gram_inv
        ginv = np.diag(gram_inv)
        if not np.array_equal(gram_inv, np.diag(ginv)):
            return None
        return list(zip(self.coeffs.tolist(), ginv.tolist()))

    def _geodesic_field(self, q, p):
        """`acceleration` in one pass over Python floats, in a diagonal
        metric: grad G = 2 c x, n = g^-1 grad G and Hess G = 2 diag(c)."""
        if self._diagonal is None:
            return super()._geodesic_field(q, p)
        normal = []
        nn = ee = hpp = hpn = hpm = 0.0
        for (c, gi), xi, pi in zip(self._diagonal, q, p):
            grad = 2.0 * c * xi
            ni = gi * grad
            hp = 2.0 * c * pi
            nn += grad * ni
            ee += ni * ni
            hpp += hp * pi
            hpn += hp * ni
            hpm += hp * gi * ni
            normal.append(ni)
        meas = nn / ee
        rate = 2.0 * (hpn / nn - hpm / ee) / (1.0 + (meas / MEASURE_SCALE) ** 2)
        mu = hpp / nn
        return [rate * pi - mu * ni for pi, ni in zip(p, normal)], meas


class ImplicitBoundary(ImplicitSurface):
    """Boundary given by callables F and grad F, on the unit length scale.
    They receive the point as a list of floats in `next_hit`'s bracketed
    scan and Newton polish, and as a 1-D float array elsewhere."""

    def __init__(self, metric: Metric, func, grad):
        super().__init__(metric)
        self._func = func
        self._grad = grad

    def value(self, q):
        return float(self._func(q))

    def gradient(self, q):
        return np.asarray(self._grad(q), dtype=float)


class GraphBoundary(ImplicitBoundary):
    """Curve y = f(x) in the plane, as the zero set of F(x, y) = y - f(x)."""

    def __init__(self, metric: Metric, f, df):
        super().__init__(
            metric,
            func=lambda q: q[1] - f(q[0]),
            grad=lambda q: np.array([-df(q[0]), 1.0]),
        )


def normal_at(boundary: ImplicitSurface, q) -> np.ndarray:
    """Metric normal vector at a boundary point (index-raised gradient)."""
    q = as_vector(q, boundary.metric.n)
    if not boundary.on_surface(q):
        raise ValueError("point is not on the boundary")
    return boundary.normal(q)


def is_singular(boundary: ImplicitSurface, q) -> bool:
    """True when the metric normal at q is light-like (tangent to the boundary)."""
    nu = _kernel_scale(boundary.normal(as_vector(q, boundary.metric.n)))
    return _light_like(float(nu @ boundary.metric.gram @ nu), float(nu @ nu))


def reflect(boundary: ImplicitSurface, q, w) -> np.ndarray:
    """Billiard reflection at q: flip the normal component of w."""
    w = as_vector(w, boundary.metric.n)
    nu = _kernel_scale(normal_at(boundary, q))
    gram = boundary.metric.gram
    nn = float(nu @ gram @ nu)
    if _light_like(nn, float(nu @ nu)):
        raise TrajectoryStopped("singular boundary point: light-like normal")
    return w - 2.0 * (float(w @ gram @ nu) / nn) * nu


def reflection_scale(metric: Metric, w, nu) -> float:
    """Conditioning scale of a reflection.

    Near-light-like normals make the correction term 2 <w, nu>/<nu, nu> nu
    large, and its roundoff is proportional to its size; energy defects
    should therefore be measured relative to the squared magnitudes of the
    data and of that correction.  SingularNormalError for a light-like
    nu, the normals at which `reflect` stops."""
    w = as_vector(w, metric.n)
    corr = 2.0 * metric.decompose(w, nu)[1]
    return max(1.0, float(w @ w), float(corr @ corr))


def next_hit(boundary: ImplicitSurface, start, direction) -> tuple[np.ndarray, float]:
    """First forward intersection of the ray start + s * direction whose
    step, of length s * max|direction_i|, exceeds EPS_STEP * boundary.scale().

    The direction is read at unit scale (a power of two brings its largest
    |component| back into `_KERNEL_RANGE` when it leaves it), so the point
    does not depend on its length, on quadric tables to the bit; a zero
    direction escapes.  Quadric tables are solved exactly, for the point
    where the ray leaves the table, so a start outside one gets the exit
    point, not the entry; general curves by bracketing plus Newton polish,
    which raises RootNotConvergedError if it does not converge.  Returns
    (point, s); s is inf when the point is exact but s overflows, as it does
    for a subnormal direction."""
    start = as_vector(start, boundary.metric.n)
    direction = as_vector(direction, boundary.metric.n)
    kernel = _next_hit_quadric if isinstance(boundary, QuadricBoundary) else _next_hit_bracketed
    floor = EPS_STEP * boundary.scale()
    top = max(map(abs, direction.tolist()))
    if _KERNEL_RANGE[0] <= top <= _KERNEL_RANGE[1]:
        return kernel(boundary, start, direction, floor / top)
    if top == 0.0:
        raise EscapeError("a zero direction has no forward intersection")
    e = math.frexp(top)[1]
    q, s = kernel(boundary, start, np.ldexp(direction, -e), floor / math.ldexp(top, -e))
    try:
        return q, math.ldexp(s, -e)
    except OverflowError:
        return q, math.inf


def _next_hit_quadric(boundary, start, direction, s_floor):
    c = boundary.coeffs
    a = float(c @ direction**2)
    b = float(c @ (start * direction))
    c0 = float(c @ start**2 - 1.0)
    disc = b * b - a * c0
    scale = max(abs(b * b), abs(a * c0))
    if disc < -1e-12 * scale:
        raise EscapeError("no forward intersection")
    if disc <= 1e-12 * scale:
        raise GrazeError("tangential grazing intersection")
    sq = math.sqrt(disc)
    # a > 0 on an ellipsoid, so the larger root is where the ray leaves the
    # table; the smaller is where it enters, which a hit rounded just
    # outside would otherwise take for the next one.  Cancellation-free
    # roots: q = -(b + sign(b) sqrt(disc))
    if b == 0.0:
        s = sq / a
    else:
        qv = -(b + math.copysign(sq, b))
        s = max(qv / a, c0 / qv)
    if s <= s_floor:
        raise EscapeError("no forward intersection")
    return start + s * direction, s


def _next_hit_bracketed(boundary, start, direction, s_floor):
    s_max = 8.0 * boundary.scale() / _norm(direction)
    # the bracket ends are np.linspace(s_floor, s_max, N_BRACKETS + 1) to the
    # bit: end i is i * step + s_floor, the last end s_max.  Each end and its
    # point are formed on Python floats only once the brackets below it have
    # been ruled out: the first crossing ends the search
    step = (s_max - s_floor) / N_BRACKETS
    ray = list(zip(start.tolist(), direction.tolist()))
    value = boundary.value
    lo = s_floor
    f_lo = value([a + lo * b for a, b in ray])
    for i in range(1, N_BRACKETS + 1):
        hi = i * step + s_floor if i < N_BRACKETS else s_max
        q = [a + hi * b for a, b in ray]
        f_hi = value(q)
        if f_lo * f_hi < 0.0:
            return _newton_bisect(boundary, ray, direction, lo, hi, f_lo)
        if f_hi == 0.0 and i < N_BRACKETS:
            return np.array(q), hi
        lo, f_lo = hi, f_hi
    raise EscapeError("no forward intersection within the search window")


def _newton_bisect(boundary, ray, direction, lo, hi, f_lo):
    """Root of F on the ray, given as (start_i, direction_i) pairs, in a
    bracket (lo, hi) where F changes sign, given f_lo = F at the lower end:
    returns (start + s * direction, s).  RootNotConvergedError when
    NEWTON_ITERS steps do not bring |F| under NEWTON_TOL."""
    s = 0.5 * (lo + hi)
    for _ in range(NEWTON_ITERS):
        q = [a + s * b for a, b in ray]
        f = boundary.value(q)
        if abs(f) <= NEWTON_TOL:
            return np.array(q), s
        if f_lo * f < 0.0:
            hi = s
        else:
            lo = s
            f_lo = f
        # a numpy dot, whose fused multiply-adds a Python sum would not repeat
        df = float(boundary.gradient(q) @ direction)
        s_newton = s - f / df if df != 0.0 else None
        s = s_newton if s_newton is not None and lo < s_newton < hi else 0.5 * (lo + hi)
    raise RootNotConvergedError(
        f"no root of the boundary function to {NEWTON_TOL:g} after {NEWTON_ITERS} steps"
    )


def harmonic_defect(a, b, c, d) -> float:
    """Harmonicity residual [a,c][b,d] + [a,d][b,c] of four plane directions;
    zero iff the four concurrent lines form a harmonic quadruple."""
    return _harmonic_defect(*(as_vector(u, 2) for u in (a, b, c, d)))


def _harmonic_defect(a, b, c, d) -> float:
    return _cross2(a, c) * _cross2(b, d) + _cross2(a, d) * _cross2(b, c)


def _norm(v) -> float:
    """Euclidean norm of a real 1-D array: np.linalg.norm's own formula,
    sqrt of the dot product, without its dispatch."""
    return math.sqrt(float(v @ v))


def _bounce_harmonic_defect(grad, nu, incoming, outgoing) -> float:
    """The defect of a bounce, both directions as `_kernel_scale` reads them:
    an exact factor it ignores, so that no square under- or overflows.  The
    cross products are taken on Python floats, the norms as numpy dots."""
    g0, g1 = grad.tolist()
    tangent = [-g1, g0]
    norm = max(_norm(np.array(tangent)) * _norm(nu), 1e-300) * (_norm(incoming) * _norm(outgoing))
    return _harmonic_defect(tangent, nu.tolist(), incoming.tolist(), outgoing.tolist()) / norm


def _scaled_energy(gram, w, u) -> float:
    """<w, w> for w out of `_KERNEL_RANGE`, from u = `_kernel_scale(w)`:
    scaled back, +-inf without a warning where it overflows."""
    q, e = float(u @ gram @ u), math.frexp(max(map(abs, w.tolist())))[1]
    try:
        return math.ldexp(q, 2 * e)
    except OverflowError:
        return math.copysign(math.inf, q)


@dataclass
class BounceRecord:
    index: int
    point: np.ndarray
    incoming: np.ndarray
    outgoing: np.ndarray
    normal: np.ndarray
    energy: float
    harmonic: float


@dataclass
class Trajectory:
    records: list[BounceRecord] = field(default_factory=list)
    status: str = "ok"

    def __len__(self):
        return len(self.records)

    def points(self) -> np.ndarray:
        return np.array([r.point for r in self.records])


def iterate(boundary: ImplicitSurface, start, direction, n_bounces: int) -> Trajectory:
    """Run n_bounces reflections of the ray from `start`; stops early with a
    typed status on singular impacts or escape.  ValueError for a negative
    n_bounces or one that is not an integer.  A record's energy is the
    outgoing <w, w>, +-inf where that overflows the float range."""
    n_bounces = as_count(n_bounces)
    traj = Trajectory()
    n = boundary.metric.n
    q = as_vector(start, n).copy()
    w = as_vector(direction, n).copy()
    gram, gram_inv = boundary.metric.gram, boundary.metric.gram_inv
    u = _kernel_scale(w)
    for i in range(n_bounces):
        try:
            q_hit, _ = next_hit(boundary, q, w)
            w_out = reflect(boundary, q_hit, w)
        except EscapeError:
            traj.status = "escaped"
            return traj
        except GrazeError:
            traj.status = "grazed"
            return traj
        except TrajectoryStopped:
            traj.status = "stopped_singular"
            return traj
        grad = boundary.gradient(q_hit)
        nu = gram_inv @ grad  # boundary.normal(q_hit), grad kept for the defect
        u_out = _kernel_scale(w_out)
        harmonic = _bounce_harmonic_defect(grad, nu, u, u_out) if n == 2 else math.nan
        energy = float(w_out @ gram @ w_out) if u_out is w_out else _scaled_energy(gram, w_out, u_out)
        # positional, in field order: keywords cost a dataclass more per bounce
        traj.records.append(BounceRecord(i, q_hit, w, w_out, nu, energy, harmonic))
        q, w, u = q_hit, w_out, u_out
    return traj


def double_reflection_near_singular(a: float, u: float, s: float) -> tuple[float, float]:
    """Slopes after a double reflection on the parabola y = a x^2 near its
    singular point at the origin of the null-coordinate plane.

    An incoming ray of slope u reflects at abscissa s, then at abscissa t;
    returns (t, v) with v the outgoing slope.  For the exact parabola the
    reflection relations u f'(s)^2 (t - s) = f(t) - f(s) and
    v f'(t)^2 (t - s) = f(t) - f(s) close in elementary form."""
    if a <= 0.0:
        raise ValueError("parabola coefficient must be positive")
    if s == 0.0 or u == 0.0:
        raise ValueError("need a nonzero impact abscissa and slope")
    # u (2 a s)^2 (t - s) = a (t^2 - s^2)  =>  t = 4 a u s^2 - s
    t = 4.0 * a * u * s**2 - s
    if t == 0.0:
        raise LocalChartError("second impact lands on the singular point")
    v = u * (s / t) ** 2
    return t, v
