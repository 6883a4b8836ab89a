"""Generic pseudo-Euclidean billiard dynamics.

Boundaries are `ImplicitSurface` level sets F = 0, the type the geodesic
flows integrate on, with the table on the F < 0 side.  The reflection
replaces the normal component of the velocity, which preserves the scalar
square and hence the causal class of the chord.  Points where the
metric normal is light-like are singular: the billiard map is undefined and
trajectories stop there.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EscapeError, GrazeError, LocalChartError, TrajectoryStopped
from .metric import Metric, _cross2, as_vector
from .surface_flow import ImplicitSurface

EPS_SING = 1e-9
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
        return float(self.coeffs @ q**2 - 1.0)

    def gradient(self, q):
        return 2.0 * self.coeffs * q

    def hessian_quad(self, q, v):
        return float(2.0 * self.coeffs @ v**2)

    def scale(self):
        return self._scale


class ImplicitBoundary(ImplicitSurface):
    """Boundary given by callables F and grad F, on the unit length scale."""

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

    def __init__(self, metric: Metric, f, df, d2f):
        super().__init__(
            metric,
            func=lambda q: q[1] - f(q[0]),
            grad=lambda q: np.array([-df(q[0]), 1.0]),
        )
        self.f = f
        self.df = df
        self.d2f = d2f


def normal_at(boundary: ImplicitSurface, q) -> np.ndarray:
    """Metric normal vector at a boundary point (index-raised gradient)."""
    q = as_vector(q, boundary.metric.n)
    if not boundary.on_surface(q):
        raise ValueError("point is not on the boundary")
    return boundary.normal(q)


def is_singular(boundary: ImplicitSurface, q) -> bool:
    """True when the metric normal at q is light-like (tangent to the boundary)."""
    nu = boundary.normal(as_vector(q, boundary.metric.n))
    return abs(float(nu @ boundary.metric.gram @ nu)) < EPS_SING * float(nu @ nu)


def reflect(boundary: ImplicitSurface, q, w) -> np.ndarray:
    """Billiard reflection at q: flip the normal component of w."""
    w = as_vector(w, boundary.metric.n)
    nu = normal_at(boundary, q)
    gram = boundary.metric.gram
    nn = float(nu @ gram @ nu)
    if abs(nn) < EPS_SING * float(nu @ nu):
        raise TrajectoryStopped("singular boundary point: light-like normal")
    return w - 2.0 * (float(w @ gram @ nu) / nn) * nu


def reflection_scale(metric: Metric, w, nu) -> float:
    """Conditioning scale of a reflection.

    Near-light-like normals make the correction term 2 <w, nu>/<nu, nu> nu
    large, and its roundoff is proportional to its size; energy defects
    should therefore be measured relative to the squared magnitudes of the
    data and of that correction."""
    w = as_vector(w, metric.n)
    nu = as_vector(nu, metric.n)
    corr = 2.0 * (float(w @ metric.gram @ nu) / float(nu @ metric.gram @ nu)) * nu
    return max(1.0, float(w @ w), float(corr @ corr))


def next_hit(boundary: ImplicitSurface, start, direction) -> tuple[np.ndarray, float]:
    """First forward intersection of the ray start + s * direction, s > EPS_STEP.

    Quadric tables are solved exactly; general curves by bracketing plus
    Newton polish.  Returns (point, s)."""
    start = as_vector(start, boundary.metric.n)
    direction = as_vector(direction, boundary.metric.n)
    if isinstance(boundary, QuadricBoundary):
        return _next_hit_quadric(boundary, start, direction)
    return _next_hit_bracketed(boundary, start, direction)


def _next_hit_quadric(boundary, start, direction):
    c = boundary.coeffs
    a = float(c @ direction**2)
    b = float(c @ (start * direction))
    c0 = float(c @ start**2 - 1.0)
    step_floor = EPS_STEP * boundary.scale()
    if a == 0.0:
        if b == 0.0:
            raise EscapeError("ray is parallel to the quadric at infinity")
        s = -c0 / (2.0 * b)
        if s <= step_floor:
            raise EscapeError("no forward intersection")
        return start + s * direction, s
    disc = b * b - a * c0
    scale = max(abs(b * b), abs(a * c0), 1e-300)
    if disc < -1e-12 * scale:
        raise EscapeError("no forward intersection")
    if disc < 1e-12 * scale:
        raise GrazeError("tangential grazing intersection")
    sq = np.sqrt(max(disc, 0.0))
    # cancellation-free quadratic roots: q = -(b + sign(b) sqrt(disc))
    if b == 0.0:
        roots = sorted([-sq / a, sq / a])
    else:
        qv = -(b + np.copysign(sq, b))
        roots = sorted([qv / a, c0 / qv])
    for s in roots:
        if s > step_floor:
            return start + s * direction, s
    raise EscapeError("no forward intersection")


def _next_hit_bracketed(boundary, start, direction):
    s_max = 8.0 * boundary.scale() / max(float(np.linalg.norm(direction)), 1e-300)
    step_floor = EPS_STEP * boundary.scale()
    ss = np.linspace(step_floor, s_max, N_BRACKETS + 1)
    # evaluate each bracket's upper end only once the brackets below it
    # have been ruled out: the first crossing ends the search
    f_lo = boundary.value(start + ss[0] * direction)
    for i in range(N_BRACKETS):
        if f_lo == 0.0 and i > 0:
            s = ss[i]
            return start + s * direction, float(s)
        f_hi = boundary.value(start + ss[i + 1] * direction)
        if f_lo * f_hi < 0.0:
            s = _newton_bisect(boundary, start, direction, ss[i], ss[i + 1])
            return start + s * direction, s
        f_lo = f_hi
    raise EscapeError("no forward intersection within the search window")


def _newton_bisect(boundary, start, direction, lo, hi):
    f_lo = boundary.value(start + lo * direction)
    s = 0.5 * (lo + hi)
    for _ in range(NEWTON_ITERS):
        q = start + s * direction
        f = boundary.value(q)
        if abs(f) <= NEWTON_TOL:
            return float(s)
        if f_lo * f < 0.0:
            hi = s
        else:
            lo = s
            f_lo = f
        df = float(boundary.gradient(q) @ direction)
        s_newton = s - f / df if df != 0.0 else None
        s = s_newton if s_newton is not None and lo < s_newton < hi else 0.5 * (lo + hi)
    return float(s)


def harmonic_defect(a, b, c, d) -> float:
    """Harmonicity residual [a,c][b,d] + [a,d][b,c] of four plane directions;
    zero iff the four concurrent lines form a harmonic quadruple."""
    return _harmonic_defect(*(as_vector(u, 2) for u in (a, b, c, d)))


def _harmonic_defect(a, b, c, d) -> float:
    return _cross2(a, c) * _cross2(b, d) + _cross2(a, d) * _cross2(b, c)


def _bounce_harmonic_defect(boundary: ImplicitSurface, q, incoming, outgoing, nu) -> float:
    grad = boundary.gradient(q)
    tangent = np.array([-grad[1], grad[0]])
    norm = max(
        float(np.linalg.norm(tangent)) * float(np.linalg.norm(nu)),
        1e-300,
    ) * max(
        float(np.linalg.norm(incoming)) * float(np.linalg.norm(outgoing)), 1e-300
    )
    return _harmonic_defect(tangent, nu, incoming, outgoing) / norm


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
    typed status on singular impacts or escape."""
    traj = Trajectory()
    n = boundary.metric.n
    q = as_vector(start, n).copy()
    w = as_vector(direction, n).copy()
    gram = boundary.metric.gram
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
        nu = boundary.normal(q_hit)
        harmonic = (
            _bounce_harmonic_defect(boundary, q_hit, w, w_out, nu) if n == 2 else float("nan")
        )
        traj.records.append(
            BounceRecord(
                index=i,
                point=q_hit,
                incoming=w,
                outgoing=w_out,
                normal=nu,
                energy=float(w_out @ gram @ w_out),
                harmonic=harmonic,
            )
        )
        q, w = q_hit, w_out
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
