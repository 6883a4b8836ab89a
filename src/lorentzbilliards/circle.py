"""The billiard inside the unit circle on the null-coordinate Lorentz plane.

Everything is explicit here: chords are encoded by their two intersection
angles (t1, t2), the map is a closed-form cotangent relation, and the
dynamics preserves I = sin((t2-t1)/2) / |sin(t1+t2)|^(1/2).  The four points
t = 0, pi/2, pi, 3pi/2 are singular (light-like normal); chords ending there
stop the trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import billiard
from .errors import StencilError, TrajectoryStopped
from .metric import Metric, as_vector

TWO_PI = 2.0 * np.pi
# the four singular angles, and 2 pi, which an angle just below 0 reduces to
SINGULAR_ANGLES = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, TWO_PI])
EPS_SING = 1e-9
LEVEL_BRACKET = (1e-3, 2.0 * np.pi - 1e-3)


def dxdy_metric() -> Metric:
    return Metric.dxdy_plane()


def unit_circle_boundary() -> billiard.QuadricBoundary:
    return billiard.QuadricBoundary(dxdy_metric(), [1.0, 1.0])


def circle_point(t: float) -> np.ndarray:
    return np.array([np.cos(t), np.sin(t)])


def angle_is_singular(t: float) -> bool:
    d = np.abs(np.mod(t, TWO_PI) - SINGULAR_ANGLES)
    return bool(np.min(d) < EPS_SING)


@dataclass(frozen=True)
class ChordCoords:
    """A chord of the unit circle by its intersection angles, first to second."""

    t1: float
    t2: float

    def validate(self) -> "ChordCoords":
        gap = np.mod(self.t2 - self.t1, TWO_PI)
        if gap < EPS_SING or gap > TWO_PI - EPS_SING:
            raise ValueError("degenerate chord: equal endpoints")
        if angle_is_singular(self.t1) or angle_is_singular(self.t2):
            raise TrajectoryStopped("chord endpoint at a singular point of the circle")
        return self

    def reduced(self) -> "ChordCoords":
        """Canonical representative: t1 in [0, 2 pi), t2 = t1 + gap with the
        gap reduced into (0, 2 pi), so that sin((t2-t1)/2) >= 0."""
        t1 = float(np.mod(self.t1, TWO_PI))
        return ChordCoords(t1=t1, t2=t1 + float(np.mod(self.t2 - self.t1, TWO_PI)))

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return circle_point(self.t1), circle_point(self.t2)

    def chord_vector(self) -> np.ndarray:
        q1, q2 = self.endpoints()
        return q2 - q1


@dataclass(frozen=True)
class InvariantLevel:
    """Projective form of the conserved quantity: lam = num / den, with the
    light-like stratum represented by den = 0."""

    num: float
    den: float

    @property
    def lam(self) -> float:
        if self.den == 0.0:
            raise ZeroDivisionError("light-like level has no finite lambda")
        return self.num / self.den

    def is_light_like(self, tol: float = 0.0) -> bool:
        return abs(self.den) <= tol


def _arccot(x: float) -> float:
    """Branch of arccot with values in (0, pi)."""
    return 0.5 * np.pi - np.arctan(x)


def circle_map(c: ChordCoords) -> ChordCoords:
    """One billiard step (t1, t2) -> (t2, t3) from the harmonicity relation
    cot((t2-t1)/2) + cot((t2-t3)/2) = 2 cot(2 t2)."""
    c.validate()
    half = 0.5 * (c.t2 - c.t1)
    rhs = 2.0 / np.tan(2.0 * c.t2) - 1.0 / np.tan(half)
    t3 = c.t2 - 2.0 * _arccot(rhs)
    if angle_is_singular(t3):
        raise TrajectoryStopped("image chord ends at a singular point")
    return ChordCoords(t1=c.t2, t2=t3).reduced()


def orbit(c: ChordCoords, n: int) -> list[ChordCoords]:
    """The first n+1 chords of the orbit of c (including c itself)."""
    out = [c.validate()]
    for _ in range(n):
        c = circle_map(c)
        out.append(c)
    return out


def integral_level(c: ChordCoords) -> InvariantLevel:
    num = float(np.sin(0.5 * (c.t2 - c.t1)) ** 2)
    den = float(np.sin(c.t1 + c.t2))
    return InvariantLevel(num=num, den=den)


def integral_I(c: ChordCoords) -> float:
    """I = sin((t2-t1)/2) / |sin(t1+t2)|^(1/2); undefined on light-like levels."""
    den = np.sin(c.t1 + c.t2)
    if den == 0.0:
        raise ZeroDivisionError("light-like level: use integral_level")
    return float(np.sin(0.5 * (c.t2 - c.t1)) / np.sqrt(abs(den)))


def geometric_integral(q, v) -> float:
    """Conserved pairing of the impact point with the unit chord direction;
    odd under the endpoint-swap and reflection involutions.  At the arrival
    endpoint of a chord with unit direction it equals integral_I / sqrt(2)
    under the Metric.dxdy_plane() normalization (and minus that at the
    departure endpoint)."""
    q = as_vector(q, 2)
    v = as_vector(v, 2)
    return 0.5 * float(q @ v)


def chord_direction(c: ChordCoords, unit: bool = True) -> np.ndarray:
    w = c.chord_vector()
    if not unit:
        return w
    m = dxdy_metric()
    n2 = m.norm2(w)
    if n2 == 0.0:
        return w
    return w / np.sqrt(abs(n2))


# -- invariant densities -----------------------------------------------------


def density_arcirc(c: ChordCoords) -> float:
    """|sin((t2-t1)/2)| / |sin(t1+t2)|^(3/2), the invariant area density."""
    return float(
        abs(np.sin(0.5 * (c.t2 - c.t1))) / abs(np.sin(c.t1 + c.t2)) ** 1.5
    )


def density_invform(c: ChordCoords) -> float:
    """1 / sin^2((t2-t1)/2), the projective-billiard invariant density."""
    return float(1.0 / np.sin(0.5 * (c.t2 - c.t1)) ** 2)


_DENSITIES = {"arcirc": density_arcirc, "invform": density_invform}


def map_jacobian(c: ChordCoords, h: float = 1e-6) -> np.ndarray:
    """2x2 central finite-difference Jacobian of the billiard map at c."""
    cols = []
    for dt1, dt2 in ((h, 0.0), (0.0, h)):
        try:
            cp = circle_map(ChordCoords(c.t1 + dt1, c.t2 + dt2))
            cm = circle_map(ChordCoords(c.t1 - dt1, c.t2 - dt2))
        except TrajectoryStopped as exc:
            raise StencilError("finite-difference stencil crossed a singular point") from exc
        cols.append([(cp.t1 - cm.t1) / (2 * h), (cp.t2 - cm.t2) / (2 * h)])
    return np.array(cols).T


def form_invariance_check(density: str, c: ChordCoords) -> float:
    """Pullback defect |det J * rho(T c) / rho(c) - 1| for a named density."""
    rho = _DENSITIES[density]
    c.validate()
    tc = circle_map(c)
    jac = map_jacobian(c)
    return float(abs(abs(np.linalg.det(jac)) * rho(tc) / rho(c) - 1.0))


# -- envelopes ---------------------------------------------------------------


def envelope_conic(lam: float) -> tuple[float, float, float, float]:
    """Coefficients (cxx, cyy, cxy, rhs) of x^2 + y^2 + 2 lam x y = 1 - lam^2."""
    return (1.0, 1.0, 2.0 * lam, 1.0 - lam * lam)


def envelope_point(alpha: float, lam: float) -> np.ndarray:
    w = 1.0 - lam * np.sin(2.0 * alpha)
    if w <= 0.0:
        raise ValueError("envelope parametrization requires 1 - lam sin(2 alpha) > 0")
    return np.array(
        [np.cos(alpha) - lam * np.sin(alpha), np.sin(alpha) - lam * np.cos(alpha)]
    ) / np.sqrt(w)


def conic_residual(point, lam: float) -> float:
    x, y = as_vector(point, 2)
    cxx, cyy, cxy, rhs = envelope_conic(lam)
    return float(cxx * x * x + cyy * y * y + cxy * x * y - rhs)


def chord_tangency_discriminant(c: ChordCoords, lam: float) -> float:
    """Discriminant of the chord line substituted into the level conic,
    normalized; zero iff the chord is tangent."""
    q1, _ = c.endpoints()
    w = c.chord_vector()
    cxx, cyy, cxy, rhs = envelope_conic(lam)

    def quad(p, q):
        return cxx * p[0] * q[0] + cyy * p[1] * q[1] + 0.5 * cxy * (p[0] * q[1] + p[1] * q[0])

    a = quad(w, w)
    b = quad(q1, w)
    c0 = quad(q1, q1) - rhs
    scale = max((abs(a) + abs(b) + abs(c0)) ** 2, 1e-300)
    return float((b * b - a * c0) / scale)


def to_alpha_p(c: ChordCoords):
    from .lines import AlphaPChart

    return AlphaPChart(
        alpha=0.5 * (c.t1 + c.t2), p=float(np.cos(0.5 * (c.t2 - c.t1)))
    )


# -- rotation number ---------------------------------------------------------


def rotation_number(chords: list[ChordCoords]) -> float:
    """Birkhoff average of the lifted angle increments along an orbit
    (increments reduced into (0, 2 pi))."""
    if len(chords) < 2:
        raise ValueError("need at least two chords")
    incs = []
    for c in chords:
        inc = np.mod(c.t2 - c.t1, TWO_PI)
        if inc == 0.0:
            inc = TWO_PI
        incs.append(inc)
    return float(np.mean(incs) / TWO_PI)


def point_on_level(lam: float, t1: float) -> ChordCoords:
    """A chord starting at angle t1 on the level lam, found by solving
    sin^2((t2-t1)/2) = lam sin(t1+t2) for t2 in t1 + LEVEL_BRACKET."""
    from scipy.optimize import brentq

    def g(dt):
        t2 = t1 + dt
        return np.sin(0.5 * dt) ** 2 - lam * np.sin(t1 + t2)

    lo, hi = LEVEL_BRACKET
    glo, ghi = g(lo), g(hi)
    if glo * ghi > 0.0:
        # scan for a sign change inside the bracket
        dts = np.linspace(lo, hi, 512)
        vals = g(dts)
        idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        if len(idx) == 0:
            raise ValueError("no chord with this start angle on the level")
        lo, hi = dts[idx[0]], dts[idx[0] + 1]
    dt = brentq(g, lo, hi, xtol=1e-14)
    return ChordCoords(t1=t1, t2=t1 + dt)
