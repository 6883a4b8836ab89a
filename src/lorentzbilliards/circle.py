"""The billiard inside the unit circle on the null-coordinate Lorentz plane.

Everything is explicit here: chords are encoded by their two intersection
angles (t1, t2), the map is a closed-form cotangent relation, and the
dynamics preserves I = sin((t2-t1)/2) / |sin(t1+t2)|^(1/2).  The four points
t = 0, pi/2, pi, 3pi/2 are singular (light-like normal); chords ending there
stop the trajectory.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularNormalError, TrajectoryStopped
from .metric import Metric, as_count, as_vector

TWO_PI = 2.0 * math.pi
# the four singular angles, and 2 pi, which an angle just below 0 reduces to
SINGULAR_ANGLES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, TWO_PI)
EPS_SING = 1e-9
LEVEL_BRACKET = (1e-3, 2.0 * np.pi - 1e-3)


def unit_circle_boundary():
    from .billiard import QuadricBoundary

    return QuadricBoundary(Metric.dxdy_plane(), [1.0, 1.0])


def circle_point(t: float) -> np.ndarray:
    return np.array([np.cos(t), np.sin(t)])


def angle_is_singular(t: float) -> bool:
    """True when t lies within EPS_SING of a singular angle, as a Python
    bool whatever scalar type t has; ValueError for a non-finite t."""
    if not math.isfinite(t):
        raise ValueError("angle must be finite")
    return _near_singular(float(t))


def _near_singular(t: float) -> bool:
    """angle_is_singular without its finiteness check, for the per-step
    kernels: `ChordCoords.validate` has checked t1 and t2, the image angle
    t3 of a valid chord is finite unless 2 t2 overflows, and a non-finite t
    raises ValueError from `round` all the same.  The kernels keep angles
    Python floats: `%` is np.mod to the bit, and skips numpy's scalar
    dispatch.

    Only the nearest quarter turn of r = t mod 2 pi is tested (index 0-4, 4
    for r = 2 pi).  Rounding r / (pi/2) can pick the wrong neighbour only
    near a midpoint, where both neighbours are about pi/4 away and neither
    is within EPS_SING, so the answer is that of a test against all five."""
    r = t % TWO_PI
    return abs(r - SINGULAR_ANGLES[round(r / (0.5 * math.pi))]) < EPS_SING


def _reduce(t1: float, t2: float) -> tuple[float, float]:
    """(t1 mod 2 pi, that plus (t2 - t1) mod 2 pi), as Python floats."""
    r1 = float(t1 % TWO_PI)
    return r1, r1 + float((t2 - t1) % TWO_PI)


@dataclass(frozen=True)
class ChordCoords:
    """A chord of the unit circle by its intersection angles, first to second."""

    t1: float
    t2: float

    def validate(self) -> "ChordCoords":
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise ValueError("chord angles must be finite")
        gap = (self.t2 - self.t1) % TWO_PI
        if gap < EPS_SING or gap > TWO_PI - EPS_SING:
            raise ValueError("degenerate chord: equal endpoints")
        if _near_singular(self.t1) or _near_singular(self.t2):
            raise TrajectoryStopped("chord endpoint at a singular point of the circle")
        return self

    def reduced(self) -> "ChordCoords":
        """Canonical representative: t1 in [0, 2 pi), t2 = t1 + gap with the
        gap reduced into (0, 2 pi), so that sin((t2-t1)/2) >= 0."""
        return ChordCoords(*_reduce(self.t1, self.t2))

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

    def is_light_like(self) -> bool:
        return self.den == 0.0


def _arccot(x: float) -> float:
    """Branch of arccot with values in (0, pi)."""
    return 0.5 * math.pi - float(np.arctan(x))


def circle_map(c: ChordCoords) -> ChordCoords:
    """One billiard step (t1, t2) -> (t2, t3) from the harmonicity relation
    cot((t2-t1)/2) + cot((t2-t3)/2) = 2 cot(2 t2).

    Scalar arithmetic on Python floats; tan and arctan stay numpy's, whose
    last bit differs from math.tan/math.atan on some inputs.  The image chord
    is built once, already reduced: ChordCoords(t2, t3).reduced()."""
    c.validate()
    half = 0.5 * (c.t2 - c.t1)
    rhs = 2.0 / float(np.tan(2.0 * c.t2)) - 1.0 / float(np.tan(half))
    t3 = c.t2 - 2.0 * _arccot(rhs)
    if _near_singular(t3):
        raise TrajectoryStopped("image chord ends at a singular point")
    return ChordCoords(*_reduce(c.t2, t3))


def orbit(c: ChordCoords, n: int) -> list[ChordCoords]:
    """The first n+1 chords of the orbit of c (c itself first, its angles as
    Python floats like every later chord's); ValueError for a negative n or
    one that is not an integer."""
    n = as_count(n)
    c = ChordCoords(float(c.t1), float(c.t2))
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


def chord_direction(c: ChordCoords) -> np.ndarray:
    """The chord vector scaled to <v,v> = +/-1; as it is when light-like."""
    w = c.chord_vector()
    try:
        return Metric.dxdy_plane().unit(w)
    except SingularNormalError:
        return w


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


def map_jacobian(c: ChordCoords) -> np.ndarray:
    """Exact Jacobian of the billiard map (t1, t2) -> (t2, t3) at c;
    TrajectoryStopped exactly where circle_map stops.

    With h = (t2-t1)/2 and R = 2 cot 2t2 - cot h, t3 = t2 - 2 arccot R, so
    dt3 = dt2 + k dR with k = 2 / (1 + R^2), dR/dt1 = -csc^2 h / 2 and
    dR/dt2 = csc^2 h / 2 - 4 csc^2 2t2."""
    circle_map(c)
    half = 0.5 * (c.t2 - c.t1)
    rhs = 2.0 / math.tan(2.0 * c.t2) - 1.0 / math.tan(half)
    k = 2.0 / (1.0 + rhs * rhs)
    dr_dt1 = -0.5 / math.sin(half) ** 2
    dr_dt2 = -dr_dt1 - 4.0 / math.sin(2.0 * c.t2) ** 2
    return np.array([[0.0, 1.0], [k * dr_dt1, 1.0 + k * dr_dt2]])


def form_invariance_check(density: str, c: ChordCoords) -> float:
    """Pullback defect |det J * rho(T c) / rho(c) - 1| for a named density."""
    rho = _DENSITIES[density]
    tc = circle_map(c)
    jac = map_jacobian(c)
    return float(abs(abs(np.linalg.det(jac)) * rho(tc) / rho(c) - 1.0))


# -- envelopes ---------------------------------------------------------------


@functools.cache
def caustic_family():
    """The unit circle's confocal family in the null frame (u, v) = (x + y,
    x - y): its cleared member -2 lam is 4 times the conic of level lam."""
    from .confocal import ConfocalFamily

    return ConfocalFamily((2.0, 2.0), (1, -1))


def envelope_point(alpha: float, lam: float) -> np.ndarray:
    """The point of the level-lam conic whose tangent has normal angle alpha."""
    w = 1.0 - lam * np.sin(2.0 * alpha)
    if w <= 0.0:
        raise ValueError("envelope parametrization requires 1 - lam sin(2 alpha) > 0")
    return np.array(
        [np.cos(alpha) - lam * np.sin(alpha), np.sin(alpha) - lam * np.cos(alpha)]
    ) / np.sqrt(w)


def conic_residual(point, lam: float) -> float:
    from .confocal import point_polynomial

    x, y = as_vector(point, 2)
    p = point_polynomial(caustic_family(), [x + y, x - y])
    return float(np.polyval(p, -2.0 * lam)) / 4.0


def chord_tangency_discriminant(c: ChordCoords, lam: float) -> float:
    """The caustic family's line polynomial of the chord at its member -2 lam,
    over the sum of its terms' magnitudes there; zero iff the chord is tangent."""
    from .confocal import line_tangency_polynomial

    (x, y), _ = c.endpoints()
    wx, wy = c.chord_vector()
    p = line_tangency_polynomial(caustic_family(), [x + y, x - y], [wx + wy, wx - wy])
    mu = -2.0 * lam
    scale = sum(abs(ck) * abs(mu) ** k for k, ck in enumerate(p[::-1].tolist()))
    return float(np.polyval(p, mu)) / max(scale, 1e-300)


def to_alpha_p(c: ChordCoords):
    from .lines import AlphaPChart

    return AlphaPChart(
        alpha=0.5 * (c.t1 + c.t2), p=float(np.cos(0.5 * (c.t2 - c.t1)))
    )


def point_on_level(lam: float, t1: float) -> ChordCoords:
    """The chord on the level lam from t1 mod 2 pi, the start angle the chord
    carries (t1 itself on [0, 2 pi)): t2 = t1 + dt, dt the first root in
    LEVEL_BRACKET of g(dt) = sin^2(dt/2) - lam sin(t1 + t2); ValueError for a
    non-finite lam or t1, or when g has no root there.

    g(dt) = 1/2 - R cos(dt - phi), phi = atan2(lam cos 2t1, 1/2 + lam sin 2t1),
    falls on [phi - pi, phi] and rises on [phi, phi + pi].  Up to `end`, its
    next minimum above lo = LEVEL_BRACKET[0] if g(lo) >= 0, else its next
    maximum, clipped to the bracket, g changes sign at most once: there is a
    root iff g(end) has the other sign or is 0, and brentq, with the lazy
    scipy import, polishes it."""
    from scipy.optimize import brentq

    if not (math.isfinite(lam) and math.isfinite(t1)):
        raise ValueError("level and start angle must be finite")
    t1 = t1 % TWO_PI

    def g(dt):
        t2 = t1 + dt
        return np.sin(0.5 * dt) ** 2 - lam * np.sin(t1 + t2)

    lo, hi = LEVEL_BRACKET
    falling = g(lo) >= 0.0
    end = math.atan2(lam * math.cos(2.0 * t1), 0.5 + lam * math.sin(2.0 * t1))
    if not falling:
        end += math.pi
    end = min(lo + (end - lo) % TWO_PI, hi)
    if (g(end) > 0.0) if falling else (g(end) < 0.0):
        raise ValueError("no chord with this start angle on the level")
    return ChordCoords(t1=t1, t2=t1 + brentq(g, lo, end, xtol=1e-14))
