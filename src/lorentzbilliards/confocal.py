"""Pseudo-confocal families of quadrics and their tangency/elliptic counts.

The family through the ellipsoid sum_i x_i^2 / a_i^2 = 1 in the diagonal
metric with signs tau_i is

    sum_i x_i^2 / (a_i^2 + tau_i lam) = 1.

Counting members through a point or tangent to a line reduces to real-root
counting of polynomials whose coefficients are assembled in exact rational
arithmetic, then solved by companion-matrix eigenvalues with a Newton polish.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateMemberError
from .metric import CausalClass, Metric, as_vector

POLE_TOL = 1e-8
IMAG_TOL = 1e-8
LEADING_TOL = 1e-12


def validate_axes_signs(axes_sq, signs) -> None:
    """Checks shared by quadrics and their confocal families: one positive
    axis squared per sign, each sign +/-1."""
    if len(axes_sq) != len(signs):
        raise ValueError("axes and signs must have equal length")
    if any(a <= 0.0 for a in axes_sq):
        raise ValueError("axes squared must be positive")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +/-1")


@dataclass(frozen=True)
class ConfocalFamily:
    """Axes squared (pairwise distinct, positive) and metric signs."""

    axes_sq: tuple[float, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        validate_axes_signs(self.axes_sq, self.signs)
        poles = [-s * a for s, a in zip(self.signs, self.axes_sq)]
        if len(set(poles)) != len(poles):
            raise ValueError("family poles -tau_i a_i^2 must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.axes_sq)

    @property
    def metric(self) -> Metric:
        return Metric.diagonal(self.signs)

    def denominators(self, lam: float) -> np.ndarray:
        a2 = np.asarray(self.axes_sq)
        tau = np.asarray(self.signs, dtype=float)
        return a2 + tau * lam

    @property
    def poles(self) -> np.ndarray:
        """Values of lam where a family member degenerates: lam = -tau_i a_i^2."""
        a2 = np.asarray(self.axes_sq)
        tau = np.asarray(self.signs, dtype=float)
        return np.sort(-tau * a2)

    def member_value(self, x, lam: float) -> float:
        """Left-hand side sum_i x_i^2 / (a_i^2 + tau_i lam)."""
        x = as_vector(x)
        return float(np.sum(x**2 / self.denominators(lam)))

    def on_member(self, x, lam: float, tol: float = 1e-10) -> bool:
        return abs(self.member_value(x, lam) - 1.0) <= tol


def _linear_factors(family: ConfocalFamily):
    """Exact (constant, slope) pairs of the pole factors a_i^2 + tau_i lam."""
    return [
        (Fraction(a2), Fraction(int(tau)))
        for a2, tau in zip(family.axes_sq, family.signs)
    ]


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, qi in enumerate(q):
        out[i] += qi
    return out


def _poly_scale(p, c):
    return [c * pi for pi in p]


def _prod_excluding(factors, skip):
    out = [Fraction(1)]
    for i, (c0, c1) in enumerate(factors):
        if i in skip:
            continue
        out = _poly_mul(out, [c0, c1])
    return out


def _to_float_coeffs(p) -> np.ndarray:
    """Ascending Fraction coefficients -> descending float coefficients with
    trailing (numerically zero) leading terms trimmed."""
    coeffs = np.array([float(c) for c in p])
    lead = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if lead == 0.0:
        return np.array([0.0])
    idx = np.nonzero(np.abs(coeffs) > LEADING_TOL * lead)[0]
    coeffs = coeffs[: idx[-1] + 1]
    return coeffs[::-1]


def point_polynomial(family: ConfocalFamily, x) -> np.ndarray:
    """Descending coefficients of the degree-n polynomial whose real roots are
    the family members through x (the family equation with cleared
    denominators)."""
    x = as_vector(x)
    factors = _linear_factors(family)
    poly = _poly_scale(_prod_excluding(factors, ()), Fraction(-1))
    for i, xi in enumerate(x):
        term = _poly_scale(_prod_excluding(factors, (i,)), Fraction(float(xi)) ** 2)
        poly = _poly_add(poly, term)
    return _to_float_coeffs(poly)


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    deriv = np.polyder(coeffs)
    vals = np.polyval(deriv, roots)
    step = np.where(vals != 0.0, np.polyval(coeffs, roots) / np.where(vals == 0.0, 1.0, vals), 0.0)
    return roots - step


def real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a descending-coefficient polynomial, Newton-polished."""
    if len(coeffs) <= 1:
        return np.array([])
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(roots)))) if roots.size else 1.0
    real = roots[np.abs(roots.imag) < IMAG_TOL * scale].real
    return np.sort(_polish_roots(coeffs, real))


def _polish_member(family: ConfocalFamily, x, lam: float, max_iter: int = 4) -> float:
    """Newton-polish a family parameter on the rational member equation, which
    is better conditioned than the cleared polynomial near the poles."""
    tau = np.asarray(family.signs, dtype=float)
    x2 = np.asarray(x) ** 2
    for _ in range(max_iter):
        dens = family.denominators(lam)
        if np.min(np.abs(dens)) < 1e-14:
            break
        f = float(np.sum(x2 / dens)) - 1.0
        df = float(np.sum(-tau * x2 / dens**2))
        if df == 0.0:
            break
        step = f / df
        lam = lam - step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return lam


@dataclass
class EllipticCoordinates:
    """Sorted family parameters through a point, with degeneracy flags."""

    values: np.ndarray
    degenerate: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.values)


def quadrics_through_point(family: ConfocalFamily, x) -> EllipticCoordinates:
    """Elliptic coordinates of x: real lam with x on the member Q_lam."""
    x = as_vector(x)
    coeffs = point_polynomial(family, x)
    deg_expected = family.n
    notes: list[str] = []
    degenerate = False
    if len(coeffs) - 1 < deg_expected:
        degenerate = True
        notes.append("leading coefficient vanished: point on a degeneracy locus")
    roots = [_polish_member(family, x, r) for r in real_roots(coeffs)]
    scale = max(1.0, float(np.max(np.abs(family.poles))))
    keep = []
    for r in roots:
        if np.min(np.abs(family.poles - r)) < POLE_TOL * scale:
            # spurious root of the cleared polynomial, or a degenerate member
            degenerate = True
            notes.append(f"root {r:.6g} within tolerance of a family pole")
        else:
            keep.append(r)
    return EllipticCoordinates(values=np.array(keep), degenerate=degenerate, notes=notes)


def normal_to_member(family: ConfocalFamily, lam: float, x, tol: float = 1e-6) -> np.ndarray:
    """Normal vector to Q_lam at a point x on it: components
    tau_i x_i / (a_i^2 + tau_i lam)."""
    x = as_vector(x)
    dens = family.denominators(lam)
    scale = max(1.0, float(np.max(np.abs(family.poles))))
    if np.min(np.abs(dens)) < POLE_TOL * scale:
        raise DegenerateMemberError("family parameter at a pole")
    if not family.on_member(x, lam, tol):
        raise ValueError("point is not on the requested member")
    tau = np.asarray(family.signs, dtype=float)
    return tau * x / dens


def line_tangency_polynomial(family: ConfocalFamily, base, direction) -> np.ndarray:
    """Descending coefficients of the polynomial whose real roots are the
    family parameters of members tangent to the line base + s * direction.

    The tangency discriminant, with denominators cleared, is

        sum_i v_i^2 prod_{k != i} d_k
        - sum_{i<j} (x_i v_j - x_j v_i)^2 prod_{k != i,j} d_k,

    d_k = a_k^2 + tau_k lam; degree n-1 generically, n-2 for light-like lines.
    """
    x = as_vector(base)
    v = as_vector(direction)
    factors = _linear_factors(family)
    poly = [Fraction(0)]
    for i, vi in enumerate(v):
        poly = _poly_add(
            poly, _poly_scale(_prod_excluding(factors, (i,)), Fraction(float(vi)) ** 2)
        )
    for i, j in itertools.combinations(range(family.n), 2):
        wij = Fraction(float(x[i] * v[j] - x[j] * v[i])) ** 2
        poly = _poly_add(poly, _poly_scale(_prod_excluding(factors, (i, j)), -wij))
    return _to_float_coeffs(poly)


@dataclass
class TangencySpectrum:
    """Family parameters of the members tangent to a line.

    Roots landing on a family pole are kept apart in pole_values: they are
    still conserved along trajectories but belong to degenerate members, so
    they are excluded from the generic tangency count."""

    values: np.ndarray
    points: list[np.ndarray]
    pole_values: np.ndarray = field(default_factory=lambda: np.array([]))
    infinite: bool = False
    degenerate: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.values)


def tangency_point(family: ConfocalFamily, lam: float, base, direction) -> np.ndarray:
    """Point where the line touches the member Q_lam."""
    x = as_vector(base)
    v = as_vector(direction)
    dens = family.denominators(lam)
    bvv = float(np.sum(v**2 / dens))
    bxv = float(np.sum(x * v / dens))
    if bvv == 0.0:
        raise DegenerateMemberError("tangency point undefined: degenerate direction")
    return x - (bxv / bvv) * v


def tangent_spectrum_of_line(family: ConfocalFamily, base, direction) -> TangencySpectrum:
    x = as_vector(base)
    v = as_vector(direction)
    coeffs = line_tangency_polynomial(family, x, v)
    scale_coeff = float(np.max(np.abs(coeffs)))
    ref = max(float(np.max(v**2)), 1e-300)
    if scale_coeff <= LEADING_TOL * ref:
        return TangencySpectrum(
            values=np.array([]),
            points=[],
            infinite=True,
            notes=["identically-zero discriminant: tangent to infinitely many members"],
        )
    notes: list[str] = []
    degenerate = False
    roots = real_roots(coeffs)
    pole_scale = max(1.0, float(np.max(np.abs(family.poles))))
    keep = []
    at_pole = []
    for r in roots:
        i = int(np.argmin(np.abs(family.poles - r)))
        if abs(family.poles[i] - r) < POLE_TOL * pole_scale:
            degenerate = True
            at_pole.append(float(family.poles[i]))
            notes.append(f"root {r:.6g} within tolerance of a family pole")
        else:
            keep.append(r)
    values = np.array(keep)
    points = [tangency_point(family, r, x, v) for r in values]
    return TangencySpectrum(
        values=values,
        points=points,
        pole_values=np.array(at_pole),
        degenerate=degenerate,
        notes=notes,
    )


def expected_point_counts(n: int) -> set[int]:
    return {n, n - 2}


def expected_line_counts(n: int, causal: CausalClass) -> set[int]:
    if causal is CausalClass.LIGHT_LIKE:
        return {c for c in (n - 2, n - 4) if c >= 0}
    return {c for c in (n - 1, n - 3) if c >= 0}
