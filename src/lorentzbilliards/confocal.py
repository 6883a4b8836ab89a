"""Pseudo-confocal families of quadrics and their tangency/elliptic counts.

The family through the ellipsoid sum_i x_i^2 / a_i^2 = 1 in the diagonal
metric with signs tau_i is

    sum_i x_i^2 / (a_i^2 + tau_i lam) = 1.

Counting members through a point or tangent to a line reduces to real-root
counting of polynomials, then solved by companion-matrix eigenvalues with a
Newton polish.  The coefficients are exact: each family's products of the
pole factors a_k^2 + tau_k lam are computed once, as integers over one power
of two, and cached per (axes, signs); a point's or a line's coefficient is
then one exact integer sum of those products weighted by its squared
coordinates, rounded once to float.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CoefficientOverflowError, DegenerateMemberError
from .metric import CausalClass, Metric, as_vector

POLE_TOL = 1e-8
IMAG_TOL = 1e-8
LEADING_TOL = 1e-12
POLISH_ITERS = 4
MEMBER_TOL = 1e-6


def validate_axes_signs(axes_sq, signs) -> None:
    """Checks shared by quadrics and their confocal families: one positive,
    finite axis squared per sign, each sign +/-1."""
    if len(axes_sq) != len(signs):
        raise ValueError("axes and signs must have equal length")
    if not all(0.0 < a < math.inf for a in axes_sq):
        raise ValueError("axes squared must be positive and finite")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +/-1")


@dataclass(frozen=True)
class ConfocalFamily:
    """Axes squared (pairwise distinct, positive) and metric signs."""

    axes_sq: tuple[float, ...]
    signs: tuple[int, ...]
    metric: Metric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_axes_signs(self.axes_sq, self.signs)
        poles = [-s * a for s, a in zip(self.signs, self.axes_sq)]
        if len(set(poles)) != len(poles):
            raise ValueError("family poles -tau_i a_i^2 must be pairwise distinct")
        # looked up once, not per line count; the shared metric is read-only
        object.__setattr__(self, "metric", Metric.diagonal(self.signs))

    @property
    def n(self) -> int:
        return len(self.axes_sq)

    def denominators(self, lam: float) -> np.ndarray:
        basis = _basis(self)
        return basis.a2 + basis.tau * lam

    @property
    def poles(self) -> np.ndarray:
        """Values of lam where a family member degenerates: lam = -tau_i a_i^2."""
        return _basis(self).poles.copy()

    def member_value(self, x, lam: float) -> float:
        """Left-hand side sum_i x_i^2 / (a_i^2 + tau_i lam)."""
        x = as_vector(x, self.n)
        return float(np.sum(x**2 / self.denominators(lam)))

    def on_member(self, x, lam: float, tol: float = 1e-10) -> bool:
        return abs(self.member_value(x, lam) - 1.0) <= tol


def _linear_factors(axes_sq, signs):
    """Exact (constant, slope) pairs of the pole factors a_i^2 + tau_i lam."""
    return [(Fraction(a2), Fraction(int(tau))) for a2, tau in zip(axes_sq, signs)]


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _prod_excluding(factors, skip):
    out = [Fraction(1)]
    for i, (c0, c1) in enumerate(factors):
        if i in skip:
            continue
        out = _poly_mul(out, [c0, c1])
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _FamilyBasis:
    """Everything the counts need from a family, computed once.

    `empty`, `single[i]` and the `pairs` entries ((i, j), poly) hold the
    ascending coefficients of prod_{k not in S} (a_k^2 + tau_k lam) for
    S = {}, {i}, {i, j}, each multiplied by 2**shift so that they are exact
    integers."""

    shift: int
    empty: tuple[int, ...]
    single: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    a2: np.ndarray
    tau: np.ndarray
    poles: np.ndarray
    pole_scale: float


@functools.lru_cache(maxsize=256)
def _family_basis(axes_sq: tuple, signs: tuple) -> _FamilyBasis:
    factors = _linear_factors(axes_sq, signs)
    # every a_k^2 is a dyadic rational, so 2**shift clears every product
    shift = sum(c0.denominator.bit_length() - 1 for c0, _ in factors)

    def scaled(skip):
        return tuple(
            c.numerator << (shift - (c.denominator.bit_length() - 1))
            for c in _prod_excluding(factors, skip)
        )

    n = len(factors)
    a2 = np.asarray(axes_sq)
    tau = np.asarray(signs, dtype=float)
    poles = np.sort(-tau * a2)
    return _FamilyBasis(
        shift=shift,
        empty=scaled(()),
        single=tuple(scaled((i,)) for i in range(n)),
        pairs=tuple((ij, scaled(ij)) for ij in itertools.combinations(range(n), 2)),
        a2=_read_only(a2),
        tau=_read_only(tau),
        poles=_read_only(poles),
        pole_scale=float(np.max(np.abs(poles), initial=1.0)),
    )


def _basis(family: ConfocalFamily) -> _FamilyBasis:
    return _family_basis(tuple(family.axes_sq), tuple(family.signs))


def _square_ratio(w: float) -> tuple[int, int]:
    """w**2 exactly, as (numerator, power-of-two denominator)."""
    try:
        num, den = w.as_integer_ratio()
    except (OverflowError, ValueError):  # inf, or nan from inf - inf
        raise CoefficientOverflowError(f"term {w!r} outside the float range") from None
    return num * num, den * den


def _weighted_sum(terms, shift: int) -> np.ndarray:
    """Ascending float coefficients of sum (num / den) * poly / 2**shift over
    `terms` of (num, den, poly), den a power of two and poly integer: one
    exact integer sum per coefficient, rounded once by int true division (as
    Fraction.__float__ rounds)."""
    den = max(d for _, d, _ in terms)
    acc = [0] * max(len(p) for _, _, p in terms)
    for num, d, poly in terms:
        if num:
            m = num * (den // d)
            for k, c in enumerate(poly):
                acc[k] += m * c
    den <<= shift
    try:
        return np.array([c / den for c in acc])
    except OverflowError:
        raise CoefficientOverflowError("a coefficient leaves the float range") from None


def _to_float_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Ascending float coefficients -> descending, with trailing
    (numerically zero) leading terms trimmed."""
    lead = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if lead == 0.0:
        return np.array([0.0])
    idx = np.nonzero(np.abs(coeffs) > LEADING_TOL * lead)[0]
    coeffs = coeffs[: idx[-1] + 1]
    return coeffs[::-1]


def point_polynomial(family: ConfocalFamily, x) -> np.ndarray:
    """Descending coefficients of the degree-n polynomial whose real roots are
    the family members through x (the family equation with cleared
    denominators):

        sum_i x_i^2 prod_{k != i} d_k - prod_k d_k,   d_k = a_k^2 + tau_k lam.
    """
    x = as_vector(x, family.n)
    basis = _basis(family)
    terms = [(-1, 1, basis.empty)]
    terms += [(*_square_ratio(xi), p) for xi, p in zip(x.tolist(), basis.single)]
    return _to_float_coeffs(_weighted_sum(terms, basis.shift))


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton step on each root, none where the derivative vanishes.
    Horner in scalars: the same operations as np.polyval, without the
    per-call array overhead on a handful of roots."""
    p = np.asarray(coeffs).tolist()
    dp = [c * k for c, k in zip(p[:-1], range(len(p) - 1, 0, -1))]
    out = []
    for r in roots.tolist():
        f = d = 0.0
        for c in p:
            f = f * r + c
        for c in dp:
            d = d * r + c
        out.append(r - f / d if d != 0.0 else r)
    return np.array(out)


def real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a descending-coefficient polynomial, Newton-polished."""
    if len(coeffs) <= 1:
        return np.array([])
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(roots)))) if roots.size else 1.0
    real = roots[np.abs(roots.imag) < IMAG_TOL * scale].real
    return np.sort(_polish_roots(coeffs, real))


def _polish_member(basis: _FamilyBasis, x2: np.ndarray, lam: float) -> float:
    """Newton-polish a family parameter on the rational member equation, which
    is better conditioned than the cleared polynomial near the poles."""
    a2, tau = basis.a2, basis.tau
    neg_tau_x2 = -tau * x2
    for _ in range(POLISH_ITERS):
        dens = a2 + tau * lam
        if np.abs(dens).min() < 1e-14:
            break
        f = float((x2 / dens).sum()) - 1.0
        df = float((neg_tau_x2 / dens**2).sum())
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
    x = as_vector(x, family.n)
    coeffs = point_polynomial(family, x)
    basis = _basis(family)
    notes: list[str] = []
    degenerate = False
    if len(coeffs) - 1 < family.n:
        degenerate = True
        notes.append("leading coefficient vanished: point on a degeneracy locus")
    x2 = x**2
    roots = [_polish_member(basis, x2, r) for r in real_roots(coeffs)]
    keep = []
    for r in roots:
        if np.min(np.abs(basis.poles - r)) < POLE_TOL * basis.pole_scale:
            # spurious root of the cleared polynomial, or a degenerate member
            degenerate = True
            notes.append(f"root {r:.6g} within tolerance of a family pole")
        else:
            keep.append(r)
    return EllipticCoordinates(values=np.array(keep), degenerate=degenerate, notes=notes)


def normal_to_member(family: ConfocalFamily, lam: float, x) -> np.ndarray:
    """Normal vector to Q_lam at a point x on it: components
    tau_i x_i / (a_i^2 + tau_i lam)."""
    x = as_vector(x, family.n)
    basis = _basis(family)
    dens = basis.a2 + basis.tau * lam
    if np.min(np.abs(dens)) < POLE_TOL * basis.pole_scale:
        raise DegenerateMemberError("family parameter at a pole")
    if not family.on_member(x, lam, MEMBER_TOL):
        raise ValueError("point is not on the requested member")
    return basis.tau * x / dens


def line_tangency_polynomial(family: ConfocalFamily, base, direction) -> np.ndarray:
    """Descending coefficients of the polynomial whose real roots are the
    family parameters of members tangent to the line base + s * direction.

    The tangency discriminant, with denominators cleared, is

        sum_i v_i^2 prod_{k != i} d_k
        - sum_{i<j} (x_i v_j - x_j v_i)^2 prod_{k != i,j} d_k,

    d_k = a_k^2 + tau_k lam; degree n-1 generically, n-2 for light-like lines.
    The cross terms x_i v_j - x_j v_i are rounded to float before squaring.
    """
    x = as_vector(base, family.n)
    v = as_vector(direction, family.n)
    basis = _basis(family)
    x, v = x.tolist(), v.tolist()
    terms = [(*_square_ratio(vi), p) for vi, p in zip(v, basis.single)]
    for (i, j), p in basis.pairs:
        num, den = _square_ratio(x[i] * v[j] - x[j] * v[i])
        terms.append((-num, den, p))
    return _to_float_coeffs(_weighted_sum(terms, basis.shift))


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
    """Point where the line touches the member Q_lam; DegenerateMemberError when
    it touches at infinity (b_vv = sum v_i^2 / d_i vanishes against its terms)."""
    x = as_vector(base, family.n)
    v = as_vector(direction, family.n)
    dens = family.denominators(lam)
    terms = v**2 / dens
    bvv = float(np.sum(terms))
    if abs(bvv) <= LEADING_TOL * float(np.sum(np.abs(terms))):
        raise DegenerateMemberError("tangency point undefined: degenerate direction")
    bxv = float(np.sum(x * v / dens))
    return x - (bxv / bvv) * v


def tangent_spectrum_of_line(family: ConfocalFamily, base, direction) -> TangencySpectrum:
    """Members tangent to the line base + s * direction.

    The spectrum is degenerate when a root lies on a family pole, when the
    polynomial's degree differs from the one the line's causal class gives
    (n - 1, or n - 2 for a light-like line), so that a root near infinity was
    lost or kept against the count theorem, or when a member touches the line
    only at infinity (the line is one of its asymptotes)."""
    x = as_vector(base, family.n)
    v = as_vector(direction, family.n)
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
    basis = _basis(family)
    poles = basis.poles
    notes: list[str] = []
    degenerate = False
    # a direction whose Euclidean square underflows has no causal class
    causal = family.metric.classify(v) if float(v @ v) > 0.0 else CausalClass.LIGHT_LIKE
    degree = family.n - (2 if causal is CausalClass.LIGHT_LIKE else 1)
    if len(coeffs) - 1 != degree:
        degenerate = True
        notes.append(f"degree {len(coeffs) - 1} where a {causal.value} line has {degree}")
    roots = real_roots(coeffs)
    keep = []
    at_pole = []
    for r in roots:
        i = int(np.argmin(np.abs(poles - r)))
        if abs(poles[i] - r) < POLE_TOL * basis.pole_scale:
            degenerate = True
            at_pole.append(float(poles[i]))
            notes.append(f"root {r:.6g} within tolerance of a family pole")
        else:
            keep.append(r)
    values, points = [], []
    for r in keep:
        try:
            points.append(tangency_point(family, r, x, v))
            values.append(r)
        except DegenerateMemberError:
            degenerate = True
            notes.append(f"root {r:.6g}: the member touches the line at infinity")
    values = np.array(values)
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
