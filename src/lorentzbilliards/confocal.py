"""Pseudo-confocal families of quadrics and their tangency/elliptic counts.

The family through the ellipsoid sum_i x_i^2 / a_i^2 = 1 in the diagonal
metric with signs tau_i is

    sum_i x_i^2 / (a_i^2 + tau_i lam) = 1.

Counting members through a point or tangent to a line reduces to real-root
counting of polynomials, then solved by companion-matrix eigenvalues with a
Newton polish.  The coefficients are exact: each family's products of the
pole factors a_k^2 + tau_k lam are computed once, with the family, as
integers over one power of two; a point's or a line's coefficient is then
one exact integer sum of those products weighted by its squared
coordinates, rounded once to float.

Past the public entry points the counts work on Python floats: the root
filter, the polish on the member equation, the pole split and the tangency
point do numpy's operations in numpy's order (sums left to right from 0.0,
squares as x * x), so every value is numpy's to the bit, without numpy's
per-call cost on a handful of numbers.  The eigenvalue solve stays numpy's.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientOverflowError, DegenerateMemberError
from .metric import CausalClass, Metric, _light_like, _unit_scale, as_vector

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
    _basis: _FamilyBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_axes_signs(self.axes_sq, self.signs)
        poles = [-s * a for s, a in zip(self.signs, self.axes_sq)]
        if len(set(poles)) != len(poles):
            raise ValueError("family poles -tau_i a_i^2 must be pairwise distinct")
        # built once, not per count; the shared metric is read-only
        object.__setattr__(self, "metric", Metric.diagonal(self.signs))
        object.__setattr__(self, "_basis", _family_basis(self.axes_sq, self.signs))

    @property
    def n(self) -> int:
        return len(self.axes_sq)

    def denominators(self, lam: float) -> np.ndarray:
        return np.array(self._basis.a2) + np.array(self._basis.tau) * lam

    @property
    def poles(self) -> np.ndarray:
        """Values of lam where a family member degenerates: lam = -tau_i a_i^2."""
        return np.array(self._basis.poles)

    def member_value(self, x, lam: float) -> float:
        """Left-hand side sum_i x_i^2 / (a_i^2 + tau_i lam);
        DegenerateMemberError when lam is a family pole (a denominator is
        exactly 0)."""
        x = as_vector(x, self.n)
        dens = self.denominators(lam)
        if not dens.all():
            raise DegenerateMemberError(f"lam = {lam!r} is a pole of the family")
        return float(np.sum(x**2 / dens))

    def on_member(self, x, lam: float, tol: float = 1e-10) -> bool:
        return abs(self.member_value(x, lam) - 1.0) <= tol


@dataclass(frozen=True)
class _FamilyBasis:
    """Everything the counts need from a family, computed once.

    `empty`, `single[i]` and the `pairs` entries ((i, j), poly) hold the
    ascending coefficients of prod_{k not in S} (a_k^2 + tau_k lam) for
    S = {}, {i}, {i, j}, each multiplied by 2**shift so that they are exact
    integers.  `a2`, `tau` and the sorted `poles` are Python floats."""

    shift: int
    empty: tuple[int, ...]
    single: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    a2: tuple[float, ...]
    tau: tuple[float, ...]
    poles: tuple[float, ...]
    pole_scale: float


def _family_basis(axes_sq, signs) -> _FamilyBasis:
    # every a_k^2 is a dyadic rational num_k / den_k, so the pole factor times
    # den_k, num_k + tau_k den_k lam, has integer coefficients; the product of
    # all den_k is 2**shift
    ratios = [float(a2).as_integer_ratio() for a2 in axes_sq]
    factors = [(num, int(tau) * den) for (num, den), tau in zip(ratios, signs)]
    shift = sum(den.bit_length() - 1 for _, den in ratios)

    def scaled(skip):
        # the skipped factors' denominators keep the scale at 2**shift
        poly = [math.prod(ratios[k][1] for k in skip)]
        for k, (c0, c1) in enumerate(factors):
            if k not in skip:
                poly = [c0 * p + c1 * q for p, q in zip(poly + [0], [0] + poly)]
        return tuple(poly)

    n = len(factors)
    a2 = tuple(float(a) for a in axes_sq)
    tau = tuple(float(t) for t in signs)
    poles = tuple(sorted(-t * a for t, a in zip(tau, a2)))
    return _FamilyBasis(
        shift=shift,
        empty=scaled(()),
        single=tuple(scaled((i,)) for i in range(n)),
        pairs=tuple((ij, scaled(ij)) for ij in itertools.combinations(range(n), 2)),
        a2=a2,
        tau=tau,
        poles=poles,
        pole_scale=max([1.0, *(abs(p) for p in poles)]),
    )


def _square_ratio(w: float) -> tuple[int, int]:
    """w**2 exactly, as (numerator, power-of-two denominator)."""
    try:
        num, den = w.as_integer_ratio()
    except (OverflowError, ValueError):  # inf, or nan from inf - inf
        raise CoefficientOverflowError(f"term {w!r} outside the float range") from None
    return num * num, den * den


def _weighted_sum(terms, shift: int) -> list[float]:
    """Ascending float coefficients of sum (num / den) * poly / 2**shift over
    `terms` of (num, den, poly), den a power of two and poly integer: one
    exact integer sum per coefficient, rounded once (correctly) by int true
    division."""
    den = max(d for _, d, _ in terms)
    acc = [0] * max(len(p) for _, _, p in terms)
    for num, d, poly in terms:
        if num:
            m = num * (den // d)
            for k, c in enumerate(poly):
                acc[k] += m * c
    den <<= shift
    try:
        return [c / den for c in acc]
    except OverflowError:
        raise CoefficientOverflowError("a coefficient leaves the float range") from None


def point_polynomial(family: ConfocalFamily, x) -> np.ndarray:
    """Descending coefficients of the degree-n polynomial whose real roots are
    the family members through x (the family equation with cleared
    denominators):

        sum_i x_i^2 prod_{k != i} d_k - prod_k d_k,   d_k = a_k^2 + tau_k lam.

    All n + 1 coefficients: the leading one is exactly -prod_k tau_k = +-1,
    whatever x is, so it is never trimmed.
    """
    x = as_vector(x, family.n)
    basis = family._basis
    terms = [(-1, 1, basis.empty)]
    terms += [(*_square_ratio(xi), p) for xi, p in zip(x.tolist(), basis.single)]
    return np.array(_weighted_sum(terms, basis.shift)[::-1])


def _polish_roots(p: list[float], roots: list[float]) -> list[float]:
    """One Newton step on each root, none where the derivative vanishes.
    Horner in scalars: the same operations as np.polyval, without the
    per-call array overhead on a handful of roots."""
    dp = [c * k for c, k in zip(p[:-1], range(len(p) - 1, 0, -1))]
    out = []
    for r in roots:
        f = d = 0.0
        for c in p:
            f = f * r + c
        for c in dp:
            d = d * r + c
        out.append(r - f / d if d != 0.0 else r)
    return out


@functools.lru_cache(maxsize=8)
def _subdiagonal(m: int) -> np.ndarray:
    return np.eye(m, k=-1)


def real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a descending-coefficient polynomial, Newton-polished.

    The roots are those of np.roots, found as it finds them: exact zeros are
    stripped from both ends, the roots of what is left are the eigenvalues
    of its companion matrix (-p1/p0 for degree 1), and each stripped
    trailing zero is a root at 0.  A root is real when its imaginary part is
    below IMAG_TOL times the largest root modulus (at least 1).

    ValueError for a non-finite coefficient; CoefficientOverflowError when a
    companion-matrix entry -p_k/p_0 leaves the float range (where np.roots
    raises numpy's LinAlgError)."""
    p = np.asarray(coeffs, dtype=float)
    if p.ndim != 1:
        raise ValueError("coefficients must be a 1-D array")
    p = p.tolist()
    if not all(map(math.isfinite, p)):
        raise ValueError("coefficients must be finite")
    nonzero = [i for i, c in enumerate(p) if c != 0.0]
    if len(p) <= 1 or not nonzero:
        return np.array([])
    first, last = nonzero[0], nonzero[-1]
    degree = last - first
    if degree == 0:
        roots = []
    elif degree == 1 and 1e-130 < abs(p[last] / p[first]) < 1e130:
        # LAPACK returns a 1 x 1 matrix's entry unchanged, unless the entry
        # lies beyond 2**(+-459) and it rescales the matrix first
        roots = [-p[last] / p[first]]
    else:
        companion = _subdiagonal(degree).copy()
        companion[0] = [-c / p[first] for c in p[first + 1 : last + 1]]
        try:
            ev = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError:
            # numpy refuses a matrix with an infinite entry; checked here,
            # off the path of every matrix it accepts
            if np.isfinite(companion).all():
                raise
            raise CoefficientOverflowError("a companion-matrix entry leaves the float range") from None
        if ev.dtype.kind == "c":
            # numpy's modulus of a complex array, not abs(complex): the two
            # differ in the last bit on some inputs
            tol = IMAG_TOL * max(1.0, float(np.abs(ev).max()))
            roots = [z.real for z in ev.tolist() if abs(z.imag) < tol]
        else:
            roots = ev.tolist()
    roots += [0.0] * (len(p) - 1 - last)
    out = np.array(_polish_roots(p, roots))
    out.sort()
    return out


def _polish_member(basis: _FamilyBasis, x2: list[float], lam: float) -> float:
    """Newton-polish a family parameter on the rational member equation, which
    is better conditioned than the cleared polynomial near the poles.

    The near-pole exit leaves lam with |a_k^2 + tau_k lam| < 1e-14, that is
    within 1e-14 of the pole -tau_k a_k^2, well inside the POLE_TOL *
    pole_scale (>= 1e-8) band of `_split_poles`: every caller passes the
    result there, so such a root is always set apart and noted."""
    a2, tau = basis.a2, basis.tau
    neg_tau_x2 = [-t * q for t, q in zip(tau, x2)]
    for _ in range(POLISH_ITERS):
        dens = [a + t * lam for a, t in zip(a2, tau)]
        if min(abs(d) for d in dens) < 1e-14:
            break
        f = df = 0.0
        for q, nq, d in zip(x2, neg_tau_x2, dens):
            f += q / d
            df += nq / (d * d)
        f -= 1.0
        if df == 0.0:
            break
        step = f / df
        lam = lam - step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    return lam


def _split_poles(basis: _FamilyBasis, roots: list[float], notes: list[str]):
    """The roots away from the family poles, and the poles the other roots
    land on (a spurious root of the cleared polynomial, or a degenerate
    member), each noted."""
    keep, at_pole = [], []
    band = POLE_TOL * basis.pole_scale
    for r in roots:
        pole = min(basis.poles, key=lambda p: abs(p - r))
        if abs(pole - r) < band:
            at_pole.append(pole)
            notes.append(f"root {r:.6g} within tolerance of a family pole")
        else:
            keep.append(r)
    return keep, at_pole


@dataclass
class EllipticCoordinates:
    """Sorted family parameters through a point; the notes say why the point
    is degenerate, if it is."""

    values: np.ndarray
    notes: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def degenerate(self) -> bool:
        return bool(self.notes)


def quadrics_through_point(family: ConfocalFamily, x) -> EllipticCoordinates:
    """Elliptic coordinates of x: real lam with x on the member Q_lam."""
    x = as_vector(x, family.n)
    coeffs = point_polynomial(family, x)
    basis = family._basis
    notes: list[str] = []
    x2 = [xi * xi for xi in x.tolist()]
    roots = [_polish_member(basis, x2, r) for r in real_roots(coeffs).tolist()]
    keep, _ = _split_poles(basis, roots, notes)
    return EllipticCoordinates(values=np.array(keep), notes=notes)


def normal_to_member(family: ConfocalFamily, lam: float, x) -> np.ndarray:
    """Normal vector to Q_lam at a point x on it: components
    tau_i x_i / (a_i^2 + tau_i lam)."""
    x = as_vector(x, family.n)
    basis = family._basis
    dens = family.denominators(lam)
    if np.min(np.abs(dens)) < POLE_TOL * basis.pole_scale:
        raise DegenerateMemberError("family parameter at a pole")
    if not family.on_member(x, lam, MEMBER_TOL):
        raise ValueError("point is not on the requested member")
    return np.array(basis.tau) * x / dens


def line_tangency_polynomial(family: ConfocalFamily, base, direction) -> np.ndarray:
    """Descending coefficients of the polynomial whose real roots are the
    family parameters of members tangent to the line base + s * direction.

    The tangency discriminant, with denominators cleared, is

        sum_i v_i^2 prod_{k != i} d_k
        - sum_{i<j} (x_i v_j - x_j v_i)^2 prod_{k != i,j} d_k,

    d_k = a_k^2 + tau_k lam; the degree is set by the direction's class: the
    lam^(n-1) coefficient prod_k tau_k <v,v> is dropped exactly when
    `Metric.classify`'s test (on v at unit scale) calls it light-like.
    The cross terms x_i v_j - x_j v_i are rounded to float before squaring.
    """
    x = as_vector(base, family.n)
    v = as_vector(direction, family.n)
    basis = family._basis
    u = _unit_scale(v)
    top = -2 if _light_like(float(u @ family.metric.gram @ u), float(u @ u)) else -1
    x, v = x.tolist(), v.tolist()
    terms = [(*_square_ratio(vi), p) for vi, p in zip(v, basis.single)]
    for (i, j), p in basis.pairs:
        num, den = _square_ratio(x[i] * v[j] - x[j] * v[i])
        terms.append((-num, den, p))
    return np.array(_weighted_sum(terms, basis.shift)[top::-1])


@dataclass
class TangencySpectrum:
    """Family parameters of the members tangent to a line.

    Roots landing on a family pole are kept apart in pole_values: they are
    still conserved along trajectories but belong to degenerate members, so
    they are excluded from the generic tangency count.  The notes say why the
    spectrum is infinite or degenerate, if it is."""

    values: np.ndarray
    points: list[np.ndarray]
    pole_values: np.ndarray = field(default_factory=lambda: np.array([]))
    infinite: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def degenerate(self) -> bool:
        return bool(self.notes) and not self.infinite


def tangency_point(family: ConfocalFamily, lam: float, base, direction) -> np.ndarray:
    """Point where the line touches the member Q_lam; DegenerateMemberError when
    it touches at infinity (b_vv = sum v_i^2 / d_i vanishes against its terms)
    or when lam is a family pole."""
    x = as_vector(base, family.n)
    v = as_vector(direction, family.n)
    try:
        return _tangency_point(family._basis, float(lam), x.tolist(), v.tolist())
    except ZeroDivisionError:
        raise DegenerateMemberError("family parameter at a pole") from None


def _tangency_point(basis: _FamilyBasis, lam: float, x: list[float], v: list[float]) -> np.ndarray:
    """`tangency_point` on checked floats, for lam off the poles."""
    bvv = bvv_abs = bxv = 0.0
    for a, t, xi, vi in zip(basis.a2, basis.tau, x, v):
        d = a + t * lam
        term = vi * vi / d
        bvv += term
        bvv_abs += abs(term)
        bxv += xi * vi / d
    if abs(bvv) <= LEADING_TOL * bvv_abs:
        raise DegenerateMemberError("tangency point undefined: degenerate direction")
    c = bxv / bvv
    return np.array([xi - c * vi for xi, vi in zip(x, v)])


def tangent_spectrum_of_line(family: ConfocalFamily, base, direction) -> TangencySpectrum:
    """Members tangent to the line base + s * direction, the direction read
    at unit scale as `Metric.classify` reads it, whatever its length.

    The spectrum is degenerate when a root lies on a family pole, when the
    polynomial's leading coefficient (of the degree the line's causal class
    gives) is exactly 0, so that `real_roots` strips it and a root is lost to
    infinity, or when a member touches the line only at infinity (the line is
    one of its asymptotes)."""
    x = as_vector(base, family.n)
    v = _unit_scale(as_vector(direction, family.n))
    coeffs = line_tangency_polynomial(family, x, v)
    xl, vl, cl = x.tolist(), v.tolist(), coeffs.tolist()
    ref = max(vi * vi for vi in vl)
    if max(map(abs, cl), default=0.0) <= LEADING_TOL * ref:
        return TangencySpectrum(
            values=np.array([]),
            points=[],
            infinite=True,
            notes=["identically-zero discriminant: tangent to infinitely many members"],
        )
    notes: list[str] = []
    if cl[0] == 0.0:
        notes.append("leading coefficient exactly 0: a root lost to infinity")
    basis = family._basis
    keep, at_pole = _split_poles(basis, real_roots(coeffs).tolist(), notes)
    values, points = [], []
    for r in keep:
        try:
            points.append(_tangency_point(basis, r, xl, vl))
            values.append(r)
        except DegenerateMemberError:
            notes.append(f"root {r:.6g}: the member touches the line at infinity")
    return TangencySpectrum(
        values=np.array(values), points=points, pole_values=np.array(at_pole), notes=notes
    )


def expected_point_counts(n: int) -> set[int]:
    return {n, n - 2}


def expected_line_counts(n: int, causal: CausalClass) -> set[int]:
    if causal is CausalClass.LIGHT_LIKE:
        return {c for c in (n - 2, n - 4) if c >= 0}
    return {c for c in (n - 1, n - 3) if c >= 0}
