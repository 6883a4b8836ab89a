import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lorentzbilliards import confocal
from lorentzbilliards.errors import CoefficientOverflowError, DegenerateMemberError
from lorentzbilliards.metric import CausalClass


def lorentz_conics():
    return confocal.ConfocalFamily((1.0, 1.0), (1, -1))


def lorentz_3d():
    return confocal.ConfocalFamily((1.0, 2.0, 3.0), (1, 1, -1))


def random_families(rng, n, signature_splits):
    fams = []
    for k, l in signature_splits:
        while True:
            a2 = np.sort(rng.uniform(0.5, 4.0, size=n))
            signs = (1,) * k + (-1,) * l
            poles = -np.array(signs) * a2
            if np.min(np.diff(np.sort(poles))) > 0.05:
                fams.append(confocal.ConfocalFamily(tuple(a2), signs))
                break
    return fams


def oracle_root_count(family, f_of_lams, n_samples=4096, pad=10.0):
    """Count sign changes of a function over a dense lambda grid that
    straddles every pole, as an independent check on polynomial root
    counting.  The grid holds one row of n_samples per interval between
    poles, and f_of_lams evaluates it in one array expression.  `pad` must
    exceed every root's distance from the pole cluster (callers pass a
    Cauchy bound when one is available)."""
    poles = np.sort(family.poles)
    edges = np.concatenate([[poles[0] - pad], poles, [poles[-1] + pad]])
    a, b = edges[:-1], edges[1:]
    vals = f_of_lams(np.linspace(a + 1e-6 * (b - a), b - 1e-6 * (b - a), n_samples, axis=1))
    return int(np.sum(vals[:, :-1] * vals[:, 1:] < 0.0))


# -- family construction -----------------------------------------------------


def test_family_rejects_bad_input():
    with pytest.raises(ValueError):
        confocal.ConfocalFamily((1.0, -1.0), (1, 1))
    with pytest.raises(ValueError):
        confocal.ConfocalFamily((1.0, 2.0), (1,))
    with pytest.raises(ValueError):
        confocal.ConfocalFamily((1.0, 2.0), (1, 2))
    # coincident poles: -tau_i a_i^2 collide
    with pytest.raises(ValueError):
        confocal.ConfocalFamily((1.0, 1.0), (1, 1))


def test_poles_sorted():
    fam = lorentz_3d()
    assert np.allclose(fam.poles, [-2.0, -1.0, 3.0])


# -- quadrics through a point ------------------------------------------------


def test_point_origin_no_roots():
    ec = confocal.quadrics_through_point(lorentz_conics(), [0.0, 0.0])
    assert ec.count == 0


def test_point_worked_quadratic():
    # x = (2, 0.1): clearing denominators gives lam^2 - 3.99 lam + 3.01 = 0
    fam = lorentz_conics()
    coeffs = confocal.point_polynomial(fam, [2.0, 0.1])
    assert np.allclose(coeffs / coeffs[0], [1.0, -3.99, 3.01])
    ec = confocal.quadrics_through_point(fam, [2.0, 0.1])
    expected = np.sort(np.roots([1.0, -3.99, 3.01]))
    assert ec.count == 2
    assert np.allclose(ec.values, expected, atol=1e-9)
    for lam in ec.values:
        assert fam.on_member([2.0, 0.1], lam, tol=1e-10)


def test_point_on_ellipsoid_has_root_zero():
    rng = np.random.default_rng(0)
    fam = lorentz_3d()
    a = np.sqrt(np.array(fam.axes_sq))
    for _ in range(20):
        raw = rng.normal(size=3)
        x = a * raw / np.linalg.norm(raw)
        ec = confocal.quadrics_through_point(fam, x)
        assert np.min(np.abs(ec.values)) < 1e-9


def test_point_counts_in_theorem_pairs():
    rng = np.random.default_rng(1)
    for fam in random_families(rng, 3, [(3, 0), (2, 1), (1, 2)]):
        allowed = confocal.expected_point_counts(fam.n)
        for _ in range(200):
            x = rng.uniform(-3, 3, size=3)
            ec = confocal.quadrics_through_point(fam, x)
            if ec.degenerate:
                continue
            assert ec.count in allowed


def test_point_count_matches_sign_change_oracle():
    rng = np.random.default_rng(2)
    fam = lorentz_3d()
    checked = 0
    for _ in range(60):
        x = rng.uniform(-2, 2, size=3)
        ec = confocal.quadrics_through_point(fam, x)
        if ec.degenerate:
            continue
        # the member equation sum_i x_i^2 / (a_i^2 + tau_i lam) - 1, term by term
        terms = list(zip(x**2, fam.axes_sq, fam.signs))
        oracle = oracle_root_count(
            fam, lambda gs: sum(x2 / (a2 + tau * gs) for x2, a2, tau in terms) - 1.0
        )
        assert ec.count == oracle
        checked += 1
    assert checked >= 40


def test_count_boundary_lines_n2():
    # crossing |x + y| = sqrt(2) changes the root count
    fam = lorentz_conics()
    c = np.sqrt(2.0) / 2.0  # on the diagonal x = y the boundary sits at x + y = sqrt(2)
    inner = confocal.quadrics_through_point(fam, [c - 0.05, c - 0.05])
    outer = confocal.quadrics_through_point(fam, [c + 0.05, c + 0.05])
    assert inner.count == 2
    assert outer.count == 0


# -- normals and orthogonality -----------------------------------------------


def test_normal_lambda_zero_is_ellipsoid_normal():
    fam = lorentz_3d()
    a2 = np.array(fam.axes_sq)
    x = np.sqrt(a2) * np.array([1.0, 0.0, 0.0])
    nu = confocal.normal_to_member(fam, 0.0, x)
    tau = np.array(fam.signs, dtype=float)
    assert np.allclose(nu, tau * x / a2)


def test_normal_rejects_pole_and_off_member():
    fam = lorentz_conics()
    with pytest.raises(DegenerateMemberError):
        confocal.normal_to_member(fam, 1.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        confocal.normal_to_member(fam, 0.0, [2.0, 2.0])


def test_normals_pairwise_orthogonal():
    rng = np.random.default_rng(3)
    worst = 0.0
    for fam in random_families(rng, 3, [(2, 1), (1, 2)]):
        m = fam.metric
        done = 0
        for _ in range(300):
            if done >= 60:
                break
            x = rng.uniform(-2.5, 2.5, size=3)
            ec = confocal.quadrics_through_point(fam, x)
            if ec.degenerate or ec.count < 2:
                continue
            normals = [confocal.normal_to_member(fam, lam, x) for lam in ec.values]
            for i in range(len(normals)):
                for j in range(i + 1, len(normals)):
                    ip = m.inner(normals[i], normals[j])
                    ref = max(np.linalg.norm(normals[i]) * np.linalg.norm(normals[j]), 1.0)
                    worst = max(worst, abs(ip) / ref)
            done += 1
        assert done >= 40
    assert worst < 1e-9


def test_normal_worked_pair_orthogonal():
    fam = lorentz_conics()
    x = np.array([2.0, 0.1])
    ec = confocal.quadrics_through_point(fam, x)
    n1, n2 = (confocal.normal_to_member(fam, lam, x) for lam in ec.values)
    assert fam.metric.inner(n1, n2) == pytest.approx(0.0, abs=1e-10)


# -- tangency spectra of lines -----------------------------------------------


def test_generic_light_like_line_n2_no_conics():
    fam = lorentz_conics()
    rng = np.random.default_rng(4)
    for _ in range(50):
        base = rng.uniform(-2, 2, size=2)
        d = np.array([1.0, 1.0]) if rng.random() < 0.5 else np.array([1.0, -1.0])
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        if spec.infinite or spec.degenerate:
            continue
        assert spec.count == 0


def test_exceptional_line_infinite_flag():
    fam = lorentz_conics()
    for s1, s2 in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        base = np.array([s1 * np.sqrt(2.0), 0.0])
        d = np.array([1.0, s2])
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        assert spec.infinite


def test_line_counts_in_theorem_pairs():
    rng = np.random.default_rng(5)
    for fam in random_families(rng, 3, [(3, 0), (2, 1), (1, 2)]):
        m = fam.metric
        for _ in range(200):
            base = rng.uniform(-2, 2, size=3)
            d = rng.normal(size=3)
            if abs(m.norm2(d)) < 1e-3 * float(d @ d):
                continue
            spec = confocal.tangent_spectrum_of_line(fam, base, d)
            if spec.infinite or spec.degenerate:
                continue
            assert spec.count in confocal.expected_line_counts(fam.n, m.classify(d))


def test_light_like_line_counts_n3():
    rng = np.random.default_rng(6)
    fam = lorentz_3d()
    allowed = confocal.expected_line_counts(3, CausalClass.LIGHT_LIKE)
    assert allowed == {1}
    for _ in range(100):
        base = rng.uniform(-2, 2, size=3)
        a, b = rng.normal(size=2)
        c = np.sqrt(a * a + b * b)  # (a, b, c) is null for diag(1,1,-1)
        d = np.array([a, b, c])
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        if spec.infinite or spec.degenerate:
            continue
        assert spec.count in allowed


def test_line_through_centre_touches_at_infinity():
    # every member tangent to a line through the centre touches it at
    # infinity; for n = 3 b_vv rounds to ~4e-15 against terms summing to ~10
    fam = lorentz_3d()
    base, d = np.zeros(3), np.array([1.0, 2.0, 0.5])
    roots = confocal.real_roots(confocal.line_tangency_polynomial(fam, base, d))
    assert len(roots) == 2
    for lam in roots:
        with pytest.raises(DegenerateMemberError):
            confocal.tangency_point(fam, lam, base, d)
    spec = confocal.tangent_spectrum_of_line(fam, base, d)
    assert spec.degenerate and spec.count == 0
    assert sum("touches the line at infinity" in note for note in spec.notes) == 2


def test_tangency_roots_satisfy_discriminant():
    rng = np.random.default_rng(7)
    fam = lorentz_3d()
    for _ in range(50):
        base = rng.uniform(-2, 2, size=3)
        d = rng.normal(size=3)
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        if spec.infinite:
            continue
        coeffs = confocal.line_tangency_polynomial(fam, base, d)
        scale = float(np.max(np.abs(coeffs)))
        for lam in spec.values:
            s = max(1.0, abs(lam)) ** (len(coeffs) - 1)
            assert abs(np.polyval(coeffs, lam)) < 1e-10 * scale * s


def test_tangency_points_on_members():
    rng = np.random.default_rng(8)
    fam = lorentz_3d()
    for _ in range(50):
        base = rng.uniform(-2, 2, size=3)
        d = rng.normal(size=3)
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        if spec.infinite or spec.degenerate:
            continue
        for lam, pt in zip(spec.values, spec.points):
            assert abs(fam.member_value(pt, lam) - 1.0) < 1e-7
            # the line direction is tangent: the gradient covector kills it,
            # which for the raised normal reads <nu, d> in the metric
            nu = confocal.normal_to_member(fam, lam, pt)
            ref = max(np.linalg.norm(nu) * np.linalg.norm(d), 1.0)
            assert abs(fam.metric.inner(nu, d)) < 1e-8 * ref


def test_tangent_hyperplanes_pairwise_orthogonal():
    rng = np.random.default_rng(9)
    fam = lorentz_3d()
    m = fam.metric
    worst = 0.0
    done = 0
    for _ in range(300):
        if done >= 40:
            break
        base = rng.uniform(-2, 2, size=3)
        d = rng.normal(size=3)
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        if spec.infinite or spec.degenerate or spec.count < 2:
            continue
        normals = [
            confocal.normal_to_member(fam, lam, pt)
            for lam, pt in zip(spec.values, spec.points)
        ]
        for i in range(len(normals)):
            for j in range(i + 1, len(normals)):
                ref = max(np.linalg.norm(normals[i]) * np.linalg.norm(normals[j]), 1.0)
                worst = max(worst, abs(m.inner(normals[i], normals[j])) / ref)
        done += 1
    assert done >= 40
    assert worst < 1e-9


def test_line_count_matches_sign_change_oracle():
    rng = np.random.default_rng(10)
    fam = lorentz_3d()
    checked = 0
    for _ in range(60):
        base = rng.uniform(-2, 2, size=3)
        d = rng.normal(size=3)
        spec = confocal.tangent_spectrum_of_line(fam, base, d)
        if spec.infinite or spec.degenerate:
            continue
        coeffs = confocal.line_tangency_polynomial(fam, base, d)
        cauchy = 1.0 + float(np.max(np.abs(coeffs[1:]))) / abs(coeffs[0])
        oracle = oracle_root_count(fam, lambda gs: np.polyval(coeffs, gs), pad=cauchy)
        assert spec.count == oracle
        checked += 1
    assert checked >= 40


# -- exact assembly against a Fraction reference -------------------------------

COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e100, -1e100]),
    st.floats(-1e100, 1e100),
)


@st.composite
def families(draw, min_n=2, mixed=False):
    """Families with n = min_n-4, any signature (both signs when `mixed`),
    poles at least 0.05 apart."""
    n = draw(st.integers(min_n, 4))
    k = draw(st.integers(1, n - 1) if mixed else st.integers(0, n))
    signs = (1,) * k + (-1,) * (n - k)
    a2 = tuple(draw(st.lists(st.floats(0.5, 4.0), min_size=n, max_size=n)))
    assume(np.min(np.diff(np.sort(-np.array(signs) * np.array(a2)))) >= 0.05)
    return confocal.ConfocalFamily(a2, signs)


def exact_product(family, skip):
    """Ascending exact coefficients of prod_{k not in skip} (a_k^2 + tau_k lam)."""
    out = [Fraction(1)]
    for k, (a2, tau) in enumerate(zip(family.axes_sq, family.signs)):
        if k in skip:
            continue
        nxt = [Fraction(0)] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c * Fraction(a2)
            nxt[i + 1] += c * tau
        out = nxt
    return out


def exact_coefficients(terms, drop_leading=False):
    """sum w * p over (w, p) in terms, rounded to float once per coefficient,
    descending; with `drop_leading`, the leading one left out."""
    acc = [Fraction(0)] * max(len(p) for _, p in terms)
    for w, p in terms:
        for i, c in enumerate(p):
            acc[i] += w * c
    coeffs = np.array([float(c) for c in acc])[::-1]
    return coeffs[1:] if drop_leading else coeffs


def assert_same_floats(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@st.composite
def family_points(draw):
    family = draw(families())
    return family, np.array(draw(st.lists(COORDS, min_size=family.n, max_size=family.n)))


@settings(max_examples=500)
@given(family_points())
# a far point: the leading coefficient +-1 is below 1e-12 of the largest
@example((confocal.ConfocalFamily((2.0, 1.0), (1, -1)), np.array([3e6, 2e6])))
def test_point_polynomial_exact_and_counts(family_point):
    family, x = family_point
    n = family.n
    before = dict(vars(family))
    # sum_i x_i^2 prod_{k != i} d_k - prod_k d_k, every coefficient kept:
    # the leading one is -prod_k tau_k
    terms = [(Fraction(-1), exact_product(family, ()))]
    terms += [(Fraction(float(xi)) ** 2, exact_product(family, (i,))) for i, xi in enumerate(x)]
    coeffs = confocal.point_polynomial(family, x)
    assert len(coeffs) == n + 1
    assert_same_floats(coeffs, exact_coefficients(terms))
    with np.errstate(all="ignore"):
        ec = confocal.quadrics_through_point(family, x)
    if not ec.degenerate:
        assert ec.count in confocal.expected_point_counts(n)
    assert vars(family) == before


def test_far_point_keeps_both_members():
    # the lam^2 coefficient is -tau_1 tau_2 = 1 beside 5e12 and 1.7e13; it
    # stays, so the far member is found and the point is generic.  The roots
    # of 9e12 / (2 + lam) + 4e12 / (1 - lam) = 1, to 17 digits:
    family = confocal.ConfocalFamily((2.0, 1.0), (1, -1))
    ec = confocal.quadrics_through_point(family, [3e6, 2e6])
    assert ec.notes == []
    assert ec.values == pytest.approx([3.400000000002592, 4999999999995.6], rel=1e-14)


@settings(max_examples=500)
@given(families(), st.data())
def test_line_polynomial_exact_and_counts(family, data):
    n = family.n
    x = np.array(data.draw(st.lists(COORDS, min_size=n, max_size=n)))
    v = np.array(data.draw(st.lists(COORDS, min_size=n, max_size=n)))
    if len(set(family.signs)) == 2 and data.draw(st.booleans()):
        # an exactly light-like direction along e_p + e_q, tau_p = -tau_q
        v = np.zeros(n)
        v[family.signs.index(1)] = v[family.signs.index(-1)] = data.draw(COORDS)
    check_line_polynomial(family, x, v)


def test_line_polynomial_recorded_case():
    # a light-like direction whose squares underflow, on a far base point
    check_line_polynomial(
        confocal.ConfocalFamily((1.0, 1.0), (1, -1)),
        np.array([0.0, 3.09e56]),
        3.23e-213 * np.array([1.0, 1.0]),
    )


def check_line_polynomial(family, x, v):
    n = family.n
    before = dict(vars(family))
    # sum_i v_i^2 prod_{k != i} d_k - sum_{i<j} w_ij^2 prod_{k != i,j} d_k,
    # w_ij = x_i v_j - x_j v_i rounded to float; the leading coefficient,
    # +-<v,v>, is left out exactly for a light-like direction (the zero
    # direction, which `Metric.classify` refuses, included)
    causal = family.metric.classify(v) if v.any() else CausalClass.LIGHT_LIKE
    terms = [(Fraction(float(vi)) ** 2, exact_product(family, (i,))) for i, vi in enumerate(v)]
    try:
        for i in range(n):
            for j in range(i + 1, n):
                w = float(x[i]) * float(v[j]) - float(x[j]) * float(v[i])
                terms.append((-Fraction(w) ** 2, exact_product(family, (i, j))))
        expected = exact_coefficients(terms, drop_leading=causal is CausalClass.LIGHT_LIKE)
    except OverflowError:
        # a cross term or a coefficient does not fit in a float
        with np.errstate(all="ignore"), pytest.raises(OverflowError):
            confocal.line_tangency_polynomial(family, x, v)
        assert vars(family) == before
        return
    with np.errstate(all="ignore"):
        got = confocal.line_tangency_polynomial(family, x, v)
        spec = confocal.tangent_spectrum_of_line(family, x, v)
    assert_same_floats(got, expected)
    if np.any(v != 0.0) and not (spec.infinite or spec.degenerate):
        assert spec.count in confocal.expected_line_counts(n, causal)
    assert vars(family) == before


# -- scale of the direction ------------------------------------------------------


def test_spectrum_does_not_depend_on_the_direction_scale():
    # squares of 1e-170 (1, 0.5) underflow and those of 1e200 (1, 0.5)
    # overflow; read at unit scale, both lines touch the one member lam = 1/3
    family = lorentz_conics()
    for scale in (1.0, 1e-170, 1e200):
        spec = confocal.tangent_spectrum_of_line(family, [0.0, 1.0], scale * np.array([1.0, 0.5]))
        assert not spec.infinite and spec.notes == []
        assert spec.values == pytest.approx([1.0 / 3.0], rel=1e-14)


def same_spectrum(a, b) -> bool:
    return (
        np.array_equal(a.values, b.values)
        and np.array_equal(a.pole_values, b.pole_values)
        and len(a.points) == len(b.points)
        and all(np.array_equal(p, q) for p, q in zip(a.points, b.points))
        and a.infinite == b.infinite
        and a.notes == b.notes
    )


SIZES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=300)
@given(families(), st.data(), st.integers(-600, 600))
def test_class_and_spectrum_do_not_depend_on_the_direction_scale(family, data, k):
    n = family.n
    x = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    v = np.array(data.draw(st.lists(SIZES, min_size=n, max_size=n)))
    if len(set(family.signs)) == 2 and data.draw(st.booleans()):
        # an exactly light-like direction along e_p + e_q, tau_p = -tau_q
        v = np.zeros(n)
        v[family.signs.index(1)] = v[family.signs.index(-1)] = data.draw(SIZES)
    assume(v.any())
    scaled = np.ldexp(v, k)
    assert family.metric.classify(scaled) is family.metric.classify(v)
    with np.errstate(all="ignore"):
        assert same_spectrum(
            confocal.tangent_spectrum_of_line(family, x, scaled),
            confocal.tangent_spectrum_of_line(family, x, v),
        )


# -- roots on a family pole ------------------------------------------------------


@st.composite
def band_lines(draw):
    """A family with n = 3 or 4 and both signs, and a base point at least
    0.25 off every coordinate hyperplane (so the line misses the centre)."""
    family = draw(families(min_n=3, mixed=True))
    side = st.one_of(st.floats(-2.0, -0.25), st.floats(0.25, 2.0))
    return family, np.array(draw(st.lists(side, min_size=family.n, max_size=family.n)))


@settings(max_examples=200)
@given(band_lines(), st.floats(-1e-10, 1e-10))
# the light-like line of ROADMAP item 3: <v,v> / |v|^2 = -2.5e-11
@example(
    (confocal.ConfocalFamily((4.0, 3.0, 2.0, 1.0), (1, 1, 1, -1)), np.array([0.6, -0.4, 0.3, 0.5])),
    -2.5e-11,
)
def test_band_lines_have_the_light_like_degree(line, ratio):
    # e_p + s e_q, tau_p = 1 = -tau_q, with s chosen so that <v,v> / |v|^2 is
    # `ratio`: Metric.classify calls it light-like, so the polynomial has
    # degree n - 2 and its roots, those on a family pole included, number
    # n - 2 or n - 4; the only notes are roots on a pole
    family, base = line
    n = family.n
    v = np.zeros(n)
    v[family.signs.index(1)] = 1.0
    v[family.signs.index(-1)] = np.sqrt((1.0 - ratio) / (1.0 + ratio))
    assume(family.metric.classify(v) is CausalClass.LIGHT_LIKE)
    assert len(confocal.line_tangency_polynomial(family, base, v)) == n - 1
    spec = confocal.tangent_spectrum_of_line(family, base, v)
    assert not spec.infinite
    assert all("family pole" in note for note in spec.notes)
    allowed = confocal.expected_line_counts(n, CausalClass.LIGHT_LIKE)
    assert spec.count + len(spec.pole_values) in allowed


def test_point_roots_on_poles_are_noted_not_kept():
    # n = 2: x^2 d_2 - d_1 d_2 = d_2 (1 - d_1) at x = (1, 0), with d_2 = 1 - lam
    # vanishing at the pole lam = 1; the other root is -1
    fam = confocal.ConfocalFamily((2.0, 1.0), (1, -1))
    ec = confocal.quadrics_through_point(fam, [1.0, 0.0])
    assert ec.values.tolist() == [-1.0]
    assert ec.notes == ["root 1 within tolerance of a family pole"]
    # n = 3: d_2 d_3 (1 - d_1) at x = (1, 0, 0) has roots -3 and the poles -2, 1
    fam = confocal.ConfocalFamily((4.0, 2.0, 1.0), (1, 1, -1))
    ec = confocal.quadrics_through_point(fam, [1.0, 0.0, 0.0])
    assert ec.values.tolist() == [-3.0]
    assert ec.notes == [
        "root -2 within tolerance of a family pole",
        "root 1 within tolerance of a family pole",
    ]
    assert ec.degenerate


# -- input checks ----------------------------------------------------------------


def test_count_input_checks_do_not_depend_on_roots(input_checks):
    fam2, fam3 = lorentz_conics(), lorentz_3d()
    c = np.sqrt(2.0) / 2.0
    points = [[c - 0.05, c - 0.05], [c + 0.05, c + 0.05]]
    assert [confocal.quadrics_through_point(fam2, x).count for x in points] == [2, 0]
    lines = [
        ([0.5, 0.3, 0.1], [1.0, 0.2, 0.1]),  # two tangency points
        ([1.4, -1.9, 0.9], [-0.7, -0.5, -0.3]),  # no real root
        ([0.0, 0.0, 0.0], [1.0, 2.0, 0.5]),  # two roots touching at infinity
    ]
    spectra = [confocal.tangent_spectrum_of_line(fam3, b, d) for b, d in lines]
    assert [s.count for s in spectra] == [2, 0, 0]
    per_call = []
    for x in points:
        input_checks.clear()
        confocal.quadrics_through_point(fam2, x)
        per_call.append(len(input_checks))
    assert len(set(per_call)) == 1
    per_call = []
    for b, d in lines:
        input_checks.clear()
        confocal.tangent_spectrum_of_line(fam3, b, d)
        per_call.append(len(input_checks))
    assert len(set(per_call)) == 1


# -- float kernels against the numpy formulas they replaced ----------------------


def reference_real_roots(coeffs):
    """np.roots, its roots with imaginary part below IMAG_TOL times the largest
    modulus (at least 1), one Newton step each by np.polyval, np.sort."""
    if len(coeffs) <= 1:
        return np.array([])
    roots = np.roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(roots)))) if roots.size else 1.0
    real = roots[np.abs(roots.imag) < confocal.IMAG_TOL * scale].real
    dp = np.polyder(coeffs)
    out = []
    for r in real:
        d = np.polyval(dp, r)
        out.append(r - np.polyval(coeffs, r) / d if d != 0.0 else r)
    return np.sort(np.array(out, dtype=float))


def reference_polish_member(family, x, lam):
    a2 = np.array(family.axes_sq)
    tau = np.array(family.signs, dtype=float)
    x2 = x**2
    neg_tau_x2 = -tau * x2
    for _ in range(confocal.POLISH_ITERS):
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


def reference_tangency_point(family, lam, x, v):
    """The point, or None where the member touches the line at infinity."""
    dens = np.array(family.axes_sq) + np.array(family.signs, dtype=float) * lam
    terms = v**2 / dens
    bvv = float(np.sum(terms))
    if abs(bvv) <= confocal.LEADING_TOL * float(np.sum(np.abs(terms))):
        return None
    bxv = float(np.sum(x * v / dens))
    return x - (bxv / bvv) * v


COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.25]),
    st.floats(-1e3, 1e3),
    st.floats(-1e-3, 1e-3),
)
MODERATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]), st.floats(-5.0, 5.0))


@settings(max_examples=1000)
@given(st.lists(COEFFS, min_size=1, max_size=5), st.integers(0, 2), st.integers(0, 2))
@example([0.0, 0.0, 0.0], 0, 0)
@example([-0.0], 2, 2)
@example([1.0, -2.0, 1.0], 0, 0)
@example([1.0, -3.0, 3.0, -1.0], 0, 1)
@example([1.0, 0.0, -2.0, 0.0, 1.0], 0, 0)
@example([2.0, 3.0], 2, 1)
@example([1e-300, 1.0, 1e300], 0, 0)
@example([5e-324, 2.0, 1.0], 0, 0)
def test_real_roots_match_np_roots(body, leading, trailing):
    body = body[: 5 - min(leading + trailing, 4)]
    coeffs = np.array([0.0] * leading + body + [0.0] * trailing)
    with np.errstate(all="ignore"):
        try:
            expected = reference_real_roots(coeffs)
        except np.linalg.LinAlgError:
            # np.roots refuses a companion matrix with an infinite entry
            with pytest.raises(CoefficientOverflowError):
                confocal.real_roots(coeffs)
            return
        got = confocal.real_roots(coeffs)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0, 1.0]])
def test_real_roots_rejects_nonfinite_coefficients(coeffs):
    with pytest.raises(ValueError, match="finite"):
        confocal.real_roots(coeffs)


@pytest.mark.parametrize("x", [[0.5, 0.3, 0.1], [0.0, 0.3, 0.1]])
def test_member_value_at_a_pole_is_degenerate(x):
    fam = lorentz_3d()
    with pytest.raises(DegenerateMemberError):
        fam.member_value(x, -1.0)
    with pytest.raises(DegenerateMemberError):
        fam.on_member(x, -1.0)
    # beside the pole the value is the plain sum, as before
    lam = np.nextafter(-1.0, 0.0)
    dens = np.array(fam.axes_sq) + np.array(fam.signs) * lam
    assert fam.member_value(x, lam) == float(np.sum(np.array(x) ** 2 / dens))


@settings(max_examples=300)
@given(families(), st.data())
def test_polish_member_matches_numpy_formula(family, data):
    n = family.n
    x = np.array(data.draw(st.lists(MODERATE, min_size=n, max_size=n)))
    starts = confocal.real_roots(confocal.point_polynomial(family, x)).tolist()
    starts += [data.draw(st.floats(-10.0, 10.0)), *family.poles.tolist()]
    basis = family._basis
    x2 = [xi * xi for xi in x.tolist()]
    for lam in starts:
        got = confocal._polish_member(basis, x2, lam)
        with np.errstate(all="ignore"):
            expected = reference_polish_member(family, x, np.float64(lam))
        assert_same_floats(np.array([got]), np.array([expected]))


@settings(max_examples=300)
@given(families(), st.data())
def test_tangency_point_matches_numpy_formula(family, data):
    n = family.n
    x = np.array(data.draw(st.lists(MODERATE, min_size=n, max_size=n)))
    v = np.array(data.draw(st.lists(MODERATE, min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        x = np.zeros(n)  # a line through the centre
    assume(np.any(v != 0.0))
    lams = confocal.real_roots(confocal.line_tangency_polynomial(family, x, v)).tolist()
    lams.append(data.draw(st.floats(-10.0, 10.0)))
    for lam in lams:
        assume(np.min(np.abs(family.denominators(lam))) > 0.0)
        expected = reference_tangency_point(family, np.float64(lam), x, v)
        if expected is None:
            with pytest.raises(DegenerateMemberError):
                confocal.tangency_point(family, lam, x, v)
        else:
            assert_same_floats(confocal.tangency_point(family, lam, x, v), expected)


def test_tangency_point_signed_zeros_match_numpy_formula():
    # numpy sums from +0.0: a base point of signed zeros keeps the sign that
    # x - (b_xv / b_vv) v gives when every x_i v_i / d_i is a zero
    fam = lorentz_3d()
    for xs in itertools.product([0.0, -0.0], repeat=3):
        for vs in itertools.product([1.0, -0.5], [0.5, -0.25], [0.25, -1.0]):
            x, v = np.array(xs), np.array(vs)
            for lam in (0.0, -1.5, 2.5, 5.0):
                expected = reference_tangency_point(fam, np.float64(lam), x, v)
                assert_same_floats(confocal.tangency_point(fam, lam, x, v), expected)


def test_tangency_point_at_a_pole_is_degenerate():
    fam = lorentz_3d()
    for lam in fam.poles:
        with pytest.raises(DegenerateMemberError):
            confocal.tangency_point(fam, lam, [0.5, 0.3, 0.1], [0.0, 1.0, 1.0])
