"""Critical chords (diameters) of convex hypersurfaces, caustics of normal
families, and the Lagrangian check for normal-line (Gauss map) images.

A diameter is a chord orthogonal to the hypersurface at both endpoints; it
is a critical point of the half squared chord length
f(x, y) = <x - y, x - y> / 2 on the product of the surface with itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import billiard as _billiard
from . import lines as _lines
from .errors import EnvelopeDegenerateError
from .metric import CausalClass, Metric, as_vector, cross2

LIGHT_CUTOFF = 1e-8
MERGE_TOL = 1e-6
ENVELOPE_DIFF_STEP = 1e-6
PATCH_DIFF_STEP = 1e-5


@dataclass
class Diameter:
    x: np.ndarray
    y: np.ndarray
    causal: CausalClass
    f_value: float
    grad_norm: float

    @property
    def chord(self) -> np.ndarray:
        return self.x - self.y


def chord_half_energy(metric: Metric, x, y) -> float:
    d = as_vector(x, metric.n) - as_vector(y, metric.n)
    return 0.5 * float(d @ metric.gram @ d)


def _diameter_system(metric: Metric, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Residual of the critical-chord system for the ellipsoid
    sum_i coeffs_i x_i^2 = 1.  Unknowns z = (x, y, mu1, mu2)."""
    n = len(coeffs)
    x, y = z[:n], z[n : 2 * n]
    mu1, mu2 = z[2 * n], z[2 * n + 1]
    d = metric.gram @ (x - y)
    ax = coeffs * x
    ay = coeffs * y
    res = np.empty(2 * n + 2)
    res[:n] = d - mu1 * ax
    res[n : 2 * n] = d - mu2 * ay
    res[2 * n] = float(coeffs @ x**2 - 1.0)
    res[2 * n + 1] = float(coeffs @ y**2 - 1.0)
    return res


def _diameter_jacobian(metric: Metric, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    n = len(coeffs)
    x, y = z[:n], z[n : 2 * n]
    mu1, mu2 = z[2 * n], z[2 * n + 1]
    g = metric.gram
    A = np.diag(coeffs)
    jac = np.zeros((2 * n + 2, 2 * n + 2))
    jac[:n, :n] = g - mu1 * A
    jac[:n, n : 2 * n] = -g
    jac[:n, 2 * n] = -coeffs * x
    jac[n : 2 * n, :n] = g
    jac[n : 2 * n, n : 2 * n] = -g - mu2 * A
    jac[n : 2 * n, 2 * n + 1] = -coeffs * y
    jac[2 * n, :n] = 2.0 * coeffs * x
    jac[2 * n + 1, n : 2 * n] = 2.0 * coeffs * y
    return jac


def _newton_diameter(metric, coeffs, z0, tol=1e-13, max_iter=60):
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(max_iter):
        res = _diameter_system(metric, coeffs, z)
        if float(np.max(np.abs(res))) < tol:
            return z
        try:
            step = np.linalg.solve(_diameter_jacobian(metric, coeffs, z), res)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        z = z - step
        if float(np.max(np.abs(z))) > 1e8:
            return None
    return None


def find_diameters(
    metric: Metric, semi_axes, n_random_starts: int = 50, seed: int = 0
) -> list[Diameter]:
    """Multistart Newton search for the diameters of the ellipsoid
    sum_i x_i^2 / a_i^2 = 1.

    Seeds are the antipodal coordinate-axis pairs plus random chords; results
    are deduplicated under the endpoint swap and chords with |f| below the
    light cutoff are discarded (critical light-like chords are excluded by
    convexity).
    """
    semi_axes = np.asarray(semi_axes, dtype=float)
    n = metric.n
    if semi_axes.shape[0] != n:
        raise ValueError("semi-axes must match the metric dimension")
    coeffs = 1.0 / semi_axes**2
    rng = np.random.default_rng(seed)

    def on_surface(raw):
        return raw / np.sqrt(float(coeffs @ raw**2))

    seeds = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = semi_axes[i]
        seeds.append((e, -e))
    for _ in range(n_random_starts):
        seeds.append((on_surface(rng.normal(size=n)), on_surface(rng.normal(size=n))))

    found: list[Diameter] = []
    starts = []
    for x0, y0 in seeds:
        if float(np.linalg.norm(x0 - y0)) < 1e-8:
            continue
        for mu0 in ((1.0, -1.0), (-1.0, 1.0)):
            starts.append(np.concatenate([x0, y0, mu0]))
    for z0 in starts:
        z = _newton_diameter(metric, coeffs, z0)
        if z is None:
            continue
        x, y = z[:n], z[n : 2 * n]
        f_val = chord_half_energy(metric, x, y)
        if abs(f_val) < LIGHT_CUTOFF or float(np.linalg.norm(x - y)) < 1e-8:
            continue
        grad_norm = float(np.max(np.abs(_diameter_system(metric, coeffs, z)[: 2 * n])))
        causal = metric.classify(x - y)
        cand = Diameter(x=x, y=y, causal=causal, f_value=f_val, grad_norm=grad_norm)
        if not _is_duplicate(found, cand, MERGE_TOL):
            found.append(cand)
    return found


def _is_duplicate(found, cand, tol):
    for d in found:
        direct = max(
            float(np.max(np.abs(d.x - cand.x))), float(np.max(np.abs(d.y - cand.y)))
        )
        swapped = max(
            float(np.max(np.abs(d.x - cand.y))), float(np.max(np.abs(d.y - cand.x)))
        )
        if min(direct, swapped) < tol:
            return True
    return False


def endpoint_orthogonality(metric: Metric, semi_axes, diam: Diameter) -> float:
    """Largest residual of <x-y, t> over tangent directions t at both ends."""
    semi_axes = np.asarray(semi_axes, dtype=float)
    coeffs = 1.0 / semi_axes**2
    d_flat = metric.gram @ diam.chord
    worst = 0.0
    for point in (diam.x, diam.y):
        grad = 2.0 * coeffs * point
        # tangent space = orthogonal complement of grad (as covector)
        basis = _tangent_basis(grad)
        for t in basis:
            worst = max(worst, abs(float(d_flat @ t)) / max(1.0, float(np.linalg.norm(diam.chord))))
    return worst


def _tangent_basis(grad: np.ndarray) -> np.ndarray:
    n = len(grad)
    q, _ = np.linalg.qr(np.column_stack([grad, np.eye(n)]))
    return q[:, 1:n].T


# -- caustics (envelopes of normal families) ---------------------------------


def envelope_of_normals(boundary: _billiard.ImplicitSurface, curve, t_grid) -> np.ndarray:
    """Envelope of the normal lines to a parametrized plane curve.

    `curve` maps t to a boundary point; normals come from the boundary's
    metric gradient.  The envelope point on the normal at q(t) is
    q + s* nu with s* = -[q', nu] / [nu', nu] (derivatives by central
    differences)."""
    n = boundary.metric.n
    h = ENVELOPE_DIFF_STEP
    pts = []
    for t in np.asarray(t_grid, dtype=float):
        q, q_plus, q_minus = (as_vector(curve(s), n) for s in (t, t + h, t - h))
        nu = _billiard.normal_at(boundary, q)
        qp = (q_plus - q_minus) / (2 * h)
        nup = (
            _billiard.normal_at(boundary, q_plus) - _billiard.normal_at(boundary, q_minus)
        ) / (2 * h)
        denom = cross2(nup, nu)
        if abs(denom) < 1e-12 * max(1.0, float(np.linalg.norm(nup)) * float(np.linalg.norm(nu))):
            raise EnvelopeDegenerateError("flat normal family: no envelope point")
        s_star = -cross2(qp, nu) / denom
        pts.append(q + s_star * nu)
    return np.array(pts)


def astroid_residual(point, radius: float = 2.0) -> float:
    """Residual of x^(2/3) + y^(2/3) = radius^(2/3)."""
    x, y = as_vector(point, 2)
    return float(abs(x) ** (2.0 / 3.0) + abs(y) ** (2.0 / 3.0) - radius ** (2.0 / 3.0))


# -- Lagrangian property of the normal-line (Gauss) map ----------------------


def lagrangian_defect(metric: Metric, patch, grad, u_grid, v_grid) -> float:
    """Max over a parameter grid of the line-space 2-form evaluated on the
    two coordinate variations of the normal-line family of a surface patch.

    `patch(u, v)` is a point of the surface, `grad(u, v)` the gradient
    covector of its defining function there; the normal class must not change
    on the patch."""

    def section(u, v):
        return as_vector(patch(u, v), metric.n), metric.unit(metric.sharp(grad(u, v)))

    h = PATCH_DIFF_STEP
    ref_class = None
    worst = 0.0
    for u in np.asarray(u_grid, dtype=float):
        for v in np.asarray(v_grid, dtype=float):
            x0, nu0 = section(u, v)
            cls = metric.classify(nu0)
            if ref_class is None:
                ref_class = cls
            elif cls is not ref_class:
                raise ValueError("normal causal class changes across the patch")
            xp, nup = section(u + h, v)
            xm, num_ = section(u - h, v)
            d1 = ((xp - xm) / (2 * h), (nup - num_) / (2 * h))
            yp, mup = section(u, v + h)
            ym, mum = section(u, v - h)
            d2 = ((yp - ym) / (2 * h), (mup - mum) / (2 * h))
            worst = max(worst, abs(_lines.omega_pairing(metric, d1, d2)))
    return worst
