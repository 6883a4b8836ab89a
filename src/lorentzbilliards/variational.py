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
from .errors import EnvelopeDegenerateError
from .metric import CausalClass, Metric, as_vector, cross2

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


def find_diameters(metric: Metric, semi_axes) -> list[Diameter]:
    """The diameters of the ellipsoid sum_i x_i^2 / a_i^2 = 1, in closed form.

    With A = diag(coeffs) and Gram matrix G, the critical-chord system
    G(x - y) = mu1 A x = mu2 A y makes x and y parallel (G is nondegenerate,
    so mu1 = 0 would give x = y), and two parallel points of the ellipsoid
    other than x are y = -x.  So G x = lam A x: the diameters are the n
    generalized eigenvectors of the pencil (G, A), x = A^(-1/2) u for the
    eigenvectors u of A^(-1/2) G A^(-1/2), with f = 2 lam and mu1 = -mu2 =
    2 lam.  By Sylvester's law of inertia k of them are space-like and l
    time-like.  Where lam repeats (a round sphere of a Euclidean metric) the
    critical chords form a continuum, and these are n A-orthogonal ones.

    Ordered by f, largest first, each x signed so that its largest-magnitude
    component is positive.  A nondegenerate G gives no lam = 0, so no
    critical chord is exactly light-like; one that `Metric.classify` calls
    light-like (a nearly degenerate G) is discarded.  grad_norm is the
    largest residual of the critical-chord system at mu1 = -mu2 = 2 lam,
    whose two halves are both 2 (G x - lam A x) at y = -x.
    """
    table = _billiard.QuadricBoundary.from_semi_axes(metric, semi_axes)
    scale = 1.0 / np.sqrt(table.coeffs)
    lams, us = np.linalg.eigh(scale[:, None] * metric.gram * scale)
    found: list[Diameter] = []
    for lam, u in zip(lams.tolist(), us.T):
        x = scale * u
        if x[np.argmax(np.abs(x))] < 0.0:
            x = -x
        y = -x
        causal = metric.classify(x - y)
        if causal is CausalClass.LIGHT_LIKE:
            continue
        f_val = chord_half_energy(metric, x, y)
        grad_norm = 2.0 * float(np.max(np.abs(metric.gram @ x - lam * (table.coeffs * x))))
        found.append(Diameter(x=x, y=y, causal=causal, f_value=f_val, grad_norm=grad_norm))
    found.sort(key=lambda d: -d.f_value)
    return found


def endpoint_orthogonality(metric: Metric, semi_axes, diam: Diameter) -> float:
    """Largest residual of <x-y, t> over tangent directions t at both ends."""
    table = _billiard.QuadricBoundary.from_semi_axes(metric, semi_axes)
    d_flat = metric.gram @ diam.chord
    worst = 0.0
    for point in (diam.x, diam.y):
        # tangent space = orthogonal complement of the gradient (as covector)
        basis = _tangent_basis(table.gradient(point))
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
    from .lines import omega_pairing

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
            worst = max(worst, abs(omega_pairing(metric, d1, d2)))
    return worst
