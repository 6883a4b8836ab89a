"""Pseudo-Euclidean linear algebra.

A metric is a nondegenerate symmetric bilinear form stored as a full Gram
matrix, so diagonal signature forms and the null-coordinate plane with
ds^2 = dx dy share one code path.  Vectors, covectors and points are plain
1-D numpy arrays.
"""
from __future__ import annotations

import enum
import functools
import math
import operator

import numpy as np

from .errors import (
    DegenerateMetricError,
    DimensionMismatchError,
    SingularNormalError,
)

EPS_LIGHT = 1e-10
_KERNEL_RANGE = (2.0**-250, 2.0**250)


def _light_like(q: float, euclid2: float) -> bool:
    """The library's one light-like test, on q = <u,u> and euclid2 = u.u of
    a vector u read at unit scale; only the zero vector has euclid2 = 0, and
    it passes."""
    return abs(q) <= EPS_LIGHT * euclid2


def _unit_scale(v: np.ndarray) -> np.ndarray:
    """v times the power of two that puts its largest |component| in
    [0.5, 1) (the zero vector as it is): an exact factor, so the class and
    the ratios of v are kept whatever its length, and the largest square
    neither overflows nor underflows."""
    e = math.frexp(max(map(abs, v.tolist())))[1]
    return np.ldexp(v, -e) if e else v


def _kernel_scale(v: np.ndarray) -> np.ndarray:
    """`_unit_scale` for the per-bounce kernels at the cost of a range check:
    v itself while its largest |component| lies in `_KERNEL_RANGE`, where no
    square overflows and what underflows lies far below EPS_LIGHT * v.v."""
    top = max(map(abs, v.tolist()))
    return v if _KERNEL_RANGE[0] <= top <= _KERNEL_RANGE[1] else _unit_scale(v)


class CausalClass(enum.Enum):
    SPACE_LIKE = "space-like"
    TIME_LIKE = "time-like"
    LIGHT_LIKE = "light-like"


def as_vector(v, n: int | None = None) -> np.ndarray:
    """v as a 1-D finite float array, of dimension n when n is given.  Entry
    points check each vector a caller passes with this on entry; kernels
    (the `ImplicitSurface` methods, private helpers) check nothing.  The
    finiteness check runs over Python floats: on short vectors that is
    cheaper than a numpy reduction."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("vector has non-finite components")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatchError(
            f"vector of dimension {v.shape[0]} in a {n}-dimensional space"
        )
    return v


def as_count(n) -> int:
    """n as a non-negative Python int, for step and bounce counts; ValueError
    for a negative n or one that operator.index refuses (a float, a string)."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"count must be an integer, got {n!r}") from None
    if n < 0:
        raise ValueError(f"count must be non-negative, got {n}")
    return n


class Metric:
    """A nondegenerate symmetric bilinear form on R^n."""

    def __init__(self, gram):
        gram = np.asarray(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise DimensionMismatchError("Gram matrix must be square")
        if not np.all(np.isfinite(gram)):
            raise ValueError("Gram matrix has non-finite entries")
        if not np.allclose(gram, gram.T, atol=1e-14 * max(1.0, np.abs(gram).max())):
            raise ValueError("Gram matrix must be symmetric")
        gram = 0.5 * (gram + gram.T)
        scale = np.abs(gram).max()
        if scale == 0.0 or abs(np.linalg.det(gram / scale)) <= 1e-12:
            raise DegenerateMetricError("Gram matrix is numerically singular")
        # read-only: cached metrics are shared by every caller
        gram.flags.writeable = False
        self.gram = gram
        self.gram_inv = np.linalg.inv(gram)
        self.gram_inv.flags.writeable = False
        self.n = gram.shape[0]
        eigs = np.linalg.eigvalsh(gram)
        self.signature = (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def euclidean(cls, n: int) -> "Metric":
        return cls.diagonal([1.0] * n)

    @classmethod
    def diagonal(cls, signs) -> "Metric":
        signs = np.asarray(signs, dtype=float)
        if signs.ndim != 1:
            raise DimensionMismatchError("signs must form a 1-D vector")
        return _shared(tuple(map(tuple, np.diag(signs).tolist())))

    @classmethod
    def from_signature(cls, k: int, l: int) -> "Metric":
        return cls.diagonal([1.0] * k + [-1.0] * l)

    @classmethod
    def dxdy_plane(cls) -> "Metric":
        """The Lorentz plane in null coordinates, <v,v> = v_x * v_y."""
        return _shared(((0.0, 0.5), (0.5, 0.0)))

    # -- basic operations ---------------------------------------------------

    def inner(self, u, v) -> float:
        u = as_vector(u, self.n)
        v = as_vector(v, self.n)
        return float(u @ self.gram @ v)

    def norm2(self, v) -> float:
        return self.inner(v, v)

    def flat(self, v) -> np.ndarray:
        """Lower the index: vector -> covector."""
        return self.gram @ as_vector(v, self.n)

    def sharp(self, p) -> np.ndarray:
        """Raise the index: covector -> vector."""
        return self.gram_inv @ as_vector(p, self.n)

    def classify(self, v) -> CausalClass:
        v = _unit_scale(as_vector(v, self.n))
        euclid2 = float(v @ v)
        if euclid2 == 0.0:
            raise ValueError("cannot classify the zero vector")
        q = float(v @ self.gram @ v)
        if _light_like(q, euclid2):
            return CausalClass.LIGHT_LIKE
        return CausalClass.SPACE_LIKE if q > 0.0 else CausalClass.TIME_LIKE

    def decompose(self, w, nu):
        """Split w into components tangent and normal to the hyperplane with
        normal vector nu.  Undefined when nu is light-like."""
        w = as_vector(w, self.n)
        nu = _unit_scale(as_vector(nu, self.n))
        nn = float(nu @ self.gram @ nu)
        if _light_like(nn, float(nu @ nu)):
            raise SingularNormalError("normal vector is light-like")
        normal = (float(w @ self.gram @ nu) / nn) * nu
        return w - normal, normal

    def unit(self, v) -> np.ndarray:
        """Scale v to <v,v> = +/-1; SingularNormalError for every v that
        `classify` calls light-like (the zero vector included)."""
        v = _unit_scale(as_vector(v, self.n))
        q = float(v @ self.gram @ v)
        if _light_like(q, float(v @ v)):
            raise SingularNormalError("cannot normalize a light-like vector")
        return v / np.sqrt(abs(q))

    def __repr__(self) -> str:
        k, l = self.signature
        return f"Metric(n={self.n}, signature=({k},{l}))"


@functools.lru_cache(maxsize=256)
def _shared(gram: tuple) -> Metric:
    """The one Metric of a Gram matrix given as a tuple of rows: its arrays
    are read-only, so every caller shares it."""
    return Metric(gram)


def cross2(a, b) -> float:
    """Cross product of two plane vectors: a_x b_y - a_y b_x."""
    return _cross2(as_vector(a, 2), as_vector(b, 2))


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])
