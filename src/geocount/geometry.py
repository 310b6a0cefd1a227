"""Metric families on topological spheres and pointwise geometric operators.

Three families are supported, each presented as a constraint surface
F(x) = 0 in R^m together with an optional conformal factor:

* ``ellipsoid``: sum_j (a_j x_j)^2 = 1 with inverse semi-axes a_j > 0,
  induced metric, any ambient dimension m >= 3.
* ``revolution``: x^2 + y^2 = r(z)^2 for a profile r from a small closed
  family (polynomial, catenary, ellipse), restricted to a z band.
* ``conformal_sphere``: the round unit sphere with metric e^{2u} g_round,
  u a fixed linear combination of real solid harmonics of degree <= 3.

Everything needed in inner loops (constraint gradients, normals, conformal
gradients) is analytic and vectorized over arrays of points.  The harmonic
basis is one table of monomial coefficients, ``_HARMONICS``; each conformal
metric folds its terms into that table once, and the value, gradient and
spherical Laplacian of u are read from the folded table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PROFILE_KINDS = ("poly", "cosh", "ellipse")


class GeometryError(ValueError):
    """Invalid family parameters or a point outside a family's domain."""


class BandExitError(GeometryError):
    """A revolution-surface evaluation left the configured z band."""


# ---------------------------------------------------------------------------
# real solid harmonics, degree <= 3, unnormalized polynomial basis
# ---------------------------------------------------------------------------

# (l, m) -> {(a, b, c): coefficient of x^a y^b z^c}.  Every entry is a
# harmonic polynomial, homogeneous of degree l; m >= 0 is the cosine type,
# m < 0 the sine type.
_HARMONICS: dict[tuple[int, int], dict[tuple[int, int, int], float]] = {
    (0, 0): {(0, 0, 0): 1.0},
    (1, 0): {(0, 0, 1): 1.0},
    (1, 1): {(1, 0, 0): 1.0},
    (1, -1): {(0, 1, 0): 1.0},
    (2, 0): {(0, 0, 2): 1.0, (2, 0, 0): -0.5, (0, 2, 0): -0.5},
    (2, 1): {(1, 0, 1): 1.0},
    (2, -1): {(0, 1, 1): 1.0},
    (2, 2): {(2, 0, 0): 1.0, (0, 2, 0): -1.0},
    (2, -2): {(1, 1, 0): 1.0},
    (3, 0): {(0, 0, 3): 1.0, (2, 0, 1): -1.5, (0, 2, 1): -1.5},
    (3, 1): {(1, 0, 2): 1.0, (3, 0, 0): -0.25, (1, 2, 0): -0.25},
    (3, -1): {(0, 1, 2): 1.0, (2, 1, 0): -0.25, (0, 3, 0): -0.25},
    (3, 2): {(2, 0, 1): 1.0, (0, 2, 1): -1.0},
    (3, -2): {(1, 1, 1): 1.0},
    (3, 3): {(3, 0, 0): 1.0, (1, 2, 0): -3.0},
    (3, -3): {(2, 1, 0): 3.0, (0, 3, 0): -1.0},
}


# ---------------------------------------------------------------------------
# metric specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """Immutable, hashable description of a metric on a sphere.

    Use the classmethod constructors; ``data`` is a canonicalized tuple whose
    layout depends on the family.  Every construction, direct or through a
    classmethod, builds the family object once, which validates the
    parameters; ``impl`` holds it and takes no part in equality, hashing or
    repr.
    """

    family: str
    data: tuple
    impl: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        impl_cls = _FAMILIES.get(self.family)
        if impl_cls is None:
            raise GeometryError(f"unknown metric family {self.family!r}")
        object.__setattr__(self, "impl", impl_cls(self))

    @classmethod
    def ellipsoid(cls, axes) -> "MetricSpec":
        """Ellipsoid sum (a_j x_j)^2 = 1; ``axes`` lists the a_j."""
        return cls("ellipsoid", tuple(float(v) for v in axes))

    @classmethod
    def revolution(cls, kind: str, coeffs, z_band) -> "MetricSpec":
        """Surface of revolution around the z axis with profile radius r(z).

        kind 'poly':    r(z) = c_0 + c_1 z + ... (coefficients low to high)
        kind 'cosh':    r(z) = c_0 cosh((z - c_1) / c_0)
        kind 'ellipse': r(z) = c_0 sqrt(1 - (z / c_1)^2)

        The surface is only used on z_band = (z_lo, z_hi); evaluations
        outside a small margin raise BandExitError.
        """
        c = tuple(float(v) for v in coeffs)
        return cls("revolution", (kind, c, (float(z_band[0]), float(z_band[1]))))

    @classmethod
    def conformal_sphere(cls, terms) -> "MetricSpec":
        """Round unit sphere scaled by e^{2u}, u = sum c * Y_{l,m}.

        ``terms`` is an iterable of (l, m, coefficient) with 0 <= l <= 3 and
        |m| <= l; Y_{l,m} are the unnormalized real solid harmonics (m >= 0
        cosine type, m < 0 sine type) restricted to the unit sphere.
        Duplicate (l, m) entries are summed and zero sums dropped; an
        unsupported (l, m) is kept, so that validation rejects it.
        """
        acc: dict[tuple[int, int], float] = {}
        for item in terms:
            l, m, c = int(item[0]), int(item[1]), float(item[2])
            acc[(l, m)] = acc.get((l, m), 0.0) + c
        canon = tuple((l, m, c) for (l, m), c in sorted(acc.items())
                      if c != 0.0 or (l, m) not in _HARMONICS)
        return cls("conformal_sphere", canon)

    @property
    def ambient_dim(self) -> int:
        return self.impl.m


# ---------------------------------------------------------------------------
# family implementations (internal, one per spec)
# ---------------------------------------------------------------------------

def _dot(x, y):
    """Sum of x[..., j] * y[..., j] over the last axis, bit for bit as
    ``np.sum(x * y, axis=-1)``.

    ``np.sum`` adds an axis of fewer than 8 terms from left to right,
    starting at +0.0 (so an all -0.0 sum is +0.0).  Written out, the sum
    skips the reduction machinery, which costs most of the time on a
    length-3 axis.  Longer axes are summed pairwise, so they go through
    ``np.sum``.
    """
    m = x.shape[-1]
    if m >= 8:
        return np.sum(x * y, axis=-1)
    out = x[..., 0] * y[..., 0]
    out += 0.0
    for j in range(1, m):
        out += x[..., j] * y[..., j]
    return out


class _Ellipsoid:
    conformal = False

    def __init__(self, spec: MetricSpec):
        a = spec.data
        if len(a) < 3:
            raise GeometryError("ellipsoid needs at least 3 coefficients")
        if not all(np.isfinite(a)) or min(a) <= 0.0:
            raise GeometryError("ellipsoid coefficients must be finite and positive")
        self.a = np.asarray(a, dtype=float)
        self.m = self.a.size

    def constraint(self, x):
        ax = self.a * x
        return _dot(ax, ax) - 1.0

    def grad(self, x):
        return 2.0 * self.a ** 2 * x

    def hess(self, x):
        h = np.diag(2.0 * self.a ** 2)
        return np.broadcast_to(h, np.shape(x)[:-1] + (self.m, self.m))

    def surface_project(self, x):
        ax = self.a * x
        s = np.sqrt(_dot(ax, ax))[..., None]
        if np.any(s == 0.0):
            raise GeometryError("cannot project the origin onto the ellipsoid")
        return x / s


def _horner(c, z):
    """Polynomial with coefficients c (low to high) at z, in the order of
    operations of ``numpy.polynomial.polynomial.polyval``, so bits agree."""
    out = c[-1] + z * 0
    for ci in c[-2::-1]:
        out = ci + out * z
    return out


class _Revolution:
    conformal = False
    m = 3
    _MARGIN = 1e-9

    def __init__(self, spec: MetricSpec):
        kind, c, (lo, hi) = spec.data
        if kind not in _PROFILE_KINDS:
            raise GeometryError(f"unknown profile kind {kind!r}")
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
            raise GeometryError("z band must be a finite increasing pair")
        if kind == "cosh" and (len(c) != 2 or c[0] <= 0.0):
            raise GeometryError("cosh profile takes (scale, center) with scale > 0")
        if kind == "ellipse":
            if len(c) != 2 or c[0] <= 0.0 or c[1] <= 0.0:
                raise GeometryError("ellipse profile takes positive (equator, pole)")
            if max(abs(lo), abs(hi)) >= c[1]:
                raise GeometryError("z band must lie strictly between the poles")
        if kind == "poly" and len(c) == 0:
            raise GeometryError("poly profile needs at least one coefficient")
        self.kind = kind
        self.coeffs = np.asarray(c, dtype=float)
        self.band = (lo, hi)
        if kind == "poly":
            der = np.polynomial.polynomial.polyder
            # coefficients of r, r', r'' as numpy derives them
            self.derivs = tuple(
                tuple(der(self.coeffs, k).tolist()) for k in range(3))
        if np.min(self.profile(np.linspace(lo, hi, 257), 0)[0]) <= 0.0:
            raise GeometryError("profile radius must stay positive on the band")

    def profile(self, z, order: int):
        """Return (r, r', ..., r^(order)) at heights z (vectorized), order <= 2.

        A polynomial profile evaluates only the derivatives asked for; the
        closed-form kinds are a few ufuncs and compute all three.
        """
        z = np.asarray(z, dtype=float)
        if self.kind == "poly":
            return tuple(_horner(c, z) for c in self.derivs[:order + 1])
        if self.kind == "cosh":
            a, z0 = self.coeffs
            w = (z - z0) / a
            return (a * np.cosh(w), np.sinh(w), np.cosh(w) / a)[:order + 1]
        a, c = self.coeffs
        w = z / c
        inside = 1.0 - w * w
        if np.any(inside <= 0.0):
            raise BandExitError("height reached the poles of the ellipse profile")
        s = np.sqrt(inside)
        return (a * s, -a * w / (c * s), -a / (c * c * s ** 3))[:order + 1]

    def check_band(self, z):
        lo, hi = self.band
        pad = self._MARGIN + 1e-12 * (hi - lo)
        z = np.asarray(z)
        if np.any(z < lo - pad) or np.any(z > hi + pad):
            raise BandExitError("point left the configured z band")

    def constraint(self, x):
        z = x[..., 2]
        r = self.profile(z, 0)[0]
        return x[..., 0] ** 2 + x[..., 1] ** 2 - r ** 2

    def grad(self, x):
        z = x[..., 2]
        r, rp = self.profile(z, 1)
        g = np.empty_like(x)
        g[..., 0] = 2.0 * x[..., 0]
        g[..., 1] = 2.0 * x[..., 1]
        g[..., 2] = -2.0 * r * rp
        return g

    def hess(self, x):
        z = x[..., 2]
        r, rp, rpp = self.profile(z, 2)
        h = np.zeros(np.shape(x)[:-1] + (3, 3))
        h[..., 0, 0] = 2.0
        h[..., 1, 1] = 2.0
        h[..., 2, 2] = -2.0 * (rp * rp + r * rpp)
        return h

    def surface_project(self, x):
        # rescale the horizontal part onto the profile circle at fixed z
        z = x[..., 2]
        r = self.profile(z, 0)[0]
        rho = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
        if np.any(rho == 0.0):
            raise GeometryError("cannot project an axis point onto the surface")
        scale = (r / rho)[..., None]
        out = x.copy()
        out[..., :2] = x[..., :2] * scale
        return out


class _ConformalSphere:
    """The round sphere with metric e^{2u} g_round, u(x) = p(x / |x|) for the
    polynomial p = sum c * Y_{l,m} of the spec.

    ``__init__`` folds the spec's terms into one table: for every monomial
    y^e of p or of its gradient, the coefficients of y^e in p, in dp/dy_j
    (j = 0, 1, 2), in the Euler sum y . grad p = sum |e| c y^e, and in the
    spherical Laplacian of u, -sum |e| (|e| + 1) c y^e (exact, because every
    harmonic's monomials share its degree l).  With y = x / |x|, the ambient
    gradient of the degree-0 extension is (grad p - (y . grad p) y) / |x|.
    """

    conformal = True
    m = 3

    def __init__(self, spec: MetricSpec):
        folded: dict[tuple, float] = {}
        for l, m, c in spec.data:
            if (l, m) not in _HARMONICS:
                raise GeometryError(f"unsupported harmonic degree ({l}, {m})")
            if not np.isfinite(c):
                raise GeometryError("harmonic coefficients must be finite")
            for e, a in _HARMONICS[(l, m)].items():
                folded[e] = folded.get(e, 0.0) + c * a
        # exponent -> coefficients in p, dp/dy_0..2, y . grad p, Lap u
        rows: dict[tuple, list] = {}
        for e, c in folded.items():
            deg = sum(e)
            row = rows.setdefault(e, [0.0] * 6)
            row[0] += c
            row[4] += deg * c
            row[5] -= deg * (deg + 1) * c
            for j in range(3):
                if e[j]:
                    lower = e[:j] + (e[j] - 1,) + e[j + 1:]
                    rows.setdefault(lower, [0.0] * 6)[1 + j] += e[j] * c
        self.exps = np.array(list(rows), dtype=np.intp).reshape(-1, 3)
        self.coef = np.array(list(rows.values())).reshape(-1, 6).T

    def constraint(self, x):
        return _dot(x, x) - 1.0

    def grad(self, x):
        return 2.0 * x

    def surface_project(self, x):
        nrm = np.sqrt(_dot(x, x))[..., None]
        if np.any(nrm == 0.0):
            raise GeometryError("cannot project the origin onto the sphere")
        return x / nrm

    def _monomials(self, x):
        """The table's monomials y^e at y = x / |x|, stacked on axis 0, with
        |x| (trailing axis kept) and y."""
        r = np.sqrt(_dot(x, x))[..., None]
        y = x / r
        y2 = y * y
        powers = np.stack((np.ones_like(y), y, y2, y2 * y))
        e = self.exps
        mono = powers[e[:, 0], ..., 0] * powers[e[:, 1], ..., 1] * powers[e[:, 2], ..., 2]
        return mono, r, y

    def u_value(self, x):
        """Conformal exponent at points x, extended as degree-0 homogeneous.

        A stack of loops (..., N, m) is evaluated one loop at a time: BLAS
        sums the tail of a long matrix-vector product, and each thread's
        share of it, in another order, so a loop's bits would depend on
        where it sits in the stack.
        """
        mono = self._monomials(x)[0]
        if mono.ndim <= 2:
            return np.tensordot(self.coef[0], mono, axes=1)
        rows = mono.reshape(len(mono), -1, mono.shape[-1])
        return np.stack([np.tensordot(self.coef[0], np.ascontiguousarray(rows[:, i]), axes=1)
                         for i in range(rows.shape[1])]).reshape(mono.shape[1:])

    def u_grad(self, x):
        """Ambient gradient of the degree-0 extension; tangent on |x| = 1."""
        mono, r, y = self._monomials(x)
        dp = np.tensordot(self.coef[1:5], mono, axes=1)
        return (np.moveaxis(dp[:3], 0, -1) - dp[3][..., None] * y) / r

    def sphere_laplacian_u(self, x):
        """Exact spherical Laplacian of u: each degree-l term scales by -l(l+1)."""
        return np.tensordot(self.coef[5], self._monomials(x)[0], axes=1)


_FAMILIES = {
    "ellipsoid": _Ellipsoid,
    "revolution": _Revolution,
    "conformal_sphere": _ConformalSphere,
}


# ---------------------------------------------------------------------------
# pointwise operators
# ---------------------------------------------------------------------------

def constraint(spec: MetricSpec, x) -> np.ndarray:
    return spec.impl.constraint(np.asarray(x, dtype=float))


def constraint_grad(spec: MetricSpec, x) -> np.ndarray:
    return spec.impl.grad(np.asarray(x, dtype=float))


def constraint_hess(spec: MetricSpec, x) -> np.ndarray:
    return spec.impl.hess(np.asarray(x, dtype=float))


def unit_normal(spec: MetricSpec, x) -> np.ndarray:
    g = constraint_grad(spec, x)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def surface_project(spec: MetricSpec, x) -> np.ndarray:
    """Cheap retraction of nearby ambient points onto the surface."""
    return spec.impl.surface_project(np.asarray(x, dtype=float))


def conformal_exponent(spec: MetricSpec, x) -> np.ndarray:
    """u with metric e^{2u} (identically 0 for induced-metric families)."""
    impl = spec.impl
    x = np.asarray(x, dtype=float)
    if impl.conformal:
        return impl.u_value(x)
    return np.zeros(np.shape(x)[:-1])


def conformal_grad(spec: MetricSpec, x) -> np.ndarray:
    impl = spec.impl
    x = np.asarray(x, dtype=float)
    if impl.conformal:
        return impl.u_grad(x)
    return np.zeros_like(x)


def metric_dot(spec: MetricSpec, x, v, w) -> np.ndarray:
    """Riemannian inner product of tangent vectors v, w at x."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    dot = _dot(v, w)
    impl = spec.impl
    if impl.conformal:
        dot = dot * np.exp(2.0 * impl.u_value(np.asarray(x, dtype=float)))
    return dot


def speed(spec: MetricSpec, x, v) -> np.ndarray:
    return np.sqrt(metric_dot(spec, x, v, v))


def check_band(spec: MetricSpec, x) -> None:
    """Raise BandExitError if any point left a revolution surface's z band."""
    if spec.family == "revolution":
        spec.impl.check_band(np.asarray(x, dtype=float)[..., 2])


def gauss_curvature(spec: MetricSpec, x) -> np.ndarray:
    """Gauss curvature at surface points, by the analytic route per family.

    Induced metrics use the shape operator S = Hess F / |grad F| restricted
    to the tangent plane (K = det S); the conformal sphere uses the exact
    curvature transformation K = e^{-2u} (1 - Lap_S2 u).
    """
    x = np.asarray(x, dtype=float)
    impl = spec.impl
    if impl.conformal:
        return np.exp(-2.0 * impl.u_value(x)) * (1.0 - impl.sphere_laplacian_u(x))
    if spec.ambient_dim != 3:
        raise GeometryError("scalar Gauss curvature is only defined for surfaces")
    g = impl.grad(x)
    nu = g / np.linalg.norm(g, axis=-1, keepdims=True)
    t1, t2 = _tangent_pair(nu)
    h = impl.hess(x)
    s11 = np.einsum("...i,...ij,...j->...", t1, h, t1)
    s12 = np.einsum("...i,...ij,...j->...", t1, h, t2)
    s22 = np.einsum("...i,...ij,...j->...", t2, h, t2)
    norm_g = np.linalg.norm(g, axis=-1)
    return (s11 * s22 - s12 * s12) / norm_g ** 2


def _tangent_pair(nu):
    """Any smooth-enough orthonormal tangent pair completing unit normals nu."""
    nu = np.asarray(nu, dtype=float)
    ref = np.zeros_like(nu)
    # pick the coordinate axis least aligned with the normal, per point
    idx = np.argmin(np.abs(nu), axis=-1)
    np.put_along_axis(ref, idx[..., None], 1.0, axis=-1)
    t1 = ref - np.sum(ref * nu, axis=-1, keepdims=True) * nu
    t1 = t1 / np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(nu, t1)
    return t1, t2
