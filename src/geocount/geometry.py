"""Metric families on topological spheres and pointwise geometric operators.

Three families are supported, each presented as a constraint surface
F(x) = 0 in R^m together with an optional conformal factor:

* ``ellipsoid``: sum_j (a_j x_j)^2 = 1 with inverse semi-axes a_j > 0,
  induced metric, any ambient dimension m >= 3.
* ``revolution``: x^2 + y^2 = r(z)^2 for a profile r from a small closed
  family (polynomial, catenary, ellipse), restricted to a z band.
* ``conformal_sphere``: the round unit sphere with metric e^{2u} g_round,
  u a fixed linear combination of real solid harmonics of degree <= 3.

Chart-based operators (metric, Christoffel symbols, curvature tensor) are
provided for the two-dimensional case through a pair of explicit charts per
family.  Everything needed in inner loops (constraint gradients, normals,
conformal gradients) is analytic and vectorized over arrays of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

_PROFILE_KINDS = ("poly", "cosh", "ellipse")


class GeometryError(ValueError):
    """Invalid family parameters or a point outside a family's domain."""


class BandExitError(GeometryError):
    """A revolution-surface evaluation left the configured z band."""


# ---------------------------------------------------------------------------
# real solid harmonics, degree <= 3, unnormalized polynomial basis
# ---------------------------------------------------------------------------

def _h00(x, y, z):
    return np.ones_like(x), (np.zeros_like(x),) * 3


def _h10(x, y, z):
    zero = np.zeros_like(x)
    return z, (zero, zero, np.ones_like(x))


def _h11(x, y, z):
    zero = np.zeros_like(x)
    return x, (np.ones_like(x), zero, zero)


def _h1m1(x, y, z):
    zero = np.zeros_like(x)
    return y, (zero, np.ones_like(x), zero)


def _h20(x, y, z):
    return z * z - 0.5 * (x * x + y * y), (-x, -y, 2.0 * z)


def _h21(x, y, z):
    return x * z, (z, np.zeros_like(x), x)


def _h2m1(x, y, z):
    return y * z, (np.zeros_like(x), z, y)


def _h22(x, y, z):
    return x * x - y * y, (2.0 * x, -2.0 * y, np.zeros_like(x))


def _h2m2(x, y, z):
    return x * y, (y, x, np.zeros_like(x))


def _h30(x, y, z):
    s = x * x + y * y
    return z ** 3 - 1.5 * z * s, (-3.0 * x * z, -3.0 * y * z, 3.0 * z * z - 1.5 * s)


def _h31(x, y, z):
    s = x * x + y * y
    return x * z * z - 0.25 * x * s, (
        z * z - 0.25 * (3.0 * x * x + y * y),
        -0.5 * x * y,
        2.0 * x * z,
    )


def _h3m1(x, y, z):
    s = x * x + y * y
    return y * z * z - 0.25 * y * s, (
        -0.5 * x * y,
        z * z - 0.25 * (x * x + 3.0 * y * y),
        2.0 * y * z,
    )


def _h32(x, y, z):
    return z * (x * x - y * y), (2.0 * x * z, -2.0 * y * z, x * x - y * y)


def _h3m2(x, y, z):
    return x * y * z, (y * z, x * z, x * y)


def _h33(x, y, z):
    return x ** 3 - 3.0 * x * y * y, (3.0 * (x * x - y * y), -6.0 * x * y, np.zeros_like(x))


def _h3m3(x, y, z):
    return 3.0 * x * x * y - y ** 3, (6.0 * x * y, 3.0 * (x * x - y * y), np.zeros_like(x))


_HARMONICS: dict[tuple[int, int], Callable] = {
    (0, 0): _h00,
    (1, 0): _h10, (1, 1): _h11, (1, -1): _h1m1,
    (2, 0): _h20, (2, 1): _h21, (2, -1): _h2m1, (2, 2): _h22, (2, -2): _h2m2,
    (3, 0): _h30, (3, 1): _h31, (3, -1): _h3m1, (3, 2): _h32, (3, -2): _h3m2,
    (3, 3): _h33, (3, -3): _h3m3,
}


# ---------------------------------------------------------------------------
# metric specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """Immutable, hashable description of a metric on a sphere.

    Use the classmethod constructors; ``data`` is a canonicalized tuple whose
    layout depends on the family.  Every construction, direct or through a
    classmethod, validates the parameters once.
    """

    family: str
    data: tuple

    def __post_init__(self):
        if self.family == "ellipsoid":
            a = self.data
            if len(a) < 3:
                raise GeometryError("ellipsoid needs at least 3 coefficients")
            if not all(np.isfinite(a)) or min(a) <= 0.0:
                raise GeometryError("ellipsoid coefficients must be finite and positive")
        elif self.family == "revolution":
            self._check_revolution()
        elif self.family == "conformal_sphere":
            for l, m, c in self.data:
                if (l, m) not in _HARMONICS:
                    raise GeometryError(f"unsupported harmonic degree ({l}, {m})")
                if not np.isfinite(c):
                    raise GeometryError("harmonic coefficients must be finite")
        else:
            raise GeometryError(f"unknown metric family {self.family!r}")

    def _check_revolution(self):
        kind, c, (lo, hi) = self.data
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
        zs = np.linspace(lo, hi, 257)
        if np.min(_impl(self).profile(zs, 0)[0]) <= 0.0:
            raise GeometryError("profile radius must stay positive on the band")

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
        if self.family == "ellipsoid":
            return len(self.data)
        return 3

    @property
    def surface_dim(self) -> int:
        return self.ambient_dim - 1

    def describe(self) -> str:
        if self.family == "ellipsoid":
            return "ellipsoid(" + ", ".join(f"{a:g}" for a in self.data) + ")"
        if self.family == "revolution":
            kind, c, band = self.data
            cs = ", ".join(f"{v:g}" for v in c)
            return f"revolution[{kind}]({cs}; z in [{band[0]:g}, {band[1]:g}])"
        terms = " + ".join(f"{c:g}*Y[{l},{m}]" for l, m, c in self.data)
        return f"conformal_sphere(u = {terms or '0'})"


# ---------------------------------------------------------------------------
# family implementations (internal, cached per spec)
# ---------------------------------------------------------------------------

class _Ellipsoid:
    conformal = False

    def __init__(self, spec: MetricSpec):
        self.a = np.asarray(spec.data, dtype=float)
        self.m = self.a.size

    def constraint(self, x):
        return np.sum((self.a * x) ** 2, axis=-1) - 1.0

    def grad(self, x):
        return 2.0 * self.a ** 2 * x

    def hess(self, x):
        h = np.diag(2.0 * self.a ** 2)
        return np.broadcast_to(h, np.shape(x)[:-1] + (self.m, self.m))

    def surface_project(self, x):
        s = np.sqrt(np.sum((self.a * x) ** 2, axis=-1, keepdims=True))
        if np.any(s == 0.0):
            raise GeometryError("cannot project the origin onto the ellipsoid")
        return x / s

    def to_reference(self, x):
        return self.a * x

    def from_reference(self, ref):
        return np.asarray(ref, dtype=float) / self.a


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
        kind, coeffs, band = spec.data
        self.kind = kind
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.band = band
        if kind == "poly":
            der = np.polynomial.polynomial.polyder
            # coefficients of r, r', r'' as numpy derives them
            self.derivs = tuple(
                tuple(der(self.coeffs, k).tolist()) for k in range(3))

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

    def to_reference(self, x):
        phi = np.arctan2(x[..., 1], x[..., 0])
        return np.stack([x[..., 2], phi], axis=-1)

    def from_reference(self, ref):
        ref = np.asarray(ref, dtype=float)
        z, phi = ref[..., 0], ref[..., 1]
        r = self.profile(z, 0)[0]
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


class _ConformalSphere:
    conformal = True
    m = 3

    def __init__(self, spec: MetricSpec):
        self.terms = spec.data

    def constraint(self, x):
        return np.sum(x * x, axis=-1) - 1.0

    def grad(self, x):
        return 2.0 * x

    def hess(self, x):
        return np.broadcast_to(2.0 * np.eye(3), np.shape(x)[:-1] + (3, 3))

    def surface_project(self, x):
        nrm = np.linalg.norm(x, axis=-1, keepdims=True)
        if np.any(nrm == 0.0):
            raise GeometryError("cannot project the origin onto the sphere")
        return x / nrm

    def u_value(self, x):
        """Conformal exponent at points x, extended as degree-0 homogeneous."""
        r2 = np.sum(x * x, axis=-1)
        out = np.zeros(np.shape(x)[:-1])
        for l, m, c in self.terms:
            p, _ = _HARMONICS[(l, m)](x[..., 0], x[..., 1], x[..., 2])
            out = out + c * p / r2 ** (0.5 * l)
        return out

    def u_grad(self, x):
        """Ambient gradient of the degree-0 extension; tangent on |x| = 1."""
        r2 = np.sum(x * x, axis=-1)[..., None]
        out = np.zeros_like(x, dtype=float)
        for l, m, c in self.terms:
            p, gp = _HARMONICS[(l, m)](x[..., 0], x[..., 1], x[..., 2])
            gp = np.stack(gp, axis=-1)
            out = out + c * (gp / r2 ** (0.5 * l) - l * p[..., None] * x / r2 ** (0.5 * l + 1))
        return out

    def sphere_laplacian_u(self, x):
        """Exact spherical Laplacian of u: each degree-l term scales by -l(l+1)."""
        out = np.zeros(np.shape(x)[:-1])
        r2 = np.sum(x * x, axis=-1)
        for l, m, c in self.terms:
            p, _ = _HARMONICS[(l, m)](x[..., 0], x[..., 1], x[..., 2])
            out = out - l * (l + 1) * c * p / r2 ** (0.5 * l)
        return out

    def to_reference(self, x):
        return np.asarray(x, dtype=float)

    def from_reference(self, ref):
        return np.asarray(ref, dtype=float)


@lru_cache(maxsize=128)
def _impl(spec: MetricSpec):
    if spec.family == "ellipsoid":
        return _Ellipsoid(spec)
    if spec.family == "revolution":
        return _Revolution(spec)
    return _ConformalSphere(spec)


# ---------------------------------------------------------------------------
# pointwise operators
# ---------------------------------------------------------------------------

def constraint(spec: MetricSpec, x) -> np.ndarray:
    return _impl(spec).constraint(np.asarray(x, dtype=float))


def constraint_grad(spec: MetricSpec, x) -> np.ndarray:
    return _impl(spec).grad(np.asarray(x, dtype=float))


def constraint_hess(spec: MetricSpec, x) -> np.ndarray:
    return _impl(spec).hess(np.asarray(x, dtype=float))


def unit_normal(spec: MetricSpec, x) -> np.ndarray:
    g = constraint_grad(spec, x)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def project_tangent(spec: MetricSpec, x, w) -> np.ndarray:
    """Remove the constraint-normal component of w at x."""
    nu = unit_normal(spec, x)
    w = np.asarray(w, dtype=float)
    return w - np.sum(w * nu, axis=-1, keepdims=True) * nu


def surface_project(spec: MetricSpec, x) -> np.ndarray:
    """Cheap retraction of nearby ambient points onto the surface."""
    return _impl(spec).surface_project(np.asarray(x, dtype=float))


def conformal_exponent(spec: MetricSpec, x) -> np.ndarray:
    """u with metric e^{2u} (identically 0 for induced-metric families)."""
    impl = _impl(spec)
    x = np.asarray(x, dtype=float)
    if impl.conformal:
        return impl.u_value(x)
    return np.zeros(np.shape(x)[:-1])


def conformal_grad(spec: MetricSpec, x) -> np.ndarray:
    impl = _impl(spec)
    x = np.asarray(x, dtype=float)
    if impl.conformal:
        return impl.u_grad(x)
    return np.zeros_like(x)


def metric_dot(spec: MetricSpec, x, v, w) -> np.ndarray:
    """Riemannian inner product of tangent vectors v, w at x."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    dot = np.sum(v * w, axis=-1)
    impl = _impl(spec)
    if impl.conformal:
        dot = dot * np.exp(2.0 * impl.u_value(np.asarray(x, dtype=float)))
    return dot


def speed(spec: MetricSpec, x, v) -> np.ndarray:
    return np.sqrt(metric_dot(spec, x, v, v))


def to_reference(spec: MetricSpec, x) -> np.ndarray:
    """Map surface points to family reference coordinates.

    Ellipsoids map to the unit sphere (y = a * x componentwise), revolution
    surfaces to (z, phi) pairs, conformal spheres to themselves.  Used to
    identify loops across nearby metrics of the same family.
    """
    return _impl(spec).to_reference(np.asarray(x, dtype=float))


def from_reference(spec: MetricSpec, ref) -> np.ndarray:
    return _impl(spec).from_reference(np.asarray(ref, dtype=float))


def check_band(spec: MetricSpec, x) -> None:
    """Raise BandExitError if any point left a revolution surface's z band."""
    if spec.family == "revolution":
        _impl(spec).check_band(np.asarray(x, dtype=float)[..., 2])


def gauss_curvature(spec: MetricSpec, x) -> np.ndarray:
    """Gauss curvature at surface points, by the analytic route per family.

    Induced metrics use the shape operator S = Hess F / |grad F| restricted
    to the tangent plane (K = det S); the conformal sphere uses the exact
    curvature transformation K = e^{-2u} (1 - Lap_S2 u).
    """
    x = np.asarray(x, dtype=float)
    impl = _impl(spec)
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


# ---------------------------------------------------------------------------
# charts (surfaces only)
# ---------------------------------------------------------------------------

def _require_surface(spec):
    if spec.ambient_dim != 3:
        raise GeometryError("chart operators require a two-dimensional surface")


def _stereographic(q, sign):
    """Stereographic chart of S^2: sign +1 from the south pole, -1 north."""
    q = np.asarray(q, dtype=float)
    q1, q2 = q[..., 0], q[..., 1]
    s = q1 * q1 + q2 * q2
    d = 1.0 + s
    x = np.stack([2.0 * q1 / d, 2.0 * q2 / d, sign * (1.0 - s) / d], axis=-1)
    jac = np.empty(np.shape(q)[:-1] + (3, 2))
    for b, qb in enumerate((q1, q2)):
        for a, qa in enumerate((q1, q2)):
            jac[..., a, b] = 2.0 * (1.0 if a == b else 0.0) / d - 4.0 * qa * qb / d ** 2
        jac[..., 2, b] = sign * (-4.0 * qb / d ** 2)
    hess = np.empty(np.shape(q)[:-1] + (3, 2, 2))
    qs = (q1, q2)
    for b in range(2):
        for c in range(2):
            for a in range(2):
                term = qs[c] * (a == b) + qs[b] * (a == c) + qs[a] * (b == c)
                hess[..., a, b, c] = -4.0 * term / d ** 2 + 16.0 * qs[a] * qs[b] * qs[c] / d ** 3
            hess[..., 2, b, c] = sign * (-4.0 * (b == c) / d ** 2 + 16.0 * qs[b] * qs[c] / d ** 3)
    return x, jac, hess


def _chart_embedding(spec, q, chart):
    """Embedding point, Jacobian (3,2) and second derivatives (3,2,2)."""
    impl = _impl(spec)
    q = np.asarray(q, dtype=float)
    if spec.family == "revolution":
        z, phi = q[..., 0], q[..., 1]
        if chart == 1:
            phi = phi + np.pi
        r, rp, rpp = impl.profile(z, 2)
        cp, sp = np.cos(phi), np.sin(phi)
        x = np.stack([r * cp, r * sp, z], axis=-1)
        jac = np.empty(np.shape(q)[:-1] + (3, 2))
        jac[..., 0, 0] = rp * cp
        jac[..., 1, 0] = rp * sp
        jac[..., 2, 0] = 1.0
        jac[..., 0, 1] = -r * sp
        jac[..., 1, 1] = r * cp
        jac[..., 2, 1] = 0.0
        hess = np.zeros(np.shape(q)[:-1] + (3, 2, 2))
        hess[..., 0, 0, 0] = rpp * cp
        hess[..., 1, 0, 0] = rpp * sp
        hess[..., 0, 0, 1] = hess[..., 0, 1, 0] = -rp * sp
        hess[..., 1, 0, 1] = hess[..., 1, 1, 0] = rp * cp
        hess[..., 0, 1, 1] = -r * cp
        hess[..., 1, 1, 1] = -r * sp
        return x, jac, hess
    sign = 1.0 if chart == 0 else -1.0
    y, jac, hess = _stereographic(q, sign)
    if spec.family == "ellipsoid":
        inv_a = (1.0 / impl.a).reshape((3,))
        return y * inv_a, jac * inv_a[:, None], hess * inv_a[:, None, None]
    return y, jac, hess


def chart_point(spec: MetricSpec, q, chart: int = 0) -> np.ndarray:
    """Embed chart coordinates into ambient space."""
    _require_surface(spec)
    return _chart_embedding(spec, q, chart)[0]


def chart_coords(spec: MetricSpec, x, chart: int | None = None):
    """Chart coordinates of surface points; picks the covering chart if None.

    Returns (q, chart_index).
    """
    _require_surface(spec)
    x = np.asarray(x, dtype=float)
    impl = _impl(spec)
    if spec.family == "revolution":
        z = x[..., 2]
        phi = np.arctan2(x[..., 1], x[..., 0])
        if chart is None:
            chart = 0 if np.all(np.abs(np.abs(phi) - np.pi) > 0.2) else 1
        if chart == 1:
            phi = np.arctan2(-x[..., 1], -x[..., 0])
        return np.stack([z, phi], axis=-1), chart
    y = impl.to_reference(x) if spec.family == "ellipsoid" else x
    y = np.asarray(y, dtype=float)
    if chart is None:
        chart = 0 if np.all(y[..., 2] > -0.6) else 1
    sign = 1.0 if chart == 0 else -1.0
    denom = 1.0 + sign * y[..., 2]
    if np.any(denom <= 1e-12):
        raise GeometryError("point too close to the excluded pole of the chart")
    q = np.stack([y[..., 0] / denom, y[..., 1] / denom], axis=-1)
    return q, chart


def metric_at(spec: MetricSpec, q, chart: int = 0) -> np.ndarray:
    """Metric components g_{ab}(q) in the chosen chart, shape (..., 2, 2)."""
    _require_surface(spec)
    x, jac, _ = _chart_embedding(spec, q, chart)
    g = np.einsum("...ia,...ib->...ab", jac, jac)
    impl = _impl(spec)
    if impl.conformal:
        g = g * np.exp(2.0 * impl.u_value(x))[..., None, None]
    return g


def christoffel_at(spec: MetricSpec, q, chart: int = 0) -> np.ndarray:
    """Christoffel symbols Gamma^a_{bc}(q), analytic, shape (..., 2, 2, 2)."""
    _require_surface(spec)
    x, jac, hess = _chart_embedding(spec, q, chart)
    impl = _impl(spec)
    jj = np.einsum("...ia,...ib->...ab", jac, jac)
    # dg[c, a, b] = d g_{ab} / d q_c
    dg = np.einsum("...iac,...ib->...cab", hess, jac)
    dg = dg + np.swapaxes(dg, -1, -2)
    if impl.conformal:
        w = np.exp(2.0 * impl.u_value(x))[..., None, None]
        du = np.einsum("...i,...ic->...c", impl.u_grad(x), jac)
        dg = w[..., None] * (dg + 2.0 * du[..., :, None, None] * jj[..., None, :, :])
        jj = w * jj
    ginv = np.linalg.inv(jj)
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    bracket = (
        np.einsum("...bdc->...dbc", dg)
        + np.einsum("...cdb->...dbc", dg)
        - np.einsum("...dbc->...dbc", dg)
    )
    return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, bracket)


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature data at one chart point.

    ``riemann`` holds R^a_{bcd} with the convention R(e_c, e_d) e_b =
    R^a_{bcd} e_a; ``gauss`` is the sectional curvature of the surface.
    """

    q: tuple
    chart: int
    riemann: np.ndarray
    gauss: float
    fd_step: float


def curvature_at(spec: MetricSpec, q, chart: int = 0, fd_step: float = 1e-4) -> CurvatureSample:
    """Riemann tensor from finite differences of the analytic Christoffels.

    Uses a fourth-order central stencil in each chart direction; the analytic
    Gamma makes the only numerical error the differentiation itself.
    """
    _require_surface(spec)
    q = np.asarray(q, dtype=float).reshape(2)
    h = fd_step

    def gamma(p):
        return christoffel_at(spec, p, chart)

    dgamma = np.empty((2, 2, 2, 2))  # [c, a, b, d] = d_c Gamma^a_{bd}
    for c in range(2):
        e = np.zeros(2)
        e[c] = 1.0
        dgamma[c] = (
            -gamma(q + 2 * h * e) + 8.0 * gamma(q + h * e)
            - 8.0 * gamma(q - h * e) + gamma(q - 2 * h * e)
        ) / (12.0 * h)
    gam = gamma(q)
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #           + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    riem = (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gam, gam)
        - np.einsum("ade,ecb->abcd", gam, gam)
    )
    g = metric_at(spec, q, chart)
    lowered = np.einsum("ae,ebcd->abcd", g, riem)
    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    gauss = lowered[0, 1, 0, 1] / det
    return CurvatureSample(q=tuple(q), chart=chart, riemann=riem, gauss=float(gauss), fd_step=h)


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportResult:
    """Parallel transport of a frame once around a closed loop."""

    vectors: np.ndarray          # transported copies of v0 at every node, plus closure
    holonomy: np.ndarray | None  # 2x2 rotation in the initial orthonormal frame
    angle: float | None          # rotation angle of the holonomy, in (-pi, pi]
    norm_drift: float            # worst |g-norm - 1| of the transported frame
    det_defect: float | None


def parallel_transport(spec: MetricSpec, nodes: np.ndarray, v0: np.ndarray) -> TransportResult:
    """Transport tangent vector v0 around the closed loop sampled at nodes.

    ``nodes`` has shape (N, m) and is read as a periodic unit-interval
    parametrization; the transport ODE is integrated with classical RK4 using
    trigonometric interpolation of the loop between nodes.  For surfaces the
    holonomy rotation is reported in the g-orthonormal frame (v0-hat, its
    oriented normal complement).
    """
    nodes = np.asarray(nodes, dtype=float)
    n, m = nodes.shape
    impl = _impl(spec)
    v0 = np.asarray(v0, dtype=float)
    nu0 = unit_normal(spec, nodes[0])
    if abs(float(np.dot(v0, nu0))) > 1e-8 * np.linalg.norm(v0):
        raise GeometryError("initial vector must be tangent to the surface")

    from . import _spectral

    gamma_full = np.concatenate([nodes, _spectral.fractional_shift(nodes, 0.5 / n)], axis=0)
    vel_nodes = _spectral.derivative(nodes)
    vel_full = np.concatenate([vel_nodes, _spectral.fractional_shift(vel_nodes, 0.5 / n)], axis=0)
    pts = gamma_full
    grads = impl.grad(pts)
    norms = np.linalg.norm(grads, axis=-1, keepdims=True)
    nus = grads / norms
    hesses = impl.hess(pts)
    # d(nu)/dtheta = (I - nu nu^T) Hess F gamma' / |grad F|
    hv = np.einsum("kij,kj->ki", hesses, vel_full)
    nuprime = (hv - np.sum(hv * nus, axis=-1, keepdims=True) * nus) / norms
    if impl.conformal:
        ugrads = impl.u_grad(pts)

    def rhs(idx, v):
        # idx indexes the precomputed sample tables (0..n-1 nodes, n..2n-1 midpoints)
        nu = nus[idx]
        out = -np.outer(v @ nuprime[idx], nu).reshape(v.shape) if v.ndim > 1 else -(v @ nuprime[idx]) * nu
        if impl.conformal:
            du = ugrads[idx]
            vel = vel_full[idx]
            a = vel @ du
            if v.ndim > 1:
                out = out - a * v - np.outer(v @ du, vel).reshape(v.shape) + np.outer(v @ vel, du).reshape(v.shape)
            else:
                out = out - a * v - (v @ du) * vel + (v @ vel) * du
        return out

    if m == 3:
        e1 = v0 / speed(spec, nodes[0], v0)
        e2_raw = np.cross(nu0, e1)
        e2 = e2_raw  # euclidean norm matches e1's, so g-norms agree for both families
        frame = np.stack([e1, e2], axis=0)
    else:
        frame = (v0 / speed(spec, nodes[0], v0))[None, :]

    track = np.empty((n + 1,) + v0.shape)
    track[0] = v0
    state = np.concatenate([frame, v0[None, :]], axis=0)
    h = 1.0 / n
    for i in range(n):
        k1 = rhs(i, state)
        k2 = rhs(n + i, state + 0.5 * h * k1)
        k3 = rhs(n + i, state + 0.5 * h * k2)
        k4 = rhs((i + 1) % n, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        track[i + 1] = state[-1]

    transported = state[:-1]
    x0 = nodes[0]
    norms_g = np.array([speed(spec, x0, transported[j]) for j in range(transported.shape[0])])
    norm_drift = float(np.max(np.abs(norms_g - 1.0)))
    if m == 3:
        hol = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                hol[i, j] = metric_dot(spec, x0, frame[i], transported[j])
        angle = float(np.arctan2(hol[1, 0], hol[0, 0]))
        det_defect = float(abs(hol[0, 0] * hol[1, 1] - hol[0, 1] * hol[1, 0] - 1.0))
    else:
        hol, angle, det_defect = None, None, None
    return TransportResult(
        vectors=track,
        holonomy=hol,
        angle=angle,
        norm_drift=norm_drift,
        det_defect=det_defect,
    )
