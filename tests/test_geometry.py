"""Curvature and chart consistency across the three metric families.

The chart route below (stereographic and revolution charts, analytic
Christoffel symbols, a finite-difference Riemann tensor) shares no code
with ``geometry.gauss_curvature`` and is kept here as its live oracle.
"""

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geocount import geometry
from geocount.geometry import BandExitError, GeometryError, MetricSpec

CONFORMAL_TERMS = ((1, 1, 0.05), (2, 0, 0.16), (2, 2, 0.08), (3, 3, 0.03))


# ---------------------------------------------------------------------------
# charts: the independent route to the Gauss curvature
# ---------------------------------------------------------------------------

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
    impl = spec.impl
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
    return _chart_embedding(spec, q, chart)[0]


def chart_coords(spec: MetricSpec, x, chart: int | None = None):
    """Chart coordinates of surface points; picks the covering chart if None.

    Returns (q, chart_index).
    """
    x = np.asarray(x, dtype=float)
    impl = spec.impl
    if spec.family == "revolution":
        z = x[..., 2]
        phi = np.arctan2(x[..., 1], x[..., 0])
        if chart is None:
            chart = 0 if np.all(np.abs(np.abs(phi) - np.pi) > 0.2) else 1
        if chart == 1:
            phi = np.arctan2(-x[..., 1], -x[..., 0])
        return np.stack([z, phi], axis=-1), chart
    y = impl.a * x if spec.family == "ellipsoid" else x
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
    x, jac, _ = _chart_embedding(spec, q, chart)
    g = np.einsum("...ia,...ib->...ab", jac, jac)
    impl = spec.impl
    if impl.conformal:
        g = g * np.exp(2.0 * impl.u_value(x))[..., None, None]
    return g


def christoffel_at(spec: MetricSpec, q, chart: int = 0) -> np.ndarray:
    """Christoffel symbols Gamma^a_{bc}(q), analytic, shape (..., 2, 2, 2)."""
    x, jac, hess = _chart_embedding(spec, q, chart)
    impl = spec.impl
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


def curvature_at(spec: MetricSpec, q, chart: int = 0, fd_step: float = 1e-4) -> float:
    """Gauss curvature from the Riemann tensor, by finite differences of the
    analytic Christoffels.

    R^a_{bcd} follows the convention R(e_c, e_d) e_b = R^a_{bcd} e_a.  A
    fourth-order central stencil in each chart direction differentiates the
    analytic Gamma, so the differentiation is the only numerical error.
    """
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
    return float(lowered[0, 1, 0, 1] / det)


def _unit_points(seed=7, count=6):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _curvature_route_gap(spec, surface_points):
    """Worst disagreement between the closed-form Gauss curvature and the
    finite-difference Riemann tensor built from the analytic Christoffels."""
    worst = 0.0
    for x in surface_points:
        q, chart = chart_coords(spec, x)
        direct = geometry.gauss_curvature(spec, x[None, :])[0]
        worst = max(worst, abs(direct - curvature_at(spec, q, chart)))
    return worst


def test_round_sphere_curvature_is_one(sphere_spec):
    ks = geometry.gauss_curvature(sphere_spec, _unit_points())
    assert np.allclose(ks, 1.0, atol=1e-12)


def test_curvature_routes_agree_on_ellipsoid(ellipsoid_spec):
    pts = np.array([geometry.surface_project(ellipsoid_spec, x) for x in _unit_points()])
    assert _curvature_route_gap(ellipsoid_spec, pts) < 1e-9


def test_curvature_routes_agree_on_revolution():
    spec = MetricSpec.revolution("poly", (0.8, 0.0, -0.8), (-0.6, 0.6))
    pts = []
    for x in _unit_points():
        z = 0.5 * x[2]
        r = 0.8 - 0.8 * z * z
        phi = np.arctan2(x[1], x[0])
        pts.append([r * np.cos(phi), r * np.sin(phi), z])
    assert _curvature_route_gap(spec, np.array(pts)) < 1e-9


@pytest.mark.parametrize(
    "terms",
    [((l, m, 0.1),) for l, m in sorted(geometry._HARMONICS)] + [CONFORMAL_TERMS],
    ids=[f"l{l}m{m}" for l, m in sorted(geometry._HARMONICS)] + ["mix"])
def test_curvature_routes_agree_on_conformal_sphere(terms):
    # each harmonic alone, then a mix: K = e^{-2u} (1 - Lap u) holds only if
    # every table entry is harmonic and homogeneous of degree l, and the
    # chart route differentiates u_grad
    spec = MetricSpec.conformal_sphere(terms)
    assert _curvature_route_gap(spec, _unit_points()) < 1e-9


@given(coeffs=st.lists(st.floats(-0.3, 0.3), min_size=16, max_size=16),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conformal_grad_differentiates_the_exponent(coeffs, seed):
    # off the sphere too: u is extended as degree-0 homogeneous, so its
    # gradient has no radial part
    spec = MetricSpec.conformal_sphere(
        [(l, m, c) for (l, m), c in zip(sorted(geometry._HARMONICS), coeffs)])
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, 3))
    x *= rng.uniform(0.5, 2.0, size=(8, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    grad = geometry.conformal_grad(spec, x)
    h = 1e-5
    fd = np.stack([
        (geometry.conformal_exponent(spec, x + h * e)
         - geometry.conformal_exponent(spec, x - h * e)) / (2.0 * h)
        for e in np.eye(3)], axis=-1)
    assert np.max(np.abs(grad - fd)) < 1e-7
    assert np.max(np.abs(np.sum(x * grad, axis=-1))) < 1e-13


HESSIAN_SPECS = {
    "ellipsoid": MetricSpec.ellipsoid((1.05, 1.0, 0.95)),
    "ellipsoid4": MetricSpec.ellipsoid((1.0, 1.1, 0.9, 1.2)),
    "poly": MetricSpec.revolution("poly", (0.8, 0.1, -0.8, 0.2), (-0.6, 0.6)),
    "cosh": MetricSpec.revolution("cosh", (1.0, 0.1), (-0.6, 0.6)),
    "ellipse": MetricSpec.revolution("ellipse", (1.0, 1.3), (-0.9, 0.9)),
}


@pytest.mark.parametrize("name", sorted(HESSIAN_SPECS))
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_constraint_hess_differentiates_the_gradient(name, seed):
    # the analytic Newton Jacobian rests on these Hessians
    spec = HESSIAN_SPECS[name]
    m = spec.ambient_dim
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.6, 0.6, size=(8, m))
    hess = geometry.constraint_hess(spec, x)
    assert hess.shape == (8, m, m)
    h = 1e-6
    fd = np.stack([
        (geometry.constraint_grad(spec, x + h * e)
         - geometry.constraint_grad(spec, x - h * e)) / (2.0 * h)
        for e in np.eye(m)], axis=-1)
    assert np.max(np.abs(hess - fd)) < 1e-7 * max(1.0, np.max(np.abs(hess)))


def test_surface_project_is_idempotent(ellipsoid_spec):
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(8, 3))
    proj = geometry.surface_project(ellipsoid_spec, raw)
    assert np.max(np.abs(geometry.constraint(ellipsoid_spec, proj))) < 1e-12
    again = geometry.surface_project(ellipsoid_spec, proj)
    assert np.max(np.abs(again - proj)) < 1e-12


def test_chart_round_trip(ellipsoid_spec):
    for x in _unit_points(seed=5):
        x = geometry.surface_project(ellipsoid_spec, x)
        q, chart = chart_coords(ellipsoid_spec, x)
        back = chart_point(ellipsoid_spec, q, chart)
        assert np.max(np.abs(back - x)) < 1e-10


def test_christoffel_symbols_are_symmetric(ellipsoid_spec):
    x = geometry.surface_project(ellipsoid_spec, np.array([0.4, 0.2, 0.8]))
    q, chart = chart_coords(ellipsoid_spec, x)
    gam = christoffel_at(ellipsoid_spec, q, chart)
    assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-12


def test_metric_dot_matches_speed(ellipsoid_spec):
    x = geometry.surface_project(ellipsoid_spec, np.array([0.1, 0.7, -0.4]))
    nu = geometry.unit_normal(ellipsoid_spec, x)
    w = np.array([0.3, -0.2, 0.5])
    v = w - np.dot(w, nu) * nu
    dot = float(geometry.metric_dot(ellipsoid_spec, x, v, v))
    spd = float(geometry.speed(ellipsoid_spec, x, v))
    assert dot >= 0.0
    assert abs(spd - np.sqrt(dot)) < 1e-12


def test_band_exit_raises():
    spec = MetricSpec.revolution("poly", (0.8, 0.0, -0.8), (-0.6, 0.6))
    inside = np.array([0.72, 0.0, 0.3])
    geometry.check_band(spec, inside)
    outside = np.array([0.4, 0.0, 0.7])
    with pytest.raises(BandExitError):
        geometry.check_band(spec, outside)


def test_profile_kinds_spot_values():
    cosh = MetricSpec.revolution("cosh", (1.0, 0.0), (-0.8, 0.8))
    assert abs(geometry.constraint(cosh, np.array([np.cosh(0.5), 0.0, 0.5]))) < 1e-12
    ell = MetricSpec.revolution("ellipse", (1.0, 0.8), (-0.75, 0.75))
    r_half = 1.0 * np.sqrt(1.0 - (0.5 / 0.8) ** 2)
    assert abs(geometry.constraint(ell, np.array([r_half, 0.0, 0.5]))) < 1e-12
    poly = MetricSpec.revolution("poly", (0.8, 0.0, -0.4), (-0.6, 0.6))
    r_poly = 0.8 - 0.4 * 0.25
    assert abs(geometry.constraint(poly, np.array([0.0, r_poly, 0.5]))) < 1e-12


def test_invalid_metric_parameters_raise():
    with pytest.raises(GeometryError):
        MetricSpec.ellipsoid((1.0, -1.0, 1.0))
    with pytest.raises(GeometryError):
        MetricSpec.revolution("spline", (1.0, 0.0), (-0.5, 0.5))
    with pytest.raises(GeometryError):
        # radius crosses zero inside the band
        MetricSpec.revolution("poly", (0.1, 0.0, -1.0), (-0.6, 0.6))
    with pytest.raises(GeometryError):
        MetricSpec.conformal_sphere(((5, 0, 0.1),))
    with pytest.raises(GeometryError):
        MetricSpec.conformal_sphere(((4, 0, 0.0),))
    # direct construction validates like the classmethods
    for family, data in (
            ("ellipsoid", (1.0, -1.0, 1.0)),
            ("ellipsoid", (1.0, 1.0)),
            ("revolution", ("spline", (1.0, 0.0), (-0.5, 0.5))),
            ("revolution", ("poly", (0.1, 0.0, -1.0), (-0.6, 0.6))),
            ("revolution", ("cosh", (1.0, 0.0), (0.5, -0.5))),
            ("conformal_sphere", ((4, 0, 0.1),)),
            ("conformal_sphere", ((2, 0, float("nan")),)),
            ("torus", ())):
        with pytest.raises(GeometryError):
            MetricSpec(family, data)
    direct, built = MetricSpec("ellipsoid", (1.0, 2.0, 3.0)), MetricSpec.ellipsoid((1, 2, 3))
    # each spec holds its own family object, which equality, hash and repr ignore
    assert direct == built and hash(direct) == hash(built)
    assert direct.impl is not built.impl
    assert repr(direct) == "MetricSpec(family='ellipsoid', data=(1.0, 2.0, 3.0))"
    assert MetricSpec.conformal_sphere(((2, 0, 0.1), (2, 0, -0.1))).data == ()


@given(c0=st.floats(2.5, 4.0), rest=st.lists(st.floats(-0.5, 0.5), max_size=4),
       n=st.integers(1, 40), stacked=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_poly_profile_matches_polyval(c0, rest, n, stacked, seed):
    # reference: what profile evaluated before it cached the derivative
    # coefficients, polyval(z, polyder(c, k)) on every call
    coeffs = (c0,) + tuple(rest)
    impl = MetricSpec.revolution("poly", coeffs, (-1.0, 1.0)).impl
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(12, n) if stacked else (n,))
    z[..., 0] = -0.0
    for order in range(3):
        got = impl.profile(z, order)
        assert len(got) == order + 1
        for k, value in enumerate(got):
            want = P.polyval(z, P.polyder(np.asarray(coeffs), k))
            assert np.array_equal(value, want)
            assert np.array_equal(np.signbit(value), np.signbit(want))
