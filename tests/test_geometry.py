"""Curvature, transport, and chart consistency across the three metric families."""

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geocount import geometry
from geocount.geometry import BandExitError, GeometryError, MetricSpec

CONFORMAL_TERMS = ((1, 1, 0.05), (2, 0, 0.16), (2, 2, 0.08), (3, 3, 0.03))


def _unit_points(seed=7, count=6):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _curvature_route_gap(spec, surface_points):
    """Worst disagreement between the closed-form Gauss curvature and the
    finite-difference Riemann tensor built from the analytic Christoffels."""
    worst = 0.0
    for x in surface_points:
        q, chart = geometry.chart_coords(spec, x)
        direct = geometry.gauss_curvature(spec, x[None, :])[0]
        sample = geometry.curvature_at(spec, q, chart)
        worst = max(worst, abs(direct - sample.gauss))
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


def test_curvature_routes_agree_on_conformal_sphere():
    spec = MetricSpec.conformal_sphere(CONFORMAL_TERMS)
    assert _curvature_route_gap(spec, _unit_points()) < 1e-9


def test_surface_project_is_idempotent(ellipsoid_spec):
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(8, 3))
    proj = geometry.surface_project(ellipsoid_spec, raw)
    assert np.max(np.abs(geometry.constraint(ellipsoid_spec, proj))) < 1e-12
    again = geometry.surface_project(ellipsoid_spec, proj)
    assert np.max(np.abs(again - proj)) < 1e-12


def test_tangent_projection_kills_normal_component(ellipsoid_spec):
    x = geometry.surface_project(ellipsoid_spec, np.array([0.3, -0.5, 0.7]))
    nu = geometry.unit_normal(ellipsoid_spec, x)
    assert abs(np.linalg.norm(nu) - 1.0) < 1e-12
    v = np.array([0.2, 0.9, -0.1])
    tangent = geometry.project_tangent(ellipsoid_spec, x, v)
    assert abs(float(np.dot(tangent, nu))) < 1e-12


def test_chart_round_trip(ellipsoid_spec):
    for x in _unit_points(seed=5):
        x = geometry.surface_project(ellipsoid_spec, x)
        q, chart = geometry.chart_coords(ellipsoid_spec, x)
        back = geometry.chart_point(ellipsoid_spec, q, chart)
        assert np.max(np.abs(back - x)) < 1e-10


def test_christoffel_symbols_are_symmetric(ellipsoid_spec):
    x = geometry.surface_project(ellipsoid_spec, np.array([0.4, 0.2, 0.8]))
    q, chart = geometry.chart_coords(ellipsoid_spec, x)
    gam = geometry.christoffel_at(ellipsoid_spec, q, chart)
    assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-12


def test_metric_dot_matches_speed(ellipsoid_spec):
    x = geometry.surface_project(ellipsoid_spec, np.array([0.1, 0.7, -0.4]))
    v = geometry.project_tangent(ellipsoid_spec, x, np.array([0.3, -0.2, 0.5]))
    dot = float(geometry.metric_dot(ellipsoid_spec, x, v, v))
    spd = float(geometry.speed(ellipsoid_spec, x, v))
    assert dot >= 0.0
    assert abs(spd - np.sqrt(dot)) < 1e-12


def test_holonomy_matches_latitude_angle_deficit(sphere_spec):
    # transporting around the parallel at polar angle theta turns the frame
    # by 2 pi (1 - cos theta)
    theta = 1.0
    n = 256
    ts = np.arange(n) / n
    r, z = np.sin(theta), np.cos(theta)
    nodes = np.stack(
        [r * np.cos(2 * np.pi * ts), r * np.sin(2 * np.pi * ts), np.full(n, z)], axis=1)
    v0 = np.array([np.cos(theta), 0.0, -np.sin(theta)])
    res = geometry.parallel_transport(sphere_spec, nodes, v0)
    expected = 2 * np.pi * (1 - np.cos(theta))
    assert abs(abs(res.angle) - expected) < 1e-6
    assert res.norm_drift < 1e-6
    assert res.det_defect < 1e-6


def test_parallel_transport_rejects_normal_vector(sphere_spec):
    n = 64
    ts = np.arange(n) / n
    nodes = np.stack([np.cos(2 * np.pi * ts), np.sin(2 * np.pi * ts), np.zeros(n)], axis=1)
    with pytest.raises(GeometryError):
        geometry.parallel_transport(sphere_spec, nodes, nodes[0])


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
    assert MetricSpec("ellipsoid", (1.0, 2.0, 3.0)) == MetricSpec.ellipsoid((1, 2, 3))
    assert MetricSpec.conformal_sphere(((2, 0, 0.1), (2, 0, -0.1))).data == ()


@given(c0=st.floats(2.5, 4.0), rest=st.lists(st.floats(-0.5, 0.5), max_size=4),
       n=st.integers(1, 40), stacked=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_poly_profile_matches_polyval(c0, rest, n, stacked, seed):
    # reference: what profile evaluated before it cached the derivative
    # coefficients, polyval(z, polyder(c, k)) on every call
    coeffs = (c0,) + tuple(rest)
    impl = geometry._impl(MetricSpec.revolution("poly", coeffs, (-1.0, 1.0)))
    z = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(12, n) if stacked else (n,))
    z[..., 0] = -0.0
    for order in range(3):
        got = impl.profile(z, order)
        assert len(got) == order + 1
        for k, value in enumerate(got):
            want = P.polyval(z, P.polyder(np.asarray(coeffs), k))
            assert np.array_equal(value, want)
            assert np.array_equal(np.signbit(value), np.signbit(want))
