"""Index, nullity, monodromy, and the agreement of the two stability routes.

Closed forms used here: the waist of a catenoid band has curvature -1 along
the orbit, length 2 pi, and monodromy trace 2 cosh(2 pi); the equator of the
(1, 1, 1.5) spheroid has constant curvature 9/4 along the orbit, so one lap
rotates Jacobi data by 3 pi and the monodromy is exactly -I.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocount import _spectral, geometry, jacobi, loops, solver


def test_waist_length_and_curvature(waist_result, waist_report):
    assert abs(waist_result.length - 2 * np.pi) < 1e-10
    data = waist_report.data
    assert np.max(np.abs(data.b_unit + 1.0)) < 1e-12


def test_waist_monodromy_trace(waist_report):
    trace = float(np.trace(waist_report.mono.matrix))
    assert abs(trace - 2 * np.cosh(2 * np.pi)) / (2 * np.cosh(2 * np.pi)) < 1e-10
    assert waist_report.mono.det_defect < 1e-9


def test_waist_indices_vanish_for_all_covers(waist_report):
    for d in (1, 2, 3, 4):
        res = waist_report.indices[d - 1]
        assert (res.iota, res.nu) == (0, 0)
        assert waist_report.floquet_nullities[d] == 0
    assert waist_report.routes_agree


def test_floquet_nullity_ignores_hyperbolic_growth(waist_report):
    # sigma_max of M^d - I grows exponentially here; a threshold scaled by it
    # would hallucinate kernel directions that do not exist
    mono = waist_report.mono
    for d in range(1, 7):
        md = np.linalg.matrix_power(mono.matrix, d)
        assert np.linalg.norm(md - np.eye(2)) > 1e2  # genuinely hyperbolic
        assert jacobi.floquet_nullity(mono, d) == 0


def test_sphere_cover_indices(sphere_report):
    for d in (1, 2, 3, 4):
        res = sphere_report.indices[d - 1]
        assert res.iota == 2 * d - 1
        assert res.nu == 2
        assert sphere_report.floquet_nullities[d] == 2
    assert sphere_report.routes_agree


def test_spheroid_equator_antiperiodic_degeneracy(spheroid_equator, spheroid_report):
    assert abs(spheroid_equator.length - 2 * np.pi) < 1e-10
    trace = float(np.trace(spheroid_report.mono.matrix))
    assert abs(trace + 2.0) < 1e-8
    assert spheroid_report.indices[0].nu == 0
    assert spheroid_report.indices[1].nu == 2
    assert (spheroid_report.indices[0].iota, spheroid_report.indices[1].iota) == (3, 5)
    assert spheroid_report.floquet_nullities[1] == 0
    assert spheroid_report.floquet_nullities[2] == 2
    assert spheroid_report.routes_agree


def test_spheroid_equator_carries_antiperiodic_fields(spheroid_report):
    fields = spheroid_report.fields
    assert fields, "expected lambda = -1 Jacobi fields on the double cover"
    for f in fields:
        assert f.d == 2
        assert abs(f.multiplier + 1.0) < 1e-6
        assert f.residual < 1e-6


def test_ellipsoid_reports_are_super_rigid(ellipsoid_reports):
    for rep in ellipsoid_reports.values():
        assert rep.indices[0].nu == 0
        assert rep.indices[1].nu == 0
        assert rep.floquet_nullities[1] == 0
        assert rep.floquet_nullities[2] == 0
        assert rep.routes_agree
        assert all(rep.sector_checks.values())


def test_ellipsoid_index_ladder(ellipsoid_reports):
    iotas = sorted(rep.indices[0].iota for rep in ellipsoid_reports.values())
    assert iotas == [1, 2, 3]


def test_sector_sums_match_direct_covers(ellipsoid_reports, waist_report):
    for rep in list(ellipsoid_reports.values()) + [waist_report]:
        for d in (1, 2, 3):
            sectors, direct, consistent = jacobi.sector_decomposition(rep.data, d)
            assert consistent
            assert sum(s.iota for s in sectors.values()) == direct.iota
            assert sum(s.nu for s in sectors.values()) == direct.nu
            assert len(sectors) == d


def test_jacobi_report_solves_each_direct_cover_once(waist_report, monkeypatch):
    # the direct cover spectrum comes from the sector decomposition, which
    # needs it for its consistency check anyway
    degrees = []
    original = jacobi.index_nullity

    def counting(data, d=1):
        degrees.append(d)
        return original(data, d)

    monkeypatch.setattr(jacobi, "index_nullity", counting)
    jacobi.jacobi_report(waist_report.data, d_max=2)
    assert sorted(degrees) == [1, 2]


def test_eigen_gap_clears_the_kernel_threshold(ellipsoid_reports):
    for rep in ellipsoid_reports.values():
        for d in (1, 2):
            res = rep.indices[d - 1]
            tau = jacobi.kernel_threshold(rep.data, d)
            assert tau > 0.0
            assert res.eigen_gap > 10.0 * tau
            assert not res.borderline


def test_monodromy_is_area_preserving(sphere_report, spheroid_report, waist_report):
    for rep in (sphere_report, spheroid_report, waist_report):
        det = float(np.linalg.det(rep.mono.matrix))
        assert abs(det - 1.0) < 1e-8


def _tensordot_interp(data):
    """Reference: the curvature interpolant as evaluated before its
    coefficient matrix was precomputed, one tensordot per evaluation."""
    b_theta = data.speed ** 2 * data.b_unit
    coef = np.fft.fft(b_theta, axis=0) / b_theta.shape[0]
    k = _spectral.modes(b_theta.shape[0])

    def evaluate(t):
        phase = np.exp(2j * np.pi * k * t)
        if b_theta.shape[0] % 2 == 0:
            phase[b_theta.shape[0] // 2] = np.cos(np.pi * b_theta.shape[0] * t)
        return np.tensordot(phase, coef, axes=(0, 0)).real

    return evaluate


@pytest.fixture(scope="module")
def interp_operators():
    # principal-plane loops, where the curvature varies along the loop: p = 1
    # on a triaxial ellipsoid, p = 2 on a 4-axis one.  Dropping the last
    # sample gives an odd sample count.
    out = {}
    for p, axes in ((1, (1.05, 1.0, 0.95)), (2, (1.0, 1.1, 0.9, 1.2))):
        spec = geometry.MetricSpec.ellipsoid(axes)
        data = jacobi.build_operator(
            solver.refine_to_geodesic(loops.principal_ellipse(spec, 0, 1, 32)))
        assert data.normal_rank == p
        out[(p, "even")] = data
        out[(p, "odd")] = dataclasses.replace(data, b_unit=data.b_unit[:-1])
    return out


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("parity", ["even", "odd"])
@settings(max_examples=25)
@given(t=st.floats(0.0, 1.0, exclude_max=True))
def test_b_theta_interp_matches_tensordot(interp_operators, p, parity, t):
    data = interp_operators[(p, parity)]
    got = jacobi._b_theta_interp(data)(t)
    want = _tensordot_interp(data)(t)
    assert got.shape == (p, p)
    assert np.array_equal(got, want)
