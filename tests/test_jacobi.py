"""Index, nullity, monodromy, and the agreement of the two stability routes.

Closed forms used here: the waist of a catenoid band has curvature -1 along
the orbit, length 2 pi, and monodromy trace 2 cosh(2 pi); the equator of the
(1, 1, 1.5) spheroid has constant curvature 9/4 along the orbit, so one lap
rotates Jacobi data by 3 pi and the monodromy is exactly -I.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    fields = jacobi.detect_lambda_jacobi(spheroid_report.data, 2, mono=spheroid_report.mono)
    assert fields, "expected lambda = -1 Jacobi fields on the double cover"
    for f in fields:
        assert f.d == 2
        assert abs(f.multiplier + 1.0) < 1e-6
        assert f.residual < 1e-6


def test_report_searches_no_jacobi_fields(spheroid_equator, monkeypatch):
    # the report counts kernels on both routes; fields are searched for only
    # by callers that need them, from the report's operator and monodromy
    def detect(*args, **kwargs):
        raise AssertionError("jacobi_report searched for Jacobi fields")

    monkeypatch.setattr(jacobi, "detect_lambda_jacobi", detect)
    report = jacobi.jacobi_report(spheroid_equator, d_max=2)
    assert report.floquet_nullities[2] == 2


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


def test_jacobi_report_solves_one_sector_per_multiplier(waist_report, monkeypatch):
    # the degree-4 report meets the six multipliers 1, -1, +-i and
    # exp(+-2 pi i / 3), each solved once at its reduced fraction j/d; the
    # direct covers are still solved once per degree
    sectors, degrees = [], []
    sector_original, direct_original = jacobi.sector_index_nullity, jacobi.index_nullity

    def counting_sector(data, d, j):
        sectors.append((j, d))
        return sector_original(data, d, j)

    def counting_direct(data, d=1):
        degrees.append(d)
        return direct_original(data, d)

    monkeypatch.setattr(jacobi, "sector_index_nullity", counting_sector)
    monkeypatch.setattr(jacobi, "index_nullity", counting_direct)
    report = jacobi.jacobi_report(waist_report.data, d_max=4)
    assert sorted(sectors) == [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    assert sorted(degrees) == [1, 2, 3, 4]
    assert all(report.sector_checks.values())


def test_eigen_gap_clears_the_kernel_threshold(ellipsoid_reports):
    for rep in ellipsoid_reports.values():
        for d in (1, 2):
            res = rep.indices[d - 1]
            tau = jacobi.kernel_threshold(rep.data, d)
            assert tau > 0.0
            assert res.eigen_gap > 10.0 * tau
            assert not res.borderline


def test_monodromy_is_area_preserving(sphere_report, spheroid_report, waist_report):
    # Gauss-Legendre steps are symplectic, so det M = 1 up to round-off.  The
    # waist's entries reach 1.7e3, and evaluating ad - bc of size 7e4 costs
    # its own round-off: the exactly rounded cosh/sinh matrix is 1.3e-11 off.
    for rep in (sphere_report, spheroid_report, waist_report):
        mat = rep.mono.matrix
        det = float(np.linalg.det(mat))
        floor = np.finfo(float).eps * (abs(mat[0, 0] * mat[1, 1]) + abs(mat[0, 1] * mat[1, 0]))
        assert abs(det - 1.0) < max(1e-12, 16.0 * floor)


def test_multipliers_ascend_by_real_part_then_positive_imaginary_first(
        ellipsoid_reports, waist_report):
    # a reciprocal hyperbolic pair prints small then large, a conjugate
    # elliptic pair +imag then -imag, whatever order eigvals returned
    for rep in list(ellipsoid_reports.values()) + [waist_report]:
        mult = rep.mono.multipliers
        keys = [(m.real, -m.imag) for m in mult]
        assert keys == sorted(keys)


def _b_theta_interp(data):
    """Reference: the trigonometric interpolant t -> speed^2 B(t) that the
    adaptive monodromy integration evaluated, one (1, N) phase row times the
    (N, p^2) coefficient matrix per evaluation."""
    b_theta = data.speed ** 2 * data.b_unit
    n, p = b_theta.shape[0], b_theta.shape[1]
    coef = (np.fft.fft(b_theta, axis=0) / n).reshape(n, p * p)
    freq = (2j * np.pi * _spectral.modes(n)).reshape(1, n)

    def evaluate(t):
        phase = np.exp(freq * t)
        if n % 2 == 0:
            phase[0, n // 2] = np.cos(np.pi * n * t)
        return np.dot(phase, coef).reshape(p, p).real

    return evaluate


def _dop853_fundamental(data, t_eval=None, rtol=1e-13, atol=1e-14):
    """Reference: the 2p x 2p fundamental solution of zeta'' = -speed^2 B
    zeta by adaptive DOP853 on the interpolant, at 1 and at ``t_eval``."""
    p = data.normal_rank
    beval = _b_theta_interp(data)

    def rhs(t, y):
        yy = y.reshape(2 * p, 2 * p)
        return np.concatenate([yy[p:], -beval(t % 1.0) @ yy[:p]]).reshape(-1)

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, 1.0), np.eye(2 * p).reshape(-1), method="DOP853",
        rtol=rtol, atol=atol, t_eval=t_eval)
    assert sol.success
    return np.moveaxis(sol.y, -1, 0).reshape(-1, 2 * p, 2 * p)


def _dop853_field(data, vec, rtol=1e-12, atol=1e-12):
    """Reference: the node values of the Jacobi field with initial data
    ``vec``, integrated as stacked real and imaginary parts."""
    p = data.normal_rank
    beval = _b_theta_interp(data)

    def rhs_c(t, y):
        zr = y[:p] + 1j * y[p:2 * p]
        dw = -(beval(t % 1.0) @ zr)
        return np.concatenate([y[2 * p:3 * p], y[3 * p:], dw.real, dw.imag])

    y0 = np.concatenate([vec[:p].real, vec[:p].imag, vec[p:].real, vec[p:].imag])
    sol = scipy.integrate.solve_ivp(
        rhs_c, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=atol,
        t_eval=np.arange(data.b_unit.shape[0]) / data.b_unit.shape[0])
    assert sol.success
    return (sol.y[:p] + 1j * sol.y[p:2 * p]).T


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
    got = _b_theta_interp(data)(t)
    want = _tensordot_interp(data)(t)
    assert got.shape == (p, p)
    assert np.array_equal(got, want)


@st.composite
def _band_limited_curvature(draw):
    """Curvature samples their mesh resolves: symmetric p x p Fourier modes
    up to max(1, N / 32), scaled to |B| <= 1, at a speed of at most
    pi N / 32, so a Jacobi field oscillates over at least 64 samples."""
    n = draw(st.sampled_from([16, 32, 64, 128]))
    p = draw(st.sampled_from([1, 2]))
    top = max(1, n // 32)
    coef = draw(hnp.arrays(np.float64, (2 * top + 1, p, p),
                           elements=st.floats(-1.0, 1.0)))
    t = np.arange(n) / n
    waves = 2.0 * np.pi * np.outer(t, np.arange(1, top + 1))
    basis = np.concatenate([np.ones((n, 1)), np.cos(waves), np.sin(waves)], axis=1)
    b = np.tensordot(basis, coef + np.swapaxes(coef, 1, 2), axes=(1, 0))
    speed = draw(st.floats(0.5, np.pi * n / 32))
    return _curvature_only(speed, b / max(1.0, float(np.max(np.abs(b)))))


def _omega(p):
    return np.block([[np.zeros((p, p)), np.eye(p)], [-np.eye(p), np.zeros((p, p))]])


@settings(max_examples=30)
@given(data=_band_limited_curvature())
def test_monodromy_matches_the_adaptive_reference(data):
    n, p = data.b_unit.shape[0], data.normal_rank
    mono = jacobi.monodromy(data)
    ref = _dop853_fundamental(data, t_eval=np.append(np.arange(n) / n, 1.0))
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(mono.matrix - ref[-1])) <= 1e-10 * scale
    assert np.max(np.abs(mono.fundamental - ref[:-1])) <= 1e-10 * scale
    m = mono.matrix
    defect = m.T @ _omega(p) @ m - _omega(p)
    assert np.max(np.abs(defect)) <= 1e-12 * max(1.0, float(np.max(np.abs(m)))) ** 2


@settings(max_examples=30)
@given(data=_band_limited_curvature(), edge=st.floats(-1.0, 1.0), odd=st.booleans())
def test_gauss_node_curvature_matches_the_interpolant(data, edge, odd):
    # the alternating term is the even-N Nyquist cosine; dropping the last
    # sample leaves odd-N samples with content in every mode
    n, p = data.b_unit.shape[0], data.normal_rank
    b_unit = data.b_unit + edge * (-1.0) ** np.arange(n)[:, None, None] * np.eye(p)
    data = dataclasses.replace(data, b_unit=b_unit[:-1] if odd else b_unit)
    # the curvature the monodromy's stage equations read
    steps = 2 * data.b_unit.shape[0]
    got = _spectral.shifted_grids(data.speed ** 2 * data.b_unit, steps, jacobi._GL_C)
    beval = _b_theta_interp(data)
    t = (np.arange(steps)[None, :] + jacobi._GL_C[:, None]) / steps
    want = np.array([[beval(x) for x in row] for row in t])
    assert got.shape == want.shape == (3, steps, data.normal_rank, data.normal_rank)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("k", [1.0, 2.25, -1.0, 0.0])
def test_constant_curvature_monodromy_is_closed_form(k):
    # rotation for k > 0, boost for k < 0, shear for k = 0, at every node
    n, speed = 128, 2.0 * np.pi
    mono = jacobi.monodromy(_curvature_only(speed, np.full((n, 1, 1), k)))
    w = speed * np.sqrt(abs(k))
    t = np.append(np.arange(n) / n, 1.0)
    if k > 0:
        c, s, ws = np.cos(w * t), np.sin(w * t) / w, -w * np.sin(w * t)
    elif k < 0:
        c, s, ws = np.cosh(w * t), np.sinh(w * t) / w, w * np.sinh(w * t)
    else:
        c, s, ws = np.ones_like(t), t, np.zeros_like(t)
    want = np.stack([np.stack([c, s], -1), np.stack([ws, c], -1)], 1)
    got = np.concatenate([mono.fundamental, mono.matrix[None]])
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, float(np.max(np.abs(want))))


def test_fields_match_the_adaptive_integration(sphere_report, spheroid_report,
                                               interp_operators):
    # every multiplier is selected by an infinite window, so the p = 2 and
    # odd-N operators contribute complex and hyperbolic eigenvectors too
    cases = [(sphere_report.data, 4, 1e-6), (spheroid_report.data, 2, 1e-6),
             (interp_operators[(2, "even")], 1, np.inf),
             (interp_operators[(1, "odd")], 2, np.inf)]
    for data, d, unit_tol in cases:
        mono = jacobi.monodromy(data)
        fields = jacobi.detect_lambda_jacobi(data, d, mono=mono, unit_tol=unit_tol)
        vals, vecs = np.linalg.eig(mono.matrix)
        sel = [i for i in range(vals.size) if abs(vals[i] ** d - 1.0) < unit_tol]
        assert len(fields) == len(sel) > 0
        for field, i in zip(fields, sel):
            base = _dop853_field(data, vecs[:, i])
            want = np.concatenate([base * vals[i] ** k for k in range(d)])
            scale = max(1.0, float(np.max(np.abs(want))))
            assert field.multiplier == complex(vals[i])
            assert np.max(np.abs(field.xi - want.real)) <= 1e-10 * scale
            if field.twin is None:   # dropped as insignificant
                assert np.max(np.abs(want.imag)) <= 1e-8 * scale
            else:
                assert np.max(np.abs(field.twin - want.imag)) <= 1e-10 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_monodromy_rejects_non_finite_curvature(sphere_report, bad):
    # 1e308 is finite, but speed^2 times it overflows inside the propagator
    b_unit = sphere_report.data.b_unit.copy()
    b_unit[5] = bad
    data = dataclasses.replace(sphere_report.data, b_unit=b_unit)
    with np.errstate(all="ignore"), pytest.raises(jacobi.JacobiError):
        jacobi.monodromy(data)
    with np.errstate(all="ignore"), pytest.raises(jacobi.JacobiError):
        jacobi.jacobi_report(data, d_max=1)


def _fourier_cover_form(data, d):
    """Reference: the direct cover form as assembled before it moved to the
    nodal basis, a complex Hermitian matrix in the Fourier basis."""
    p = data.normal_rank
    bc = jacobi._cover_curvature(data, d)
    mm = bc.shape[0]
    bhat = np.fft.fft(bc, axis=0) / mm
    k = _spectral.modes(mm)
    idx = (k[:, None] - k[None, :]).astype(int) % mm
    h = bhat[idx]
    h = np.transpose(h, (0, 2, 1, 3)).reshape(mm * p, mm * p)
    h = h + np.kron(np.diag(-((2.0 * np.pi * k) ** 2)), np.eye(p))
    return 0.5 * (h + h.conj().T)


def _curvature_only(speed, b_unit):
    # the forms read only speed and b_unit
    return jacobi.JacobiOperatorData(
        spec=None, loop=None, speed=speed, b_unit=b_unit, frame=None, tangent=None)


@st.composite
def _curvature_samples(draw, ranks=(1, 2), symmetric=True):
    n = draw(st.sampled_from([16, 20, 32, 48]))
    p = draw(st.sampled_from(ranks))
    raw = draw(hnp.arrays(np.float64, (n, p, p),
                          elements=st.floats(-50.0, 50.0, allow_subnormal=False)))
    speed = draw(st.floats(0.5, 8.0))
    return _curvature_only(speed, 0.5 * (raw + np.swapaxes(raw, 1, 2)) if symmetric else raw)


@settings(max_examples=60)
@given(data=_curvature_samples(), d=st.integers(1, 4))
def test_nodal_cover_form_matches_the_fourier_form(data, d):
    h = jacobi.quadratic_form_matrix(data, d)
    n, p = data.b_unit.shape[0], data.normal_rank
    assert h.dtype == np.float64
    assert h.shape == (d * n * p, d * n * p)
    assert np.array_equal(h, h.T)
    ev = np.linalg.eigvalsh(h)
    ref = np.linalg.eigvalsh(_fourier_cover_form(data, d))
    assert np.max(np.abs(ev - ref)) <= 1e-12 * np.max(np.abs(ref))


def _symmetrised_nodal_cover_form(data, d):
    """Reference: the nodal cover form assembled unsymmetrised, then
    symmetrised as a whole matrix."""
    bc = jacobi._cover_curvature(data, d)
    mm, p = bc.shape[0], bc.shape[1]
    c = np.fft.ifft(-((2.0 * np.pi * _spectral.modes(mm)) ** 2)).real
    nodes = np.arange(mm)
    circ = c[(nodes[:, None] - nodes[None, :]) % mm]
    h = circ if p == 1 else np.kron(circ, np.eye(p))
    h4 = h.reshape(mm, p, mm, p)
    h4[nodes, :, nodes, :] += bc
    return 0.5 * (h + h.T)


@pytest.mark.parametrize("p", [1, 2, 3])
@settings(max_examples=30)
@given(draw=st.data(), d=st.integers(1, 4))
def test_nodal_cover_form_has_the_bits_of_the_symmetrised_assembly(p, draw, d):
    # symmetrising the circulant's sequence and the diagonal blocks must give
    # the matrix bit for bit, also for curvature blocks that are not symmetric
    data = draw.draw(_curvature_samples(ranks=(p,), symmetric=False))
    assert np.array_equal(jacobi.quadratic_form_matrix(data, d),
                          _symmetrised_nodal_cover_form(data, d))


def _symmetrised_sector_form(data, d, lam):
    """Reference: the sector form assembled unsymmetrised, with a dense
    Kronecker product for its diagonal, then symmetrised as a whole matrix."""
    p = data.normal_rank
    bc = data.speed ** 2 * data.b_unit
    mm = bc.shape[0]
    bhat = np.fft.fft(bc, axis=0) / mm
    k = _spectral.modes(mm)
    alpha = math.atan2(lam.imag, lam.real) / (2.0 * math.pi)
    idx = (k[:, None] - k[None, :]).astype(int) % mm
    h = np.transpose(bhat[idx], (0, 2, 1, 3)).reshape(mm * p, mm * p)
    h = h + np.kron(np.diag(-((2.0 * np.pi * (k + alpha)) ** 2)), np.eye(p))
    h = float(d * d) * h
    return 0.5 * (h + h.conj().T)


def _sector_forms_match_the_symmetrised_assembly(data, d):
    for j in range(d):
        lam = complex(math.cos(2.0 * math.pi * j / d), math.sin(2.0 * math.pi * j / d))
        assert np.array_equal(jacobi.quadratic_form_matrix(data, d, sector=lam),
                              _symmetrised_sector_form(data, d, lam))


@pytest.mark.parametrize("p", [1, 2, 3])
@settings(max_examples=30)
@given(draw=st.data(), d=st.integers(1, 4))
def test_sector_form_has_the_bits_of_the_symmetrised_assembly(p, draw, d):
    # every multiplier of degree d, also for curvature blocks that are not
    # symmetric
    _sector_forms_match_the_symmetrised_assembly(
        draw.draw(_curvature_samples(ranks=(p,), symmetric=False)), d)


def test_sector_forms_of_a_report_have_the_bits_of_the_symmetrised_assembly(waist_report):
    for d in (1, 2, 3, 4):
        _sector_forms_match_the_symmetrised_assembly(waist_report.data, d)


def test_nodal_cover_indices_match_the_fourier_form(
        sphere_report, spheroid_report, waist_report, ellipsoid_reports):
    # the sphere (nu = 2 for every d) and the spheroid's double cover (nu = 2)
    # put kernels on the threshold's inside; the waist and ellipsoid have none
    reports = [sphere_report, spheroid_report, waist_report,
               *ellipsoid_reports.values()]
    for rep in reports:
        for d in (1, 2, 3, 4):
            got = jacobi.index_nullity(rep.data, d)
            want = jacobi._index_result(
                rep.data, d, np.linalg.eigvalsh(_fourier_cover_form(rep.data, d)))
            assert (got.iota, got.nu) == (want.iota, want.nu)
            assert abs(got.eigen_gap - want.eigen_gap) <= 1e-9 * want.eigen_gap


def _principal_loops(spec, mesh=64):
    return {
        (i, j): solver.refine_to_geodesic(loops.principal_ellipse(spec, i, j, mesh))
        for i, j in ((0, 1), (0, 2), (1, 2))
    }


def _cover_indices(result, d_max=3):
    data = jacobi.build_operator(result)
    return [(r.iota, r.nu) for r in
            (jacobi.index_nullity(data, d) for d in range(1, d_max + 1))]


@pytest.fixture(scope="module")
def principal_reference(ellipsoid_spec):
    return {key: (res.length, _cover_indices(res))
            for key, res in _principal_loops(ellipsoid_spec).items()}


@settings(max_examples=4)
@given(scale=st.floats(0.5, 2.0))
def test_scaled_ellipsoid_scales_lengths_and_keeps_indices(
        ellipsoid_spec, principal_reference, scale):
    # the surface is sum (a_j x_j)^2 = 1, so scaling every a_j by lambda
    # shrinks it by lambda: lengths divide by lambda and indices stay put
    spec = geometry.MetricSpec.ellipsoid([scale * a for a in ellipsoid_spec.data])
    for key, res in _principal_loops(spec).items():
        length, indices = principal_reference[key]
        assert abs(res.length - length / scale) <= 1e-9 * length / scale
        assert _cover_indices(res) == indices


@pytest.fixture(scope="module")
def census_reference(ellipsoid_spec):
    return _census_lengths_and_iotas(
        solver.find_all(ellipsoid_spec, 7.0, mesh=64, planes=24, seed=7))


def _census_lengths_and_iotas(census):
    return sorted(
        (e.result.length, jacobi.index_nullity(jacobi.build_operator(e.result), 1).iota)
        for e in census.entries)


@settings(max_examples=3)
@given(order=st.permutations(range(3)))
def test_permuted_ellipsoid_axes_give_the_same_census(
        ellipsoid_spec, census_reference, order):
    spec = geometry.MetricSpec.ellipsoid([ellipsoid_spec.data[i] for i in order])
    got = _census_lengths_and_iotas(solver.find_all(spec, 7.0, mesh=64, planes=24, seed=7))
    assert len(got) == len(census_reference) == 3
    for (ell, iota), (ell_ref, iota_ref) in zip(got, census_reference):
        assert abs(ell - ell_ref) <= 1e-9 * ell_ref
        assert iota == iota_ref


def _forms_of_degree(data, d):
    """The nodal cover form of degree d and every sector form of the degree."""
    yield jacobi.quadratic_form_matrix(data, d)
    for j in range(d):
        lam = complex(math.cos(2.0 * math.pi * j / d), math.sin(2.0 * math.pi * j / d))
        yield jacobi.quadratic_form_matrix(data, d, sector=lam)


@pytest.mark.parametrize("p", [1, 2, 3])
@settings(max_examples=20)
@given(draw=st.data(), d=st.integers(1, 4))
def test_in_place_eigensolve_has_the_bits_of_eigvalsh(p, draw, d):
    # numpy and scipy bundle different OpenBLAS builds; the index counts must
    # not depend on which of them solves a form
    data = draw.draw(_curvature_samples(ranks=(p,)))
    for h in _forms_of_degree(data, d):
        want = np.linalg.eigvalsh(h)
        got = jacobi._eigvalsh(h)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("sector", [None, 1j])
def test_in_place_eigensolve_overwrites_its_form(waist_report, sector):
    h = jacobi.quadratic_form_matrix(waist_report.data, 2, sector=sector)
    before = h.copy()
    ev = jacobi._eigvalsh(h)
    assert np.array_equal(ev, np.linalg.eigvalsh(before))
    assert not np.array_equal(h, before)


def test_direct_cover_solve_holds_one_form_buffer(ellipsoid_spec):
    # the degree-4 form of a 256-node loop is 1024^2 doubles and a sector's
    # form 256^2 complex numbers; neither assembly builds an index array of
    # that size and neither solve makes a copy of it
    data = jacobi.build_operator(
        solver.refine_to_geodesic(loops.principal_ellipse(ellipsoid_spec, 0, 1, 256)))
    cases = [(lambda: jacobi.index_nullity(data, 4), 4 * 256, 8),
             (lambda: jacobi.sector_index_nullity(data, 4, 1), 256, 16)]
    for solve, size, itemsize in cases:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            res = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.eigenvalues.shape == (size,)
        assert peak < 1.25 * size ** 2 * itemsize, (size, peak / (size ** 2 * itemsize))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_form_raises_linalg_error(sphere_report, bad):
    b_unit = sphere_report.data.b_unit.copy()
    b_unit[5] = bad
    data = dataclasses.replace(sphere_report.data, b_unit=b_unit)
    with np.errstate(all="ignore"):
        for sector in (None, -1.0):
            with pytest.raises(np.linalg.LinAlgError):
                jacobi._eigvalsh(jacobi.quadratic_form_matrix(data, 2, sector=sector))
        with pytest.raises(np.linalg.LinAlgError):
            jacobi.index_nullity(data, 2)


@settings(max_examples=40)
@given(data=_curvature_samples(ranks=(1, 2, 3)), d=st.integers(1, 4))
def test_kernel_threshold_has_the_bits_of_the_tiled_cover(data, d):
    tiled = max(1.0, float(np.max(np.abs(jacobi._cover_curvature(data, d)))))
    assert np.array_equal(jacobi.kernel_threshold(data, d), jacobi.KERNEL_SCALE * tiled)


def test_index_parity_matches_the_monodromy_trace(ellipsoid_reports, waist_report):
    # p = 1 and det M = 1, so det(M^d - I) = 2 - tr M^d: the parity of every
    # nondegenerate index is sign(tr M^d - 2), here up to d = 4 on every class
    reports = list(ellipsoid_reports.values()) + [waist_report]
    for rep in reports:
        for d in (1, 2, 3, 4):
            assert jacobi.floquet_nullity(rep.mono, d) == 0
            iota = jacobi.index_nullity(rep.data, d).iota
            trace = float(np.trace(np.linalg.matrix_power(rep.mono.matrix, d)))
            assert (-1) ** iota == np.sign(trace - 2.0)
            assert jacobi._parity_agrees(rep.mono, iota, d)
            assert not jacobi._parity_agrees(rep.mono, iota + 1, d)
        assert rep.routes_agree


def test_report_disagrees_when_the_parity_does(waist_report, monkeypatch):
    # -M keeps every Floquet nullity of the waist at 0 but flips the sign of
    # det(M - I), so only the parity check can tell
    mono = dataclasses.replace(waist_report.mono, matrix=-waist_report.mono.matrix)
    monkeypatch.setattr(jacobi, "monodromy", lambda data: mono)
    report = jacobi.jacobi_report(waist_report.data, d_max=1)
    assert report.floquet_nullities[1] == 0 == report.indices[0].nu
    assert report.sector_checks[1]
    assert not report.routes_agree
