"""Second-variation analysis along closed geodesics.

Two independent computational routes are kept deliberately separate:

* spectral quadratic forms: the index form of the d-fold cover is a real
  symmetric matrix at the cover's nodes, a circulant spectral second
  difference plus the block diagonal of the curvature samples; eigenvalue
  counts above/inside a threshold give index and nullity.  Each Floquet
  sector is a complex Hermitian form in the Fourier basis, where the
  derivative term is diagonal and the curvature term a (block) circulant
  built from the FFT of the curvature samples.  The two assemblies share no
  code, and the direct cover spectrum must equal the union of its sector
  spectra exactly.  A sector's form depends on the degree only through a
  d^2 scale (Bott's iteration formula), so a report solves one sector
  spectrum per multiplier and counts every degree's sectors from it, while
  each degree's direct cover is still assembled and solved on its own.
  Each form is one dense buffer, which the private ``_eigvalsh`` solves in
  place, overwriting it; both circulants are filled from strided windows,
  with no index array of the form's size.  ``quadratic_form_matrix`` still
  returns a matrix that its caller owns.
* Floquet monodromy: symplectic Gauss-Legendre collocation of the Jacobi
  system over one primitive period gives the linearized return map and the
  fundamental solution at the nodes; kernel dimensions of M^d - I recover
  nullities with no spectral truncation, the sign of det(M^d - I) gives the
  parity of every nondegenerate index, and unit-root eigenvectors carried
  by the fundamental solution are the quasi-periodic Jacobi fields.

Agreement between the routes is the package's main internal consistency
check and is exposed in the report rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack, _spectral, geometry, loops, solver
from .geometry import MetricSpec
from .loops import DiscreteLoop

KERNEL_SCALE = 1e-6


class JacobiError(RuntimeError):
    """The loop is unsuitable for second-variation analysis."""


@dataclass(frozen=True)
class JacobiOperatorData:
    """Curvature term and normal frame of the Jacobi operator along a loop.

    ``b_unit`` stores the unit-speed curvature matrix B(theta) with shape
    (N, p, p): for surfaces it is the Gauss curvature along the loop, in
    general the sectional-curvature matrix in the parallel normal frame.  The
    unit-interval operator acting on normal coordinates is
    zeta'' + speed^2 B(theta) zeta.
    """

    spec: MetricSpec
    loop: DiscreteLoop
    speed: float
    b_unit: np.ndarray       # (N, p, p)
    frame: np.ndarray        # (N, p, ambient_dim), g-orthonormal, parallel
    tangent: np.ndarray      # (N, ambient_dim), euclidean-unit tangents

    @property
    def normal_rank(self) -> int:
        return self.b_unit.shape[1]


def build_operator(result: solver.GeodesicResult) -> JacobiOperatorData:
    """Assemble the Jacobi data along the loop of a refinement result.

    A loop with a visibly nonzero residual is rejected, since the second
    variation is only meaningful at a critical point.
    """
    loop = result.loop
    spec = loop.metric
    res, fdef, _ = solver._scaled_residual(spec, loop.nodes)
    if res > 1e-6 or fdef > 1e-8:
        raise JacobiError(f"loop residual {res:.2e} is too large for a geodesic")
    nodes = loop.nodes
    n, m = nodes.shape
    vel = _spectral.derivative(nodes)
    tangent = vel / np.linalg.norm(vel, axis=1, keepdims=True)
    ell = loops.length(loop)

    if m == 3:
        nu = geometry.unit_normal(spec, nodes)
        n_e = np.cross(nu, tangent)
        n_e = n_e / np.linalg.norm(n_e, axis=1, keepdims=True)
        if spec.family == "conformal_sphere":
            u = geometry.conformal_exponent(spec, nodes)
            frame = (np.exp(-u)[:, None] * n_e)[:, None, :]
        else:
            frame = n_e[:, None, :]
        b = geometry.gauss_curvature(spec, nodes).reshape(n, 1, 1)
        return JacobiOperatorData(spec, loop, ell, b, frame, tangent)

    # higher-dimensional ellipsoids: only principal-plane geodesics carry a
    # closed-form parallel frame (the untouched coordinate directions)
    spread = np.max(np.abs(nodes), axis=0)
    active = np.where(spread > 1e-9)[0]
    if active.size != 2:
        raise JacobiError(
            "normal frames above dimension 3 require principal-plane loops")
    passive = [j for j in range(m) if j not in set(active)]
    frame = np.zeros((n, len(passive), m))
    for idx, j in enumerate(passive):
        frame[:, idx, j] = 1.0
    hess = geometry.constraint_hess(spec, nodes)
    gnorm = np.linalg.norm(geometry.constraint_grad(spec, nodes), axis=1)

    def sform(a, bvec):
        return np.einsum("ni,nij,nj->n", a, hess, bvec) / gnorm

    p = len(passive)
    b = np.empty((n, p, p))
    s_tt = sform(tangent, tangent)
    for l in range(p):
        s_lt = sform(frame[:, l, :], tangent)
        for k in range(p):
            s_lk = sform(frame[:, l, :], frame[:, k, :])
            s_tk = sform(tangent, frame[:, k, :])
            b[:, l, k] = s_tt * s_lk - s_lt * s_tk
    return JacobiOperatorData(spec, loop, ell, b, frame, tangent)


# ---------------------------------------------------------------------------
# spectral quadratic forms
# ---------------------------------------------------------------------------

def _cover_curvature(data: JacobiOperatorData, d: int) -> np.ndarray:
    """d^2-scaled curvature samples of the d-cover on its own unit interval."""
    b_theta = data.speed ** 2 * data.b_unit
    return d * d * np.tile(b_theta, (d, 1, 1))


def _nodal_cover_form(data: JacobiOperatorData, d: int) -> np.ndarray:
    """Real symmetric matrix of the (negated) d-cover index form at the nodes.

    H = C (x) I_p + blockdiag(B_c(theta_i)) over the dN cover nodes, where C
    is the real circulant spectral second difference: C[i, j] = c[(i - j)
    mod dN] with c the inverse FFT of -(2 pi k)^2.  Conjugating by the
    unitary DFT gives the Fourier-basis form, so the spectra agree.

    The matrix is one (dN p)^2 buffer: row i of C is a window of the doubled,
    reversed sequence, so the circulant is a strided view of 2 dN numbers and
    no index array of its size is built.
    """
    bc = _cover_curvature(data, d)
    mm, p = bc.shape[0], bc.shape[1]
    c = np.fft.ifft(-((2.0 * np.pi * _spectral.modes(mm)) ** 2)).real
    nodes = np.arange(mm)
    # symmetrised sequence and diagonal blocks: the same bits as symmetrising
    # the assembled matrix, without the extra (dN p)^2 pass
    cs = 0.5 * (c + c[-nodes % mm])
    # window s of the reversed doubled sequence holds cs[(mm - 1 - s - j) mod
    # mm] at j, which is row mm - 1 - s of C
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(cs, 2)[::-1], mm)
    circ = windows[mm - 1::-1]
    h = np.empty((mm * p, mm * p))
    h4 = h.reshape(mm, p, mm, p)
    # the products of np.kron(circ, np.eye(p)), signed zeros included
    np.multiply(circ[:, None, :, None], np.eye(p)[None, :, None, :], out=h4)
    h4[nodes, :, nodes, :] += 0.5 * (bc + np.swapaxes(bc, 1, 2))
    return h


def quadratic_form_matrix(data: JacobiOperatorData, d: int, sector: complex | None = None):
    """Matrix of the (negated) index form of the d-cover or of one sector.

    With ``sector=None`` the form lives on the full d-cover and is the real
    symmetric nodal matrix of ``_nodal_cover_form``, shape (dN p, dN p).
    With ``sector=lambda`` (a unit-modulus multiplier) it is the complex
    Hermitian form in the Fourier basis on fields over the primitive period
    twisted by z(theta+1) = lambda z(theta): the derivative term is diagonal
    and the curvature a block circulant of the FFT of its samples.  The d^2
    scaling keeps sector and cover spectra identical, so the cover spectrum
    is the exact union of its d sector spectra; the two routes share no
    assembly code, so that union is a live check.

    Positive eigenvalues are negative directions of the index form, so the
    Morse index is the count above +tau and the nullity the count inside
    [-tau, tau].

    Either form is one freshly assembled buffer that the caller owns.  The
    index routes hand it straight to ``_eigvalsh``, which solves it in place
    and leaves it overwritten; a caller that needs the matrix afterwards
    solves a copy.
    """
    if sector is None:
        return _nodal_cover_form(data, d)
    p = data.normal_rank
    lam = complex(sector)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise ValueError("sector multiplier must lie on the unit circle")
    bc = data.speed ** 2 * data.b_unit
    mm = bc.shape[0]
    bhat = np.fft.fft(bc, axis=0) / mm
    k = _spectral.modes(mm)
    alpha = math.atan2(lam.imag, lam.real) / (2.0 * math.pi)
    # Hermitian-symmetrised sequence and block diagonal: the same bits as
    # symmetrising the assembled matrix, without the extra (N p)^2 pass
    s = float(d * d) * bhat
    s = 0.5 * (s + np.conj(np.swapaxes(s[-np.arange(mm)], 1, 2)))
    # in FFT order k_a - k_b = a - b (mod N), so H[(a, i), (b, j)] =
    # s[(a - b) mod N, i, j]: block row a is window N - 1 - a of the
    # reversed doubled sequence, copied straight into the one buffer
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([s, s])[::-1], mm, axis=0)
    h = np.empty((mm * p, mm * p), dtype=complex)
    h.reshape(mm, p, mm, p)[...] = windows[mm - 1::-1].transpose(0, 1, 3, 2)
    diag = -((2.0 * np.pi * (k + alpha)) ** 2)
    np.fill_diagonal(h, float(d * d) * (bhat[0].diagonal().real + diag[:, None]))
    return h


def kernel_threshold(data: JacobiOperatorData, d: int) -> float:
    """Coefficient-scale kernel threshold tau for the degree-d forms.

    Proportional to the size of the cover's zeroth-order coefficient (floored
    at one), not to the matrix norm: the derivative part of the operator
    grows like the mesh squared and would make a norm-based threshold
    mesh-dependent.
    """
    # d^2 times the largest primitive sample: scaling by d^2 is monotone, so
    # this is the largest sample of the tiled cover, bit for bit
    rho = max(1.0, d * d * float(np.max(np.abs(data.speed ** 2 * data.b_unit))))
    return KERNEL_SCALE * rho


@dataclass(frozen=True)
class IndexResult:
    d: int
    iota: int
    nu: int
    tau: float
    eigen_gap: float        # smallest |eigenvalue| outside the kernel band
    borderline: bool        # an eigenvalue sits within 10x of the threshold
    eigenvalues: np.ndarray = field(compare=False, repr=False)   # the counted spectrum


def _index_result(data: JacobiOperatorData, d: int, ev: np.ndarray) -> IndexResult:
    """Count the eigenvalues of one degree-d form against the kernel band."""
    tau = kernel_threshold(data, d)
    iota = int(np.sum(ev > tau))
    nu = int(np.sum(np.abs(ev) <= tau))
    outside = np.abs(ev[np.abs(ev) > tau])
    gap = float(np.min(outside)) if outside.size else float("inf")
    borderline = bool(np.any((np.abs(ev) > tau) & (np.abs(ev) < 10.0 * tau)))
    return IndexResult(d=d, iota=iota, nu=nu, tau=tau, eigen_gap=gap,
                       borderline=borderline, eigenvalues=ev)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric or Hermitian form, solved in h.

    The form's buffer is handed to LAPACK's divide and conquer (dsyevd or
    zheevd) as its Fortran-ordered transpose, which holds the same bits, so
    no copy is made and h is overwritten.  The lower triangle and the
    workspace sizes from the ``*_lwork`` query are those that
    ``scipy.linalg.eigh(..., driver="evd", eigvals_only=True)`` passes, and
    the eigenvalues those of ``np.linalg.eigvalsh``.  A non-zero ``info``,
    as from a non-finite form, raises ``np.linalg.LinAlgError``.
    """
    solve, query = (_lapack.zheevd, _lapack.zheevd_lwork) if np.iscomplexobj(h) \
        else (_lapack.dsyevd, _lapack.dsyevd_lwork)
    *sizes, info = query(h.shape[0], compute_v=0, lower=1)
    if info == 0:
        work = {k: int(x.real) for k, x in zip(("lwork", "liwork", "lrwork"), sizes)}
        ev, _, info = solve(h.T, compute_v=0, lower=1, overwrite_a=1, **work)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigensolve failed with LAPACK info {info}")
    return ev


def index_nullity(data: JacobiOperatorData, d: int = 1) -> IndexResult:
    """Morse index and nullity of the degree-d cover via the direct route."""
    return _index_result(data, d, _eigvalsh(quadratic_form_matrix(data, d)))


def sector_index_nullity(data: JacobiOperatorData, d: int, j: int) -> IndexResult:
    """Index and nullity of the lambda = exp(2 pi i j / d) Floquet sector."""
    lam = complex(math.cos(2.0 * math.pi * j / d), math.sin(2.0 * math.pi * j / d))
    return _index_result(
        data, d, _eigvalsh(quadratic_form_matrix(data, d, sector=lam)))


def sector_decomposition(data: JacobiOperatorData, d: int, solved: dict | None = None):
    """Per-sector indices plus the exact cover consistency check.

    Returns (sectors, direct, consistent): ``sectors`` maps j to the
    IndexResult of multiplier exp(2 pi i j / d); consistency demands the
    sector sums reproduce the direct cover's index and nullity as integers.

    A sector's form depends on d only through its d^2 scale (Bott), so one
    spectrum per multiplier serves every degree: ``solved`` maps a reduced
    fraction j/d, as the pair (j, d) in lowest terms, to the sector solved at
    that denominator b, whose eigenvalues times (d / b)^2 are counted against
    this degree's threshold.  Fractions missing from it are solved and added,
    so a caller that passes one dict for d = 1, 2, ... solves each multiplier
    once.  The direct cover is always assembled and solved on its own.
    """
    solved = {} if solved is None else solved
    sectors = {}
    for j in range(d):
        g = math.gcd(j, d)
        key = (j // g, d // g)
        if key not in solved:
            solved[key] = sector_index_nullity(data, key[1], key[0])
        sectors[j] = _index_result(data, d, g * g * solved[key].eigenvalues)
    direct = index_nullity(data, d)
    consistent = (
        sum(s.iota for s in sectors.values()) == direct.iota
        and sum(s.nu for s in sectors.values()) == direct.nu
    )
    return sectors, direct, consistent


# ---------------------------------------------------------------------------
# Floquet route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyResult:
    matrix: np.ndarray        # (2p, 2p) return map of (zeta, zeta')
    multipliers: np.ndarray   # eigenvalues: ascending real part, then +imag first
    det_defect: float         # |det M - 1|, exact symplectic volume check
    fundamental: np.ndarray   # (N, 2p, 2p) fundamental solution at theta_i = i/N


# 3-stage Gauss-Legendre collocation, order 6: nodes c, stage matrix a,
# weights w (Hairer, Lubich & Wanner, Geometric Numerical Integration,
# II.1; IV and VI for the quadratic invariants it keeps, symplecticity)
_GL_ROOT = math.sqrt(15.0)
_GL_C = np.array([0.5 - _GL_ROOT / 10.0, 0.5, 0.5 + _GL_ROOT / 10.0])
_GL_A = np.array([
    [5.0 / 36.0, 2.0 / 9.0 - _GL_ROOT / 15.0, 5.0 / 36.0 - _GL_ROOT / 30.0],
    [5.0 / 36.0 + _GL_ROOT / 24.0, 2.0 / 9.0, 5.0 / 36.0 - _GL_ROOT / 24.0],
    [5.0 / 36.0 + _GL_ROOT / 30.0, 2.0 / 9.0 + _GL_ROOT / 15.0, 5.0 / 36.0],
])
_GL_W = np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0])


def monodromy(data: JacobiOperatorData) -> MonodromyResult:
    """Linearized return map over the primitive period, and its node values.

    Propagates the 2p x 2p fundamental solution of zeta'' = -speed^2 B zeta
    over K = 2N equal steps of 3-stage Gauss-Legendre collocation, with the
    curvature taken from the trigonometric interpolant of its samples.  The
    scheme has order 6 and is symplectic, so det M = 1 to round-off.  On a
    linear system each step's propagator is one linear solve of its stage
    equations; all K are solved as one batch and multiplied together by a
    prefix scan, which also leaves the fundamental solution at every node.
    This route is independent of the spectral quadratic forms.
    """
    if not (math.isfinite(data.speed) and np.all(np.isfinite(data.b_unit))):
        raise JacobiError("curvature samples are not finite")
    n, p = data.b_unit.shape[0], data.normal_rank
    q = 2 * p
    steps = 2 * n
    h = 1.0 / steps
    # A(t) = [[0, I], [-speed^2 B(t), 0]] at the Gauss nodes (k + c_i) / K
    b_nodes = _spectral.shifted_grids(data.speed ** 2 * data.b_unit, steps, _GL_C)
    gen = np.zeros((steps, 3, q, q))
    gen[:, :, :p, p:] = np.eye(p)
    gen[:, :, p:, :p] = -np.swapaxes(b_nodes, 0, 1)
    # stage values Z_i = Y + h sum_j a_ij A_j Z_j; with Y = I the solve gives
    # the step propagator I + h sum_i w_i A_i Z_i
    lhs = (-h * _GL_A[None, :, :, None, None]) * gen[:, None, :, :, :]
    lhs = lhs.transpose(0, 1, 3, 2, 4).reshape(steps, 3 * q, 3 * q)
    lhs += np.eye(3 * q)
    try:
        stages = np.linalg.solve(lhs, np.tile(np.eye(q), (3, 1)))
    except np.linalg.LinAlgError as exc:
        raise JacobiError(f"monodromy step is singular: {exc}") from exc
    prop = np.eye(q) + h * np.tensordot(
        _GL_W, gen @ stages.reshape(steps, 3, q, q), axes=(0, 1))
    # node i to node i + 1, then inclusive prefix products in log2 N rounds
    scan = prop[1::2] @ prop[0::2]
    shift = 1
    while shift < n:
        scan = np.concatenate([scan[:shift], scan[shift:] @ scan[:-shift]])
        shift *= 2
    if not np.all(np.isfinite(scan)):
        raise JacobiError("monodromy propagator is not finite")
    mat = scan[-1]
    fundamental = np.concatenate([np.eye(q)[None], scan[:-1]])
    mult = np.linalg.eigvals(mat)
    # eigvals' own order is decided by round-off
    mult = mult[np.lexsort((-mult.imag, mult.real))]
    det_defect = float(abs(np.linalg.det(mat) - 1.0))
    return MonodromyResult(matrix=mat, multipliers=mult, det_defect=det_defect,
                           fundamental=fundamental)


def floquet_nullity(mono: MonodromyResult, d: int, tol: float = 1e-6) -> int:
    """dim ker(M^d - I) by singular value counting.

    The threshold is absolute: unit-circle multipliers put the relevant
    singular values on the O(1) scale, and any threshold scaled by the
    largest singular value fakes kernels on strongly hyperbolic orbits
    where sigma_max of M^d - I is exponentially large.
    """
    md = np.linalg.matrix_power(mono.matrix, d)
    sv = np.linalg.svd(md - np.eye(md.shape[0]), compute_uv=False)
    return int(np.sum(sv < tol))


@dataclass(frozen=True)
class LambdaJacobiField:
    """Quasi-periodic Jacobi field zeta(theta+1) = lambda zeta(theta).

    ``xi`` and ``twin`` are the real and imaginary parts sampled on the
    d-cover grid; a real multiplier produces a single field with no twin.
    One field is returned per selected eigenvalue, counted with algebraic
    multiplicity; at a defective multiplier (a Jordan block) their
    eigenvectors are nearly parallel, and ``floquet_nullity`` gives the
    number of independent fields.
    """

    multiplier: complex
    d: int
    xi: np.ndarray            # (dN, p)
    twin: np.ndarray | None
    residual: float           # relative defect of the cover Jacobi equation


def detect_lambda_jacobi(
    data: JacobiOperatorData,
    d: int,
    mono: MonodromyResult,
    unit_tol: float = 1e-6,
) -> tuple:
    """Jacobi fields for every monodromy multiplier with lambda^d = 1.

    Each unit-root eigenvector is carried to the nodes of the primitive
    period by the fundamental solution the monodromy already holds, then
    copied to the cover with the multiplier twist; the reported residual is
    the relative error of the cover Jacobi equation evaluated spectrally, so
    a successful detection is self-verifying.  ``mono`` is
    ``monodromy(data)``.
    """
    p = data.normal_rank
    vals, vecs = np.linalg.eig(mono.matrix)
    sel = [i for i in range(vals.size) if abs(vals[i] ** d - 1.0) < unit_tol]
    if not sel:
        return ()
    bc = _cover_curvature(data, d)
    fields = []
    for i in sel:
        lam = vals[i]
        # the eigenvector carried to every node by the fundamental solution
        z_base = mono.fundamental[:, :p, :] @ vecs[:, i]        # (n, p)
        z_cover = np.concatenate([z_base * lam ** k for k in range(d)], axis=0)
        # spectral residual of the cover equation on its unit interval
        zpp = _spectral.derivative(z_cover, order=2)
        forcing = np.einsum("nij,nj->ni", bc, z_cover)
        resid = zpp + forcing
        scale = max(float(np.max(np.abs(forcing))), float(np.max(np.abs(zpp))), 1e-30)
        rel = float(np.max(np.abs(resid))) / scale
        significant_imag = float(np.max(np.abs(z_cover.imag))) \
            > 1e-8 * float(np.max(np.abs(z_cover.real)) + 1e-30)
        fields.append(LambdaJacobiField(
            multiplier=complex(lam), d=d, xi=z_cover.real,
            twin=z_cover.imag.copy() if significant_imag else None,
            residual=rel))
    return tuple(fields)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiReport:
    """Both routes' verdicts on one closed geodesic up to cover degree d_max.

    Jacobi fields are not searched for: a caller that needs them passes the
    report's ``data`` and ``mono`` to ``detect_lambda_jacobi``."""

    data: JacobiOperatorData
    indices: tuple            # IndexResult for d = 1..d_max
    mono: MonodromyResult
    floquet_nullities: dict   # d -> dim ker(M^d - I), d <= max(d_max, 4)
    routes_agree: bool        # nullities, index parities and sector sums
    sector_checks: dict       # d -> bool


def _parity_agrees(mono: MonodromyResult, iota: int, d: int) -> bool:
    """Lefschetz parity of the Poincare map: (-1)^iota(d) = (-1)^p sign
    det(M^d - I) for a degree-d cover with dim ker(M^d - I) = 0 (Long,
    *Index Theory for Symplectic Paths*, 2002)."""
    md = np.linalg.matrix_power(mono.matrix, d)
    sign = np.linalg.slogdet(md - np.eye(md.shape[0])).sign
    return (-1) ** (iota + md.shape[0] // 2) == sign


def jacobi_report(source, d_max: int = 2) -> JacobiReport:
    """Full two-route stability report for one closed geodesic, from its
    refinement result or that result's ``build_operator`` data.

    The routes agree when, for every d <= d_max, the direct cover's nullity
    is the Floquet nullity, the Bott sectors sum to the direct cover, and,
    where the Floquet nullity is 0, the parity of the direct index is the
    one the sign of det(M^d - I) gives."""
    data = source if isinstance(source, JacobiOperatorData) else build_operator(source)
    mono = monodromy(data)
    floq = {d: floquet_nullity(mono, d) for d in range(1, max(d_max, 4) + 1)}
    indices = []
    sector_checks = {}
    solved = {}
    agree = True
    for d in range(1, d_max + 1):
        _, direct, ok = sector_decomposition(data, d, solved)
        indices.append(direct)
        sector_checks[d] = ok
        if direct.nu != floq[d] or not ok:
            agree = False
        elif floq[d] == 0 and not _parity_agrees(mono, direct.iota, d):
            agree = False
    return JacobiReport(
        data=data, indices=tuple(indices), mono=mono, floquet_nullities=floq,
        routes_agree=agree, sector_checks=sector_checks)
