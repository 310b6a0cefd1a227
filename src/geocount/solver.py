"""Closed-geodesic refinement, multistart census, and the Clairaut oracle.

The refinement operator solves the discrete closed-geodesic equation

    P_i(D2 x)_i + [conformal terms] + N^2 F(x_i) nu_i = 0,   i = 0..N-1

for the node positions, where D2 is the periodic three-point second
difference, P_i projects onto the tangent plane at node i, and the scaled
constraint term pins nodes to the surface.  The tangential part forces both
geodesy and a uniform-parameter speed, so converged loops are constant-speed
samples of a closed geodesic with O(1/N^2) node error; lengths are then read
off spectrally, which restores O(1/N^4) accuracy because geodesics are
critical points of length.

The Newton corrector's Jacobian is assembled from closed-form m x m blocks
on the induced-metric families (ellipsoids and surfaces of revolution).
There the residual of node i is R_i = P_i a_i + N^2 F_i nu_i with
a_i = N^2 (x_{i+1} - 2 x_i + x_{i-1}), nu = grad F / |grad F|,
P = I - nu nu^T and D nu = P Hess F / |grad F|, so

    dR_i/dx_{i+-1} = N^2 P_i,
    dR_i/dx_i      = -2 N^2 P_i + N^2 nu_i grad F_i^T
                     + (N^2 F_i - a_i . nu_i) D nu_i - nu_i a_i^T D nu_i.

The conformal sphere keeps a colored central-difference Jacobian (Curtis,
Powell & Reid 1974), which also serves the tests as the analytic blocks'
oracle: the stencil only couples neighbors, so nodes with equal index
mod 4 have disjoint residual footprints and one perturbed loop probes a
whole color class.  The 4m probes (color, coordinate) are stacked into one
(4m, N, m) array, so that Jacobian costs two residual evaluations, one on
the +h stack and one on the -h stack, and its entries are gathered into
the same (N, 3, m, m) blocks as the closed form's.  Either way one writer,
``_band``, scatters the blocks into LAPACK band storage with the nodes in
the folded order (0, N-1, 1, N-2, ...): there the periodic neighbors of
every node, node 0 and node N-1 included, sit at most two blocks away, so
J is a band matrix with kl = ku = 3m - 1 and its LU (``dgbtrf``) costs
O(N m^3).  The probe stack, the folded order and the probe and scatter
indices are built once per (N, m) and cached.

Every Newton step in the package, here and in branch continuation, solves
one gauge-bordered linear system (``_bordered_solve``):

    [ J    c    w ] [ dx ]   [ r   ]
    [ g^T  0    0 ] [ dt ] = [ 0   ]
    [ a^T  a_t  0 ] [ mu ]   [ r_a ]

J is the residual Jacobian in the flattened node coordinates.  The column w
is the unit central-difference velocity, the exact symmetry direction of the
continuous problem, with multiplier mu; the gauge row g is the unit tangent
at node 0, so the correction may not slide node 0 along the curve.  Together
they remove the rotation near-nullspace without biasing the geometry.
Refinement uses only this core.  Continuation adds the optional column
c = dR/dt for the path parameter and the arclength row (a, a_t), so simple
folds in t are regular points of the extended system.

The dense border columns and rows are eliminated around the band LU of J
through their 1 x 1 or 2 x 2 Schur complement.  J itself is nearly singular
along the rotation direction, and at a fold, where that elimination alone
loses digits, so every solve ends with one step of residual correction on
the full bordered system (Govaerts & Pryce, IMA J. Numer. Anal. 1993).

``refine_many`` refines many seeds in phase, their state held in arrays
with one row per live seed (nodes, residual fields, merits, a mask of the
iterates whose fields are known, scales, failed-search counts), from
which finished seeds are compacted out.  Every Newton round evaluates the
new iterates of all live seeds as one stack, takes their Newton steps as
one stack, and then runs line-search halvings, in each of which every
seed still searching tries the same step length.  A halving is
whole-stack numpy: one array expression builds the trials, one call
projects them, one call evaluates them and reduces their merits |R|^2,
one row sum per trial (``_trial_fields``), and one mask accepts them, so
no trial costs a Python step of its own.  When a stacked call raises,
``_each`` evaluates its loops one at a time, so only the loop at fault
fails.  In a round of Newton steps (``_newton_steps``) one call computes
the closed-form Jacobian blocks of every seed, and the bordered solve
computes the velocities, the border rows and columns, their norms and the
folded right-hand sides for the whole stack, and unfolds the stack's
solutions at the end.  What stays per seed is the band: each seed's band
is scattered from its blocks (on the conformal sphere, its colored
differences, computed then) just before its LU, and its Schur elimination
and residual correction run before the next seed's band is built, so one
band is alive at a time; the 1 x 1 Schur complement is solved by division.
A seed whose system is singular fails alone.  Every stacked evaluation
gives each loop the same bits as an evaluation on its own, so each seed's
arithmetic, iterates and outcome are unchanged by the batch it runs in;
``refine_to_geodesic`` is a batch of one, whose loop is evaluated
unstacked.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _lapack, geometry, loops
from .geometry import BandExitError, GeometryError, MetricSpec, _dot
from .loops import DiscreteLoop

_log = logging.getLogger(__name__)


class RefineError(RuntimeError):
    """Newton refinement failed to produce a closed geodesic."""


class DivergenceError(RefineError):
    pass


class CollapseError(RefineError):
    pass


class StallError(RuntimeError):
    """A solver made no progress within its iteration or step-size budget."""


_FD_STEP = 6e-6
_CONSTRAINT_TOL = 1e-11
_MAX_NEWTON_ITER = 50
_STEP_CAP = 0.5           # largest Newton node move, relative to the loop's scale
_DEGENERATE_RUN = 50      # more classes of one length make a degenerate family
FAMILY_LENGTH_TOL = 1e-6  # relative length gap within which classes share one length
_MAX_OSC = 8              # most oscillations a Clairaut orbit may take to close
# Node count of the census's coarse stage.  Against the single-mesh census of
# the perturbed round spheres that the acceptance criteria count (mesh 256,
# 80 planes, 720 seeds in all), 32 nodes moved 26 seeds from converged to
# stalled and 9 the other way, lost a class in two censuses and made the
# count ambiguous; 64 nodes kept every class and count and moved 5 seeds, 4
# of them from stalled to converged.  At mesh 128, and on the ellipsoid at
# mesh 256, no seed moved.
_COARSE_MESH = 64


def residual_field(spec: MetricSpec, nodes: np.ndarray):
    """Full residual (..., N, m), its tangential part, and the constraint values.

    ``nodes`` is one loop (N, m) or a stack of loops (..., N, m) on the same
    mesh; every loop in a stack is evaluated independently.
    """
    n = nodes.shape[-2]
    xp, xm = _neighbors(nodes)
    d2 = (xp - 2.0 * nodes + xm) * (n * n)
    v = (xp - xm) * (0.5 * n)
    f = geometry.constraint(spec, nodes)
    g = geometry.constraint_grad(spec, nodes)
    gn = np.sqrt(_dot(g, g))[..., None]
    nu = g / gn
    acc = d2
    if spec.family == "conformal_sphere":
        du = geometry.conformal_grad(spec, nodes)
        acc = acc + 2.0 * _dot(du, v)[..., None] * v - _dot(v, v)[..., None] * du
    tan = acc - _dot(acc, nu)[..., None] * nu
    full = tan + (n * n * f)[..., None] * nu
    return full, tan, f


def _neighbors(nodes: np.ndarray):
    """Each node's successor and predecessor along the node axis, periodically.

    The same arrays as ``np.roll(nodes, -1, axis=-2)`` and
    ``np.roll(nodes, 1, axis=-2)``, built from two slices each.
    """
    xp = np.concatenate([nodes[..., 1:, :], nodes[..., :1, :]], axis=-2)
    xm = np.concatenate([nodes[..., -1:, :], nodes[..., :-1, :]], axis=-2)
    return xp, xm


def _velocity(nodes: np.ndarray) -> np.ndarray:
    """Central-difference velocity (..., N, m) on the unit parameter interval."""
    n = nodes.shape[-2]
    xp, xm = _neighbors(nodes)
    return (xp - xm) * (0.5 * n)


@lru_cache(maxsize=32)
def _band_pattern(n: int, m: int):
    """Unit color bumps, the folded order and the Jacobian's block layouts.

    Returns (units, fold, probe, scatter): ``units[c * m + d]`` is 1 at
    coordinate d of every node j with j mod 4 == c; ``fold`` lists the
    flattened coordinates in the folded node order (0, N-1, 1, N-2, ...).
    ``probe`` and ``scatter`` index the entries of an (N, 3, m, m) block
    array, block (i, s) being dR_i/dx_{i+s-1}: ``probe`` is where each entry
    sits in the flattened (4m, N, m) difference stack of ``_fd_jacobian``,
    ``scatter`` where it sits in the LAPACK band storage (3 kl + 1, Nm),
    kl = 3m - 1, flattened in Fortran order.
    """
    units = np.zeros((4 * m, n, m))
    for color in range(4):
        for d in range(m):
            units[color * m + d, color::4, d] = 1.0
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    pos = np.argsort(order)                                  # folded position of each node
    fold = (order[:, None] * m + np.arange(m)).reshape(-1)
    coord = np.arange(m)
    kl = 3 * m - 1
    # block entry (row node i, neighbor s, row coordinate k, coordinate d)
    i = np.arange(n)[:, None, None, None]
    j = (i + np.arange(3)[:, None, None] - 1) % n            # column node of block (i, s)
    probe = ((((j % 4) * m + coord) * n + i) * m + coord[:, None]).reshape(-1)
    col = pos[j] * m + coord
    row = pos[i] * m + coord[:, None]
    scatter = (col * (3 * kl + 1) + 2 * kl + row - col).reshape(-1)
    for arr in (units, fold, probe, scatter):
        arr.flags.writeable = False
    return units, fold, probe, scatter


def _jacobian_blocks(spec: MetricSpec, nodes: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian blocks (..., N, 3, m, m) of an induced-metric loop
    or stack of loops, block (i, s) being dR_i/dx_{i+s-1}.

    The blocks are those of the module docstring.  Every loop of a stack
    gets the bits it gets on its own.
    """
    n, m = nodes.shape[-2:]
    n2 = float(n * n)
    xp, xm = _neighbors(nodes)
    acc = (xp - 2.0 * nodes + xm) * n2
    f = geometry.constraint(spec, nodes)
    g = geometry.constraint_grad(spec, nodes)
    gn = np.sqrt(_dot(g, g))
    nu = g / gn[..., None]
    # Written in place, term by term in the order of the docstring's sum,
    # so that a stack holds one array of its size, the blocks themselves.
    # The last block holds D nu, then its term, until it takes its copy.
    blocks = np.empty(nodes.shape[:-1] + (3, m, m))
    proj, diag, dnu = (blocks[..., s, :, :] for s in range(3))
    np.multiply(nu[..., :, None], nu[..., None, :], out=proj)
    np.subtract(np.eye(m), proj, out=proj)
    np.matmul(proj, geometry.constraint_hess(spec, nodes), out=dnu)
    dnu /= gn[..., None, None]
    a_dnu = (acc[..., None, :] @ dnu)[..., 0, :]
    dnu *= (n2 * f - _dot(acc, nu))[..., None, None]
    np.multiply(proj, -2.0 * n2, out=diag)
    n2_nu = n2 * nu
    for j in range(m):
        diag[..., j] += n2_nu * g[..., j, None]
    diag += dnu
    for j in range(m):
        diag[..., j] -= nu * a_dnu[..., j, None]
    proj *= n2
    dnu[...] = proj
    return blocks


def _band(blocks: np.ndarray) -> np.ndarray:
    """One loop's (N, 3, m, m) Jacobian blocks in the folded band storage of
    the module docstring: the (3 kl + 1, Nm) LAPACK band array, kl = 3m - 1,
    whose first kl rows are left free for the LU factors."""
    n, _, m, _ = blocks.shape
    band = np.zeros((n * m, 9 * m - 2))                   # (Nm, 3 kl + 1), transposed below
    band.reshape(-1)[_band_pattern(n, m)[3]] = blocks.reshape(-1)
    return band.T


def _jacobian(spec: MetricSpec, nodes: np.ndarray) -> np.ndarray:
    """Residual Jacobian of one loop in the band storage of ``_band``.

    Induced-metric families take the closed-form blocks of the module
    docstring; the conformal sphere takes ``_fd_jacobian``.
    """
    return _band(_fd_jacobian(spec, nodes) if spec.impl.conformal
                 else _jacobian_blocks(spec, nodes))


def _fd_jacobian(spec: MetricSpec, nodes: np.ndarray) -> np.ndarray:
    """Colored central-difference Jacobian blocks (N, 3, m, m) of one loop,
    in the layout of ``_jacobian_blocks``.

    Perturbing node j only touches residual rows j-1, j, j+1, so all nodes in
    one color class (index mod 4) are probed by one perturbed loop.  The 4m
    probe loops are evaluated as one stack per sign of the step, and each
    block entry is gathered from the two stacks.
    """
    n, m = nodes.shape
    h = _FD_STEP * max(1.0, float(np.max(np.abs(nodes))))
    units, _, probe, _ = _band_pattern(n, m)
    bump = units * h
    rp = residual_field(spec, nodes + bump)[0].reshape(-1)
    rm = residual_field(spec, nodes - bump)[0].reshape(-1)
    return ((rp[probe] - rm[probe]) / (2.0 * h)).reshape(n, 3, m, m)


def _bordered_solve(band, nodes, rhs, extra_col=None, extra_row=None):
    """Solve the gauge-bordered Newton system of the module docstring for
    every loop of a stack.

    ``nodes`` is (B, N, m) and ``rhs`` (B, R) covers every row: the
    residual rows, the gauge row and, with ``extra_col`` (B, Nm) and
    ``extra_row`` (B, Nm + 1, the last entry in the extra column), the
    extra row.  ``band(k)`` returns loop k's Jacobian in the band storage
    of ``_band``; it is called just before that loop's factorization, so
    one band is alive at a time.  The velocity, the border column and gauge
    row, their norms and the folded right-hand sides are computed for the
    whole stack, and the solutions are written in the folded order and
    unfolded once for the stack; the band LU, the Schur elimination and the
    residual correction run one loop at a time.  Each loop gets the bits it
    gets in a batch of one.  Refinement's 1 x 1 Schur complement s is
    solved as the quotient r / s, the division by its one pivot that
    ``np.linalg.solve`` (LAPACK ``dgesv``) makes, so the bits are the same,
    and s == 0 is the singular case that raises its ``LinAlgError``
    ("Singular matrix"); continuation's 2 x 2 complement takes
    ``np.linalg.solve``.

    Returns the (B, R) solutions, the unknowns ordered (dx, [dt,] mu), and
    a dict from the index of every loop without one to its failure:
    CollapseError when its velocity vanishes, RuntimeError when its band
    LU or its Schur complement is exactly singular.  Those rows are zero.
    """
    b, n, m = nodes.shape
    size = n * m
    kl = 3 * m - 1
    fold = _band_pattern(n, m)[1]
    # each loop's velocity as a column, the layout of the border column
    vel = _velocity(nodes).reshape(b, size, 1)
    # the norms as (1, n) @ (n, 1) products of unit-stride vectors: the
    # ddot, and so the bits, of np.linalg.norm on one loop's vector
    wn = np.sqrt(vel.transpose(0, 2, 1) @ vel)
    v0n = np.sqrt(vel[:, :m].transpose(0, 2, 1) @ vel[:, :m])
    collapsed = wn[:, 0, 0] < 1e-12 * n
    wn[collapsed] = v0n[collapsed] = 1.0
    # The border rows are kept transposed, (B, Nm, rows), so that each
    # loop's (rows, Nm) block has the strides, and its products the bits,
    # of np.zeros((rows, Nm))[:, fold].  np.take lays its result out
    # C-contiguous, as fancy indexing along the first axis does.  Node 0
    # comes first in the folded order, so the gauge keeps its place.
    rows = 1 if extra_col is None else 2
    below = np.zeros((b, size, rows))
    below[:, :m, 0] = vel[:, :m, 0] / v0n[:, 0]
    right = vel.take(fold, axis=1)
    right /= wn
    del vel
    corner = np.zeros((b, rows, rows))
    if extra_col is not None:
        right = np.concatenate([extra_col.take(fold, axis=1)[:, :, None], right], axis=2)
        below[:, :, 1] = extra_row[:, :-1].take(fold, axis=1)
        corner[:, 1, 0] = extra_row[:, -1]
    below = below.transpose(0, 2, 1)
    rhs_top = rhs[:, :size].take(fold, axis=1)
    rhs_bottom = rhs[:, size:]
    # Each loop's right-hand sides [f, B] in one stack: loop k's are the
    # Fortran-ordered (Nm, 1 + rows) view lhs[k].T, the layout dgbtrs
    # solves in place and returns, so no loop copies them.
    lhs = np.empty((b, 1 + rows, size))
    lhs[:, 0] = rhs_top
    lhs[:, 1:] = right.transpose(0, 2, 1)
    folded = np.zeros(rhs.shape)
    failed = {k: CollapseError("loop velocity collapsed during refinement")
              for k in np.flatnonzero(collapsed).tolist()}
    for k in np.flatnonzero(~collapsed).tolist():
        jac = band(k)
        lu, piv, info = _lapack.dgbtrf(jac, kl, kl)
        if info > 0:
            failed[k] = RuntimeError(f"singular Jacobian: zero pivot in column {info}")
            continue
        z = _lapack.dgbtrs(lu, kl, kl, lhs[k].T, piv, overwrite_b=1)[0]
        zx, zb = z[:, 0], z[:, 1:]
        # block elimination of the borders: with J z = [f, B], the Schur
        # complement S = D - C J^-1 B carries the border unknowns
        schur = corner[k] - below[k] @ zb
        r = rhs_bottom[k] - below[k] @ zx
        if rows == 1:
            if schur[0, 0] == 0.0:
                failed[k] = RuntimeError("singular bordered system: Singular matrix")
                continue
            y = r / schur[0]
        else:
            try:
                y = np.linalg.solve(schur, r)
            except np.linalg.LinAlgError as exc:
                failed[k] = RuntimeError(f"singular bordered system: {exc}")
                continue
        x = zx - zb @ y
        # block elimination loses accuracy when J is nearly singular, as at
        # a fold; one step of residual correction on the full system
        # restores it (Govaerts & Pryce 1993)
        band_jx = _lapack.dgbmv(size, size, kl, kl, 1.0, jac[kl:], x)
        res_top = rhs_top[k] - band_jx - right[k] @ y
        r = rhs_bottom[k] - below[k] @ x - corner[k] @ y
        dx0 = _lapack.dgbtrs(lu, kl, kl, res_top[:, None], piv, overwrite_b=1)[0][:, 0]
        r -= below[k] @ dx0
        dy = r / schur[0] if rows == 1 else np.linalg.solve(schur, r)
        np.add(x, dx0 - zb @ dy, out=folded[k, :size])
        np.add(y, dy, out=folded[k, size:])
    out = np.empty(rhs.shape)
    out[:, fold] = folded[:, :size]
    out[:, size:] = folded[:, size:]
    return out, failed


@dataclass(frozen=True)
class GeodesicResult:
    """A converged closed geodesic with its refinement diagnostics."""

    loop: DiscreteLoop
    length: float
    residual: float            # scaled tangential residual at convergence
    constraint_defect: float   # worst |F| over the nodes
    iterations: int
    history: tuple             # scaled residual after each Newton step
    convergence_order: float | None


def _scaled_residuals(spec, nodes, tan, f):
    """Scaled tangential residual, worst constraint defect and mean speed of
    one loop, or of each loop in a stack, as a list of triples.

    ``nodes`` and ``tan`` are (N, m) or (B, N, m), ``f`` is (N,) or (B, N).
    """
    ell = np.mean(geometry.speed(spec, nodes, _velocity(nodes)), axis=-1)
    tan_max = np.max(np.sqrt(_dot(tan, tan)), axis=-1)
    f_max = np.max(np.abs(f), axis=-1)
    return [(t / max(1.0, e * e), d, e) for t, d, e in zip(
        np.ravel(tan_max).tolist(), np.ravel(f_max).tolist(), np.ravel(ell).tolist())]


def _scaled_residual(spec, nodes, fields=None):
    """Scaled tangential residual, worst constraint defect and mean speed.

    ``fields`` is ``residual_field(spec, nodes)`` when the caller holds it.
    """
    _, tan, f = residual_field(spec, nodes) if fields is None else fields
    return _scaled_residuals(spec, nodes, tan, f)[0]


def _convergence_order(history):
    vals = [r for r in history if r > 0.0]
    best = None
    for i in range(len(vals) - 2):
        r0, r1, r2 = vals[i], vals[i + 1], vals[i + 2]
        if r0 < 1e-2 and r1 < r0 and r2 < r1 and r2 > 1e-15:
            denom = math.log(r1 / r0)
            if denom < 0:
                p = math.log(r2 / r1) / denom
                best = p if best is None else max(best, p)
    return best


def _each(fn, spec, stack):
    """``fn(spec, stack)`` on a stack of loops (B, N, m), and the loops it
    fails on.

    Returns fn's result, every array of it with one row per loop, and a
    dict from the index of each loop that raised GeometryError to that
    error.  The stack is evaluated in one call, a single loop unstacked.
    When the stacked call raises, the loops are evaluated one at a time, so
    each sees its own failure; the results are then stacked with NaN rows
    for the failed loops, and are None when every loop failed.
    """
    if len(stack) > 1:
        try:
            return fn(spec, stack), {}
        except GeometryError:
            pass
    results, failed = {}, {}
    for k, x in enumerate(stack):
        try:
            results[k] = fn(spec, x)
        except GeometryError as exc:
            failed[k] = exc
    if not results:
        return None, failed
    first = next(iter(results.values()))
    single = not isinstance(first, tuple)
    if len(stack) == 1:
        out = tuple(a[None] for a in ((first,) if single else first))
    else:
        out = tuple(np.full((len(stack),) + np.shape(a), np.nan)
                    for a in ((first,) if single else first))
        for k, res in results.items():
            for row, a in zip(out, (res,) if single else res):
                row[k] = a
    return (out[0] if single else out), failed


def _merits(full):
    """The merit |R|^2 of each loop of a residual ``full`` (..., N, m): one
    sum over that loop's flattened squared residual, the bits of
    ``np.sum(full ** 2)`` on that loop alone."""
    sq = full ** 2
    return np.sum(sq.reshape(sq.shape[:-2] + (-1,)), axis=-1)


def _trial_fields(spec, nodes):
    """``residual_field`` of one loop or a stack of loops, and the merit
    |R|^2 of each loop (``_merits``): a float array (...)."""
    full, tan, f = residual_field(spec, nodes)
    return full, tan, f, _merits(full)


def _newton_steps(spec, nodes, full, scale):
    """The Newton corrections of a stack of loops ``nodes`` (B, N, m) from
    their residuals ``full``, each capped at a move of ``_STEP_CAP`` times
    its entry of ``scale`` (B,).

    Returns the corrections (B, N, m) and a dict from the index of every
    loop without one to its failure.  A CollapseError of the bordered solve
    stands as it is, any other failure of it becomes StallError, and a
    non-finite correction DivergenceError.  An induced metric's Jacobian
    blocks are computed for the whole stack in one call, the conformal
    sphere's (``_fd_jacobian``) loop by loop; each loop's band is scattered
    from its blocks when its solve is due.  Every loop's residual has been
    evaluated at its nodes, which the blocks evaluate again, so they raise
    no GeometryError.
    """
    b = len(nodes)
    blocks = None if spec.impl.conformal else _jacobian_blocks(spec, nodes)

    def band(k):
        return _band(_fd_jacobian(spec, nodes[k]) if blocks is None else blocks[k])

    rhs = np.zeros((b, full[0].size + 1))
    np.negative(full.reshape(b, -1), out=rhs[:, :-1])
    sol, failed = _bordered_solve(band, nodes, rhs)
    delta = sol[:, :-1].reshape(nodes.shape)
    finite = np.isfinite(delta).all(axis=(1, 2))
    dmax = np.where(finite, np.max(np.abs(delta), axis=(1, 2)), 0.0)
    cap = _STEP_CAP * scale
    delta *= (cap / np.maximum(dmax, cap))[:, None, None]   # 1.0 within the cap
    failed = {k: exc if isinstance(exc, CollapseError)
              else StallError(f"singular corrector system: {exc}") for k, exc in failed.items()}
    failed.update((k, DivergenceError("non-finite Newton correction"))
                  for k in np.flatnonzero(~finite).tolist())
    return delta, failed


def refine_many(seeds, tol: float = 1e-10) -> list:
    """Newton-refine seed loops of one metric and one node count to closed
    geodesics, in lock-step.

    Returns, in seed order, each seed's GeodesicResult or the exception its
    refinement failed with: DivergenceError or CollapseError when the
    iteration leaves the basin, StallError when the line search has failed
    three times or the iteration budget runs out, BandExitError if an
    iterate leaves a revolution band, and the GeometryError of a residual
    evaluation that fails.  Seeds of different metrics or node counts raise
    ValueError.

    Each Newton step solves the gauge-bordered system of the module
    docstring with the seed's own Jacobian.  Far from a solution the step
    is globalized by a backtracking line search on the squared residual;
    near a solution full steps are taken and convergence is quadratic.  A
    line search that finds no acceptable step still moves to its last
    trial.  The solve stalls after three failed line searches in total,
    consecutive or not: a seed kicked where no geodesic exists alternates
    failed searches with tiny accepted steps and would otherwise run the
    whole iteration budget.

    The live seeds' state is held in arrays with one row per seed, in seed
    order: the nodes (B, N, m), the residual fields of the iterates, their
    merits, a mask of the iterates whose fields are known, the scales and
    the failed-search counts; only each seed's history is a list of its
    own.  A seed that finishes is compacted out of the arrays.  All live
    seeds run each Newton round together, each evaluation as one stack
    over them: the residuals and scaled residuals of the new iterates, the
    Newton steps (``_newton_steps``), then line-search halvings, in each of
    which every seed still searching tries the same step length, its trial
    built, projected, evaluated and accepted or not as whole-stack array
    operations, until no seed is.  A batch of one evaluates its loop
    unstacked.  Every stacked evaluation gives each loop the bits it gets
    on its own, so each seed's iterates, history and outcome are those of
    a batch of one, whatever else is in the batch.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    spec = seeds[0].metric
    shape = seeds[0].nodes.shape
    if any(s.metric != spec or s.nodes.shape != shape for s in seeds):
        raise ValueError("refine_many takes loops of one metric and one node count")
    out = [None] * len(seeds)
    history = [[] for _ in seeds]
    # one row per live seed: ``live`` holds its seed index, ``done`` marks
    # the rows finished since the last compaction
    live = np.arange(len(seeds))
    nodes = np.array([s.nodes for s in seeds], dtype=float)
    scale = np.maximum(1.0, np.max(np.abs(nodes), axis=(1, 2)))
    # the iterates' fields (residual_field) and merits |R|^2, where has_fields
    full, tan, f = np.empty_like(nodes), np.empty_like(nodes), np.empty(nodes.shape[:2])
    merit = np.empty(len(seeds))
    has_fields = np.zeros(len(seeds), dtype=bool)
    failed_searches = np.zeros(len(seeds), dtype=int)
    done = np.zeros(len(seeds), dtype=bool)

    def finish(k, outcome):
        out[live[k]] = outcome
        done[k] = True

    for it in range(_MAX_NEWTON_ITER + 1):
        fresh = np.flatnonzero(~(has_fields | done))
        if len(fresh):
            got, bad = _each(residual_field, spec, nodes[fresh])
            if got is not None:
                full[fresh], tan[fresh], f[fresh] = got
                merit[fresh] = _merits(got[0])
            for k, exc in bad.items():
                finish(fresh[k], exc)
        # every live row now has its fields; the line search rebuilds has_fields
        if done.any():
            keep = ~done
            live, nodes, scale, full, tan, f, merit, failed_searches, done = (
                a[keep] for a in (live, nodes, scale, full, tan, f, merit, failed_searches, done))
        if not len(live):
            break
        for k, (res, fdef, ell) in enumerate(_scaled_residuals(spec, nodes, tan, f)):
            hist = history[live[k]]
            hist.append(res)
            if it > 0 and ell < 1e-3:
                finish(k, CollapseError("loop length collapsed toward zero"))
            elif it > 0 and res > 1e6 * max(hist[0], 1.0):
                finish(k, DivergenceError("residual grew beyond recovery"))
            elif res <= tol and fdef <= _CONSTRAINT_TOL:
                loop = DiscreteLoop(spec, nodes[k])
                finish(k, GeodesicResult(
                    loop=loop, length=loops.length(loop), residual=res,
                    constraint_defect=fdef, iterations=it, history=tuple(hist),
                    convergence_order=_convergence_order(hist)))
            elif it == _MAX_NEWTON_ITER:
                finish(k, StallError(f"no convergence in {_MAX_NEWTON_ITER} Newton iterations"))
            else:
                try:
                    geometry.check_band(spec, nodes[k])
                except BandExitError as exc:
                    finish(k, exc)
        if done.any():
            keep = ~done
            live, nodes, scale, full, merit, failed_searches, done = (
                a[keep] for a in (live, nodes, scale, full, merit, failed_searches, done))
        if not len(live):
            break
        delta, bad = _newton_steps(spec, nodes, full, scale)
        for k, exc in bad.items():
            finish(k, exc)
        if done.any():
            keep = ~done
            live, nodes, scale, merit, failed_searches, delta, done = (
                a[keep] for a in (live, nodes, scale, merit, failed_searches, delta, done))
        if not len(live):
            break
        # Armijo backtracking on |R|^2.  Each trial is pulled back onto the
        # surface so the N^2-scaled constraint rows do not poison the merit
        # with the step's quadratic normal drift.  A trial that cannot be
        # projected stays raw, with no fields and no merit.  Every row
        # takes a trial in the first halving, so the trials' arrays become
        # the new iterates'.
        trial = np.empty_like(nodes)
        full, tan, f = np.empty_like(nodes), np.empty_like(nodes), np.empty(nodes.shape[:2])
        trial_merit = np.empty(len(live))
        has_fields = np.zeros(len(live), dtype=bool)
        searching = np.arange(len(live))
        step = 1.0
        for _ in range(12):
            raw = nodes[searching] + step * delta[searching]
            projected, bad = _each(geometry.surface_project, spec, raw)
            ok = slice(None)
            if bad:
                ok = np.ones(len(raw), dtype=bool)
                ok[list(bad)] = False
                projected = raw if projected is None \
                    else np.where(ok[:, None, None], projected, raw)
            trial[searching] = projected
            has_fields[searching] = False
            rows = searching[ok]
            if len(rows):
                got, bad = _each(_trial_fields, spec, projected[ok])
                if got is not None:
                    full[rows], tan[rows], f[rows], trial_merit[rows] = got
                    has_fields[rows] = True
                for k, exc in bad.items():
                    finish(rows[k], exc)
            accepted = has_fields[searching] & (
                trial_merit[searching] <= (1.0 - 1e-4 * step) * merit[searching])
            searching = searching[~(accepted | done[searching])]
            if not len(searching):
                break
            step *= 0.5
        # no acceptable step: move to the last trial all the same
        failed_searches[searching] += 1
        for k in searching[failed_searches[searching] >= 3].tolist():
            finish(k, StallError("line search cannot reduce the residual"))
        nodes, merit = trial, trial_merit
        for k in np.flatnonzero(~done & (np.max(np.abs(nodes), axis=(1, 2)) > 100.0 * scale)):
            finish(k, DivergenceError("iterates left the working region"))
    return out


def refine_to_geodesic(
    seed: DiscreteLoop,
    tol: float = 1e-10,
) -> GeodesicResult:
    """Newton-refine one seed loop: ``refine_many([seed], tol)``, with the
    seed's failure raised."""
    out = refine_many([seed], tol)[0]
    if isinstance(out, Exception):
        raise out
    return out


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusEntry:
    """One unoriented primitive closed-geodesic class: its two orientations."""

    ident: str
    result: GeodesicResult
    hits: int                 # converged seeds that landed on this class


@dataclass(frozen=True)
class Census:
    metric: MetricSpec
    max_length: float
    entries: tuple
    degenerate_family: bool
    certificate: dict


def fibonacci_directions(count: int) -> np.ndarray:
    """Near-uniform unit vectors from the Fibonacci spiral on S^2."""
    i = np.arange(count) + 0.5
    phi = np.pi * (1.0 + math.sqrt(5.0)) * i
    cos_t = 1.0 - 2.0 * i / count
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t ** 2))
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)


def _plane_basis(normal):
    a = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    e1 = a - np.dot(a, normal) * normal
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(normal, e1)


def _census_seeds(spec: MetricSpec, mesh: int, planes: int, seed: int):
    """Deterministic seed loops: rotated Fibonacci great circles or parallels."""
    rng = np.random.default_rng(seed)
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if spec.family == "revolution":
        return [loops.parallel_circle(spec, z, mesh) for z in parallel_heights(spec)]
    if spec.ambient_dim != 3:
        raise GeometryError("the census currently requires a two-dimensional surface")
    seeds = []
    for normal in fibonacci_directions(planes):
        e1, e2 = _plane_basis(rot @ normal)
        seeds.append(loops.great_circle_seed(spec, e1, e2, mesh))
    return seeds


def _failure_class(exc) -> str:
    """The census certificate's name for a failed seed refinement."""
    if isinstance(exc, BandExitError):
        return "band_exits"
    if isinstance(exc, StallError):
        return "stalled"
    if isinstance(exc, CollapseError):
        return "collapsed"
    return "diverged"


def find_all(
    spec: MetricSpec,
    max_length: float,
    mesh: int = 256,
    planes: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
    dedup_tol: float = 1e-6,
) -> Census:
    """Multistart census of primitive closed geodesics up to max_length.

    Each stage refines its seeds in lock-step through one ``refine_many``
    call: all coarse seeds, then all lifted loops, then the primitive bases
    grouped by node count.  Each seed's arithmetic is that of refining it
    alone, so no outcome depends on the other seeds.  Classes are
    formed in order of length, ties broken by the nodes of the seed loop
    each result came from, so neither the order of the seeds nor round-off
    in the solve decides a class's representative.  Classes are unoriented:
    a converged loop matching the reversal of an existing class counts as a
    hit on that class, so every class stands for two oriented geodesics (a
    closed geodesic is never a rotation of its own reversal).

    Each seed is refined in two stages when ``mesh`` exceeds the coarse
    mesh of ``_COARSE_MESH`` nodes (nested iteration; Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004).  The coarse stage builds the
    seed on the coarse mesh and refines it there, where a Newton step costs
    far less.  The fine stage lifts the converged coarse loop to ``mesh``
    nodes by band-limited resampling and refines it, writes the result as
    a cover of its primitive base and refines that base.  So the primitive
    degree and each representative's node count are decided on ``mesh``,
    and the coarse stage only supplies a better seed.  At ``mesh`` up to
    the coarse mesh the fine stage runs alone on the seed itself.

    A seed whose refinement at either stage, or the refinement of its
    primitive base, fails is counted in the certificate by the failure's
    class: ``stalled``, ``diverged``, ``collapsed`` or ``band_exits``; a
    coarse failure never reaches the fine mesh.  A seed that converges is
    counted as ``converged`` when its length is at most ``max_length`` and
    as ``above_bound`` otherwise, so the certificate accounts for every
    seed.  The certificate's ``complete`` says that every class was hit by
    at least two seeds; a surface of revolution is seeded once per critical
    parallel, so there it says that no seed failed and that every converged
    parallel is a class of its own.  Each seed's outcome is logged at
    DEBUG: its index, then its Newton iterations (the primitive base's
    included; ``C + F`` with the coarse count first when the seed ran both
    stages) or its failure class and message, the message prefixed by
    ``fine mesh:`` when the fine stage failed.  The lines come in seed
    order.
    """
    seeds = _census_seeds(spec, min(mesh, _COARSE_MESH), planes, seed)
    outcome = {}    # seed index -> (result, iterations) or the failure
    coarse = {}     # seed index -> coarse-stage iterations
    stage = list(enumerate(seeds))
    if mesh > _COARSE_MESH:
        lifted = []
        for k, res in enumerate(refine_many(seeds, tol=tol)):
            if isinstance(res, Exception):
                outcome[k] = res
            else:
                coarse[k] = res.iterations
                lifted.append((k, loops.resample(res.loop, mesh)))
        stage = lifted
    bases = {}      # node count -> [(seed index, primitive base, iterations)]
    for (k, _), res in zip(stage, refine_many([s for _, s in stage], tol=tol)):
        if isinstance(res, Exception):
            outcome[k] = res
            continue
        dec = loops.primitive_decompose(res.loop)
        if dec.degree > 1:
            bases.setdefault(dec.base.n, []).append((k, dec.base, res.iterations))
        else:
            outcome[k] = (res, res.iterations)
    for group in bases.values():
        for (k, _, iterations), res in zip(group, refine_many([b for _, b, _ in group], tol=tol)):
            outcome[k] = res if isinstance(res, Exception) else (res, iterations + res.iterations)

    converged = []
    above_bound = 0
    failed = {"stalled": 0, "diverged": 0, "collapsed": 0, "band_exits": 0}
    for k in range(len(seeds)):
        out = outcome[k]
        if isinstance(out, Exception):
            if not isinstance(out, (BandExitError, StallError, RefineError)):
                raise out
            kind = _failure_class(out)
            failed[kind] += 1
            if k in coarse:
                _log.debug("seed %d: %s: fine mesh: %s", k, kind, out)
            else:
                _log.debug("seed %d: %s: %s", k, kind, out)
            continue
        res, iterations = out
        if k in coarse:
            _log.debug("seed %d: converged in %d + %d iterations", k, coarse[k], iterations)
        else:
            _log.debug("seed %d: converged in %d iterations", k, iterations)
        if res.length <= max_length:
            converged.append((res, seeds[k].nodes.tobytes()))
        else:
            above_bound += 1
    if seeds and not converged \
            and failed["stalled"] + failed["diverged"] + failed["collapsed"] == len(seeds):
        raise StallError("census found no convergent seed")

    classes: list[list] = []   # [representative GeodesicResult, hits]
    for cand, _ in sorted(converged, key=lambda c: (round(c[0].length, 9), c[1])):
        for cls in classes:
            rep = cls[0]
            tol_len = dedup_tol * max(1.0, rep.length)
            if abs(cand.length - rep.length) <= tol_len and (
                    loops.loop_distance(rep.loop, cand.loop) <= tol_len
                    or loops.loop_distance(rep.loop, loops.reverse(cand.loop)) <= tol_len):
                cls[1] += 1
                break
        else:
            classes.append([cand, 1])
    entries = [CensusEntry(ident=f"g{k:03d}", result=rep, hits=hits)
               for k, (rep, hits) in enumerate(classes)]

    degenerate = False
    lengths = sorted(e.result.length for e in entries)
    run = 1
    for i in range(1, len(lengths)):
        if lengths[i] - lengths[i - 1] <= FAMILY_LENGTH_TOL * max(1.0, lengths[i]):
            run += 1
            if run > _DEGENERATE_RUN:
                degenerate = True
                break
        else:
            run = 1

    min_hits = min((e.hits for e in entries), default=0)
    if spec.family == "revolution":
        # one seed per critical parallel, so no class can be hit twice:
        # covered when every parallel converged to a class of its own
        complete = not any(failed.values()) and len(entries) == len(converged)
    else:
        complete = bool(entries) and min_hits >= 2
    certificate = {
        "seeds": len(seeds),
        "converged": len(converged),
        "above_bound": above_bound,
        **failed,
        "classes": len(entries),
        "min_hits": min_hits,
        "complete": complete,
        "max_residual": max((e.result.residual for e in entries), default=0.0),
    }
    return Census(
        metric=spec, max_length=max_length, entries=tuple(entries),
        degenerate_family=degenerate, certificate=certificate)


def iterates(census: Census):
    """Yield (entry, degree) for every iterate up to max_length, entry-major."""
    for e in census.entries:
        d = 1
        while d * e.result.length <= census.max_length + 1e-12:
            yield e, d
            d += 1


# ---------------------------------------------------------------------------
# Clairaut shooting oracle for revolution surfaces
# ---------------------------------------------------------------------------

def _bisect(f, a: float, b: float) -> float:
    """A root of f in the sign-changing bracket [a, b], to the last bit.

    Halves the bracket until its midpoint rounds to an endpoint and returns
    that float, so f vanishes there or changes sign between it and a
    neighbouring float.  f(a) is evaluated first, so an exception that f
    raises at the low end propagates before any other call.  ``ValueError``
    when f(a) and f(b) have the same sign or f returns nan.
    """
    def sign(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"f({x!r}) is nan")
        return (fx > 0.0) - (fx < 0.0)

    a, b = float(a), float(b)
    sa = sign(a)
    sb = sign(b)
    if sa == 0:
        return a
    if sb == 0:
        return b
    if sa == sb:
        raise ValueError("f(a) and f(b) must have different signs")
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return m
        sm = sign(m)
        if sm == 0:
            return m
        if sm == sa:
            a = m
        else:
            b = m


@dataclass(frozen=True)
class ShootResult:
    clairaut: float
    turning: tuple            # (z_minus, z_plus)
    delta_phi: float          # azimuth advance per full oscillation
    osc_length: float         # arc length per full oscillation
    closes: bool
    p: int | None             # azimuthal winding of the closed orbit
    q: int | None             # oscillation count of the closed orbit
    defect: float             # |q dphi - 2 pi p| for the best (p, q)
    length: float | None
    leaves_band: bool


def clairaut_shoot(
    spec: MetricSpec,
    c: float,
    closure_tol: float = 1e-9,
) -> ShootResult:
    """Quadrature integration of the Clairaut oscillation r^2 phi' = c.

    Works entirely from the profile: the geodesic oscillates between the two
    heights where r = |c| that bracket the profile's widest point.  The
    turning-point square-root singularities are removed by the substitution
    z = mid + half * sin(u), so plain Gauss-Legendre quadrature converges
    geometrically.  The turning heights are roots of r(z) - |c|, bisected
    to the last bit in the grid cell where r crosses |c| (``_bisect``).
    This route never touches the discrete solver and serves as its
    independent check.
    """
    if spec.family != "revolution":
        raise GeometryError("Clairaut shooting requires a revolution surface")
    impl = spec.impl
    lo, hi = spec.data[2]
    cc = abs(float(c))
    zs = np.linspace(lo, hi, 2049)
    r_grid = impl.profile(zs, 0)[0]
    above = r_grid > cc
    i0 = int(np.clip(np.argmax(r_grid), 1, len(zs) - 2))
    if not above[i0]:
        raise GeometryError("no oscillation: the profile never exceeds |c|")

    def fr(z):
        return impl.profile(z, 0)[0] - cc

    iL = i0
    while iL > 0 and above[iL - 1]:
        iL -= 1
    iR = i0
    while iR < len(zs) - 1 and above[iR + 1]:
        iR += 1
    leaves = False
    if iL == 0:
        z_minus, leaves = lo, True
    else:
        z_minus = _bisect(fr, zs[iL - 1], zs[iL])
    if iR == len(zs) - 1:
        z_plus, leaves = hi, True
    else:
        z_plus = _bisect(fr, zs[iR], zs[iR + 1])
    if leaves:
        return ShootResult(
            clairaut=c, turning=(z_minus, z_plus), delta_phi=float("nan"),
            osc_length=float("nan"), closes=False, p=None, q=None,
            defect=float("inf"), length=None, leaves_band=True)

    mid = 0.5 * (z_plus + z_minus)
    half = 0.5 * (z_plus - z_minus)
    u, w = np.polynomial.legendre.leggauss(96)
    z = mid + half * np.sin(0.5 * np.pi * u)
    jac = half * 0.5 * np.pi * np.cos(0.5 * np.pi * u)
    r, rp = impl.profile(z, 1)
    # sqrt(1 - c^2/r^2) = sqrt((r-c)(r+c))/r; (r-c) vanishes linearly at the
    # turning points, cancelling against the cos factor of the substitution
    disc = np.sqrt(np.maximum((r - cc) * (r + cc), 0.0)) / r
    g_half = np.sqrt(1.0 + rp * rp)
    dphi_half = np.sum(w * jac * (cc / (r * r)) * g_half / disc)
    len_half = np.sum(w * jac * g_half / disc)
    delta_phi = 2.0 * dphi_half
    osc_len = 2.0 * len_half

    best = (None, None, float("inf"))
    for q in range(1, _MAX_OSC + 1):
        p = round(q * delta_phi / (2.0 * np.pi))
        if p == 0:
            continue
        defect = abs(q * delta_phi - 2.0 * np.pi * p)
        if defect < best[2]:
            best = (p, q, defect)
    p, q, defect = best
    closes = defect < closure_tol
    return ShootResult(
        clairaut=c, turning=(float(z_minus), float(z_plus)), delta_phi=float(delta_phi),
        osc_length=float(osc_len), closes=bool(closes), p=p, q=q,
        defect=float(defect),
        length=float(q * osc_len) if closes else None, leaves_band=False)


def clairaut_find_closed(
    spec: MetricSpec,
    p: int,
    q: int,
    c_bracket: tuple,
) -> ShootResult:
    """Solve delta_phi(c) = 2 pi p / q for the Clairaut constant.

    The root is bracketed by ``c_bracket`` and bisected to the last bit
    (``_bisect``), about 50 quadratures for a bracket 0.1 wide.
    ``BandExitError`` if an orbit in the bracket leaves the band, the low
    end's orbit first.
    """
    target = 2.0 * np.pi * p / q

    def fun(c):
        res = clairaut_shoot(spec, c)
        if res.leaves_band:
            raise BandExitError("bracket reaches orbits that leave the band")
        return res.delta_phi - target

    c_star = _bisect(fun, c_bracket[0], c_bracket[1])
    return clairaut_shoot(spec, c_star, closure_tol=1e-6)


def parallel_heights(spec: MetricSpec) -> tuple:
    """Heights of geodesic parallels (critical radii) inside the band: the
    zeros of r' on a 2049-point grid, and each sign change of r' between
    grid points bisected to the last bit (``_bisect``)."""
    impl = spec.impl
    lo, hi = spec.data[2]
    zs = np.linspace(lo, hi, 2049)
    rp = impl.profile(zs, 1)[1]
    out = []
    for i in range(len(zs) - 1):
        if rp[i] == 0.0:
            out.append(float(zs[i]))
        elif rp[i] * rp[i + 1] < 0.0:
            out.append(_bisect(lambda z: impl.profile(z, 1)[1], zs[i], zs[i + 1]))
    return tuple(out)
