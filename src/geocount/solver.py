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

The Newton corrector uses a colored central-difference Jacobian (Curtis,
Powell & Reid 1974): the stencil only couples neighbors, so nodes with equal
index mod 4 have disjoint residual footprints and one perturbed loop probes
a whole color class.  The 4m probes (color, coordinate) are stacked into one
(4m, N, m) array, so a Jacobian costs two residual evaluations, one on the
+h stack and one on the -h stack.  The central differences are gathered
straight into LAPACK band storage with the nodes in the folded order
(0, N-1, 1, N-2, ...): there the periodic neighbors of every node, node 0
and node N-1 included, sit at most two blocks away, so J is a band matrix
with kl = ku = 3m - 1 and its LU (``dgbtrf``) costs O(N m^3).  The probe
stack, the folded order and the gather and scatter indices are built once
per (N, m) and cached.

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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.optimize

from . import geometry, loops
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
_MAX_OSC = 8              # most oscillations a Clairaut orbit may take to close


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
    """Central-difference velocity (N, m) on the unit parameter interval."""
    n = nodes.shape[0]
    xp, xm = _neighbors(nodes)
    return (xp - xm) * (0.5 * n)


@lru_cache(maxsize=32)
def _band_pattern(n: int, m: int):
    """Unit color bumps, the folded order and the band layout of the Jacobian.

    Returns (units, fold, gather, target): ``units[c * m + d]`` is 1 at
    coordinate d of every node j with j mod 4 == c; ``fold`` lists the
    flattened coordinates in the folded node order (0, N-1, 1, N-2, ...);
    ``gather`` indexes the flattened (4m, N, m) difference stack at every
    Jacobian entry and ``target`` is where that entry sits in the LAPACK band
    storage (3 kl + 1, Nm), kl = 3m - 1, flattened in Fortran order.
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
    j = order[:, None]                                       # node of each folded column block
    nbrs = np.concatenate([(j - 1) % n, j, (j + 1) % n], axis=1)        # (n, 3)
    coord = np.arange(m)
    # entry (column block p, coordinate d, neighbor i, row coordinate k)
    probe = ((j % 4) * m)[:, None, :, None] + coord[None, :, None, None]
    gather = probe * (n * m) + (nbrs * m)[:, None, :, None] + coord
    col = np.arange(n)[:, None, None, None] * m + coord[None, :, None, None]
    row = (pos[nbrs] * m)[:, None, :, None] + coord
    kl = 3 * m - 1
    target = col * (3 * kl + 1) + 2 * kl + row - col
    gather, target = (np.broadcast_to(a, (n, m, 3, m)).reshape(-1)
                      for a in (gather, target))
    for arr in (units, fold, gather, target):
        arr.flags.writeable = False
    return units, fold, gather, target


def _fd_jacobian(spec: MetricSpec, nodes: np.ndarray) -> np.ndarray:
    """Colored central-difference Jacobian of the residual in band storage.

    Perturbing node j only touches residual rows j-1, j, j+1, so all nodes in
    one color class (index mod 4) are probed by one perturbed loop.  The 4m
    probe loops are evaluated as one stack per sign of the step.  Rows and
    columns are in the folded node order, where neighbors sit at most two
    blocks apart, so the Jacobian has kl = ku = 3m - 1 sub- and
    super-diagonals; the result is the (3 kl + 1, Nm) LAPACK band array
    whose first kl rows are left free for the LU factors.
    """
    n, m = nodes.shape
    h = _FD_STEP * max(1.0, float(np.max(np.abs(nodes))))
    units, _, gather, target = _band_pattern(n, m)
    bump = units * h
    rp = residual_field(spec, nodes + bump)[0].reshape(-1)
    rm = residual_field(spec, nodes - bump)[0].reshape(-1)
    band = np.zeros((n * m, 9 * m - 2))                   # (Nm, 3 kl + 1), transposed below
    band.reshape(-1)[target] = (rp[gather] - rm[gather]) / (2.0 * h)
    return band.T


def _bordered_solve(jac, nodes, rhs, extra_col=None, extra_row=None):
    """Solve the gauge-bordered Newton system of the module docstring.

    ``jac`` is the band Jacobian of ``_fd_jacobian``.  ``rhs`` covers every
    row: the residual rows, the gauge row and, with ``extra_col`` (length
    Nm) and ``extra_row`` (length Nm + 1, the last entry in the extra
    column), the extra row.  The unknowns are ordered (dx, [dt,] mu).
    Raises CollapseError when the loop velocity vanishes and RuntimeError
    when the band LU or the Schur complement is exactly singular.
    """
    vel = _velocity(nodes)
    n, m = nodes.shape
    w = vel.reshape(-1)
    wn = np.linalg.norm(w)
    if wn < 1e-12 * n:
        raise CollapseError("loop velocity collapsed during refinement")
    size = n * m
    kl = 3 * m - 1
    fold = _band_pattern(n, m)[1]
    if extra_col is None:
        right = w[:, None] / wn
        below = np.zeros((1, size))
        corner = np.zeros((1, 1))
    else:
        right = np.stack([extra_col, w / wn], axis=1)
        below = np.zeros((2, size))
        below[1] = extra_row[:-1]
        corner = np.array([[0.0, 0.0], [extra_row[-1], 0.0]])
    below[0, :m] = vel[0] / np.linalg.norm(vel[0])
    right, below = right[fold], below[:, fold]
    lu, piv, info = scipy.linalg.lapack.dgbtrf(jac, kl, kl)
    if info > 0:
        raise RuntimeError(f"singular Jacobian: zero pivot in column {info}")
    rhs_top = rhs[:size][fold]
    z = scipy.linalg.lapack.dgbtrs(lu, kl, kl, np.column_stack([rhs_top, right]), piv)[0]
    # block elimination of the borders: with J z = [f, B], the Schur
    # complement S = D - C J^-1 B carries the border unknowns
    schur = corner - below @ z[:, 1:]

    def eliminate(x0, rhs_bottom):
        y = np.linalg.solve(schur, rhs_bottom - below @ x0)
        return x0 - z[:, 1:] @ y, y

    try:
        x, y = eliminate(z[:, 0], rhs[size:])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular bordered system: {exc}") from exc
    # block elimination loses accuracy when J is nearly singular, as at a
    # fold; one step of residual correction on the full system restores it
    # (Govaerts & Pryce 1993)
    band_jx = scipy.linalg.blas.dgbmv(size, size, kl, kl, 1.0, jac[kl:], x)
    res_top = rhs_top - band_jx - right @ y
    res_bottom = rhs[size:] - below @ x - corner @ y
    dx0 = scipy.linalg.lapack.dgbtrs(lu, kl, kl, res_top[:, None], piv)[0][:, 0]
    dx, dy = eliminate(dx0, res_bottom)
    out = np.empty(size + len(y))
    out[fold] = x + dx
    out[size:] = y + dy
    return out


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


def _scaled_residual(spec, nodes, fields=None):
    """Scaled tangential residual, worst constraint defect and mean speed.

    ``fields`` is ``residual_field(spec, nodes)`` when the caller holds it.
    """
    _, tan, f = residual_field(spec, nodes) if fields is None else fields
    v = _velocity(nodes)
    ell = float(np.mean(geometry.speed(spec, nodes, v)))
    scale = max(1.0, ell * ell)
    return float(np.max(np.sqrt(_dot(tan, tan)))) / scale, float(np.max(np.abs(f))), ell


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


def refine_to_geodesic(
    seed: DiscreteLoop,
    tol: float = 1e-10,
) -> GeodesicResult:
    """Newton-refine a seed loop to a closed geodesic of its metric.

    Each step solves the gauge-bordered system of the module docstring.  Far
    from a solution the Newton step is globalized by a backtracking line
    search on the squared residual; near a solution full steps are taken and
    convergence is quadratic.

    A line search that finds no acceptable step still moves to its last
    trial.  The solve stalls after three failed line searches in total,
    consecutive or not: a seed kicked where no geodesic exists alternates
    failed searches with tiny accepted steps and would otherwise run the
    whole iteration budget.

    Raises DivergenceError or CollapseError when the iteration leaves the
    basin, StallError when the line search has failed three times or the
    iteration budget runs out, and BandExitError if an iterate leaves a
    revolution band.
    """
    spec = seed.metric
    nodes = np.array(seed.nodes, dtype=float)
    n, m = nodes.shape
    scale0 = max(1.0, float(np.max(np.abs(nodes))))
    fields = residual_field(spec, nodes)
    res0, f0, ell0 = _scaled_residual(spec, nodes, fields)
    history = [res0]
    if res0 <= tol and f0 <= _CONSTRAINT_TOL:
        return GeodesicResult(
            loop=DiscreteLoop(spec, nodes), length=loops.length(DiscreteLoop(spec, nodes)),
            residual=res0, constraint_defect=f0, iterations=0,
            history=tuple(history), convergence_order=None)

    failed_searches = 0
    for it in range(1, _MAX_NEWTON_ITER + 1):
        geometry.check_band(spec, nodes)
        if fields is None:
            fields = residual_field(spec, nodes)
        full = fields[0]
        merit = float(np.sum(full * full))
        jac = _fd_jacobian(spec, nodes)
        rhs = np.concatenate([-full.reshape(-1), [0.0]])
        try:
            sol = _bordered_solve(jac, nodes, rhs)
        except CollapseError:   # a RuntimeError, but not a singular system
            raise
        except RuntimeError as exc:
            raise StallError(f"singular corrector system: {exc}") from exc
        delta = sol[:-1].reshape(n, m)
        if not np.all(np.isfinite(delta)):
            raise DivergenceError("non-finite Newton correction")
        dmax = float(np.max(np.abs(delta)))
        if dmax > _STEP_CAP * scale0:
            delta = delta * (_STEP_CAP * scale0 / dmax)
        # Armijo backtracking on |R|^2 with retraction: each trial point is
        # pulled back onto the surface so the N^2-scaled constraint rows do
        # not poison the merit with the step's quadratic normal drift.  The
        # fields of the last trial are kept for the next iteration: they are
        # None when that trial was not finite or could not be projected
        step = 1.0
        accepted = False
        for _ in range(12):
            trial = nodes + step * delta
            fields = None
            if np.all(np.isfinite(trial)):
                try:
                    trial = geometry.surface_project(spec, trial)
                except GeometryError:
                    step *= 0.5
                    continue
                fields = residual_field(spec, trial)
                trial_merit = float(np.sum(fields[0] ** 2))
                if trial_merit <= (1.0 - 1e-4 * step) * merit:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            failed_searches += 1
            if failed_searches >= 3:
                raise StallError("line search cannot reduce the residual")
        nodes = trial
        if np.max(np.abs(nodes)) > 100.0 * scale0:
            raise DivergenceError("iterates left the working region")
        res, fdef, ell = _scaled_residual(spec, nodes, fields)
        history.append(res)
        if ell < 1e-3:
            raise CollapseError("loop length collapsed toward zero")
        if res <= tol and fdef <= _CONSTRAINT_TOL:
            loop = DiscreteLoop(spec, nodes)
            return GeodesicResult(
                loop=loop, length=loops.length(loop), residual=res,
                constraint_defect=fdef, iterations=it, history=tuple(history),
                convergence_order=_convergence_order(history))
        if res > 1e6 * max(res0, 1.0):
            raise DivergenceError("residual grew beyond recovery")
    raise StallError(f"no convergence in {_MAX_NEWTON_ITER} Newton iterations")


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

    Seeds are refined independently and in a fixed order; results are reduced
    under a canonical sort, so the outcome does not depend on evaluation
    order.  Classes are unoriented: a converged loop matching the reversal of
    an existing class counts as a hit on that class, so every class stands
    for two oriented geodesics (a closed geodesic is never a rotation of its
    own reversal).  A seed whose
    refinement, or the refinement of its primitive base, fails is counted in
    the certificate by the failure's class: ``stalled``, ``diverged``,
    ``collapsed`` or ``band_exits``.  Each seed's outcome is logged at DEBUG:
    its index, then its Newton iterations (the primitive base's included)
    or its failure class and message.
    """
    seeds = _census_seeds(spec, mesh, planes, seed)
    converged = []
    failed = {"stalled": 0, "diverged": 0, "collapsed": 0, "band_exits": 0}
    for k, s in enumerate(seeds):
        try:
            res = refine_to_geodesic(s, tol=tol)
            iterations = res.iterations
            dec = loops.primitive_decompose(res.loop)
            if dec.degree > 1:
                res = refine_to_geodesic(dec.base, tol=tol)
                iterations += res.iterations
        except (BandExitError, StallError, RefineError) as exc:
            kind = _failure_class(exc)
            failed[kind] += 1
            _log.debug("seed %d: %s: %s", k, kind, exc)
            continue
        _log.debug("seed %d: converged in %d iterations", k, iterations)
        if res.length <= max_length:
            converged.append(res)
    if seeds and not converged \
            and failed["stalled"] + failed["diverged"] + failed["collapsed"] == len(seeds):
        raise StallError("census found no convergent seed")

    order = sorted(
        range(len(converged)),
        key=lambda i: (round(converged[i].length, 9),
                       loops.canonicalize(converged[i].loop).nodes.tobytes()),
    )
    classes: list[list] = []   # [representative GeodesicResult, hits]
    for idx in order:
        cand = converged[idx]
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
        if lengths[i] - lengths[i - 1] <= 1e-6 * max(1.0, lengths[i]):
            run += 1
            if run > _DEGENERATE_RUN:
                degenerate = True
                break
        else:
            run = 1

    min_hits = min((e.hits for e in entries), default=0)
    certificate = {
        "seeds": len(seeds),
        "converged": len(converged),
        **failed,
        "classes": len(entries),
        "min_hits": min_hits,
        "complete": bool(entries) and min_hits >= 2,
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
    geometrically.  This route never touches the discrete solver and serves
    as its independent check.
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
        z_minus = scipy.optimize.brentq(fr, zs[iL - 1], zs[iL], xtol=1e-14)
    if iR == len(zs) - 1:
        z_plus, leaves = hi, True
    else:
        z_plus = scipy.optimize.brentq(fr, zs[iR], zs[iR + 1], xtol=1e-14)
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
    """Solve delta_phi(c) = 2 pi p / q for the Clairaut constant by bisection."""
    target = 2.0 * np.pi * p / q

    def fun(c):
        res = clairaut_shoot(spec, c)
        if res.leaves_band:
            raise BandExitError("bracket reaches orbits that leave the band")
        return res.delta_phi - target

    c_star = scipy.optimize.brentq(fun, c_bracket[0], c_bracket[1], xtol=1e-14)
    return clairaut_shoot(spec, c_star, closure_tol=1e-6)


def parallel_heights(spec: MetricSpec) -> tuple:
    """Heights of geodesic parallels (critical radii) inside the band."""
    impl = spec.impl
    lo, hi = spec.data[2]
    zs = np.linspace(lo, hi, 2049)
    rp = impl.profile(zs, 1)[1]
    out = []
    for i in range(len(zs) - 1):
        if rp[i] == 0.0:
            out.append(float(zs[i]))
        elif rp[i] * rp[i + 1] < 0.0:
            out.append(float(scipy.optimize.brentq(
                lambda z: impl.profile(z, 1)[1], zs[i], zs[i + 1], xtol=1e-14)))
    return tuple(out)
