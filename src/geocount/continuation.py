"""Branch continuation of closed geodesics along one-parameter metric paths.

A branch is followed in the combined space (loop nodes, t) by pseudo
arclength: each tangent and corrector solve is the gauge-bordered Newton
system described in the ``solver`` module docstring, extended by the
dR/dt column and the arclength row, so simple folds in t are ordinary
regular points of the extended system.

Event detection watches the primitive monodromy trace along the branch:
a transversal crossing of -2 is a period-doubling candidate (bisected in t
to high accuracy, then certified by the kernel-dimension signature), and a
sign change of dt/ds is a fold (the trace reaches +2 at the fold point).
The module also spawns the emergent doubled branch at a period-doubling
event and checks the weighted count invariance across events.

Each event carries the Jacobi operator and monodromy of its loop, built
once where it is located; its kicks read the kernel field from them
(``_kernel_field``) instead of refining and rebuilding the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _spectral, geometry, jacobi, loops, solver, weights
from .geometry import GeometryError, MetricSpec
from .loops import DiscreteLoop


class ContinuationError(RuntimeError):
    pass


# singular value window for kernel counting at a located event; the event is
# only bracketed to finite accuracy, leaving multiplier residues of order
# sqrt(crossing rate * bracket width), far above the generic 1e-6 threshold
_EVENT_NULLITY_TOL = 1e-3
# multiplier window for extracting the (near-)kernel Jacobi field itself;
# the field is only used as a kick direction, so the window can be generous
# as long as it stays well inside the spacing to the next multiplier pair
_EVENT_FIELD_TOL = 3e-2
_PARAM_H = 1e-6               # central-difference step of dR/dt on the branch
_DS_MIN = 1e-6                # continuation stalls below this arclength step
_CORRECTOR_MAX_ITER = 16
_KICK_SIZES = (3e-3, 1e-2, 3e-2, 1e-1)   # doubled-branch bootstrap kicks
_BOOTSTRAP_OFFSET = 0.005     # bootstrap distance from the event in t
_WALK_STEP = 0.02             # largest doubled-branch walk step in t


class UnresolvedClusterError(RuntimeError):
    """Two detected events could not be separated in parameter space."""


@dataclass(frozen=True)
class MetricPath:
    """Linear interpolation between two compatible metrics of one family."""

    start: MetricSpec
    end: MetricSpec

    def __post_init__(self):
        a, b = self.start, self.end
        if a.family != b.family:
            raise GeometryError("path endpoints must share a metric family")
        if a.family == "ellipsoid" and len(a.data) != len(b.data):
            raise GeometryError("ellipsoid path endpoints must share dimension")
        if a.family == "revolution":
            ka, ca, banda = a.data
            kb, cb, bandb = b.data
            if ka != kb or len(ca) != len(cb) or banda != bandb:
                raise GeometryError(
                    "revolution path endpoints must share kind, degree and band")

    def at(self, t: float) -> MetricSpec:
        t = float(t)
        a, b = self.start, self.end
        if a.family == "ellipsoid":
            av, bv = np.asarray(a.data), np.asarray(b.data)
            return MetricSpec.ellipsoid(tuple((1 - t) * av + t * bv))
        if a.family == "revolution":
            kind, ca, band = a.data
            cb = b.data[1]
            coeffs = tuple((1 - t) * x + t * y for x, y in zip(ca, cb))
            return MetricSpec.revolution(kind, coeffs, band)
        # conformal_sphere sums the (l, m) terms the two endpoints share
        return MetricSpec.conformal_sphere(
            [(l, m, (1 - t) * c) for l, m, c in a.data]
            + [(l, m, t * c) for l, m, c in b.data])


@dataclass(frozen=True)
class BranchPoint:
    t: float
    s: float                  # accumulated pseudo-arclength
    trace: float              # tr of the primitive monodromy
    result: solver.GeodesicResult
    data: jacobi.JacobiOperatorData   # Jacobi operator of ``result``
    mono: jacobi.MonodromyResult      # its primitive monodromy


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str                 # 'period_doubling' or 'fold'
    t: float
    data: jacobi.JacobiOperatorData   # Jacobi operator of the event loop
    mono: jacobi.MonodromyResult      # its primitive monodromy
    trace: float
    nu_signature: tuple       # (nu(1), nu(2)) at the event point
    signature_ok: bool        # PD: nu(2)-nu(1) == 1; fold: nu(1) >= 1
    t_accuracy: float
    s: float | None = None    # fold: pseudo-arclength of the located turning point

    @property
    def loop(self) -> DiscreteLoop:
        return self.data.loop


@dataclass(frozen=True)
class BranchResult:
    path: MetricPath
    points: tuple
    events: tuple
    stop_reason: str


def _solve_fixed_t(path: MetricPath, t: float, guess: np.ndarray,
                   tol: float) -> solver.GeodesicResult:
    spec = path.at(t)
    seed = DiscreteLoop(spec, geometry.surface_project(spec, guess))
    return solver.refine_to_geodesic(seed, tol=tol)


def _trace(result: solver.GeodesicResult) -> tuple:
    data = jacobi.build_operator(result)
    mono = jacobi.monodromy(data)
    return float(np.trace(mono.matrix).real), data, mono


def _point(t: float, s: float, result: solver.GeodesicResult) -> BranchPoint:
    trace, data, mono = _trace(result)
    return BranchPoint(t=t, s=s, trace=trace, result=result, data=data, mono=mono)


def _refine_primitive(path, t, guesses, tol):
    """Fixed-t solves from each of ``guesses``, refined as one batch.

    Each result is None when its solve fails or lands on an iterate (a
    kicked seed can fall back onto a cover)."""
    spec = path.at(t)
    seeds = []
    for guess in guesses:
        try:
            seeds.append(DiscreteLoop(spec, geometry.surface_project(spec, guess)))
        except GeometryError:
            seeds.append(None)
    refined = iter(solver.refine_many([s for s in seeds if s is not None], tol=tol))
    out = []
    for s in seeds:
        cand = None if s is None else next(refined)
        primitive = isinstance(cand, solver.GeodesicResult) \
            and loops.primitive_decompose(cand.loop).degree == 1
        out.append(cand if primitive else None)
    return out


def _param_derivative(path, t, nodes):
    """Central difference dR/dt of the residual at fixed nodes, flattened."""
    rp = solver.residual_field(path.at(t + _PARAM_H), nodes)[0]
    rm = solver.residual_field(path.at(t - _PARAM_H), nodes)[0]
    return ((rp - rm) / (2.0 * _PARAM_H)).reshape(-1)


def _branch_tangent(path, t, nodes, prev=None):
    """Unit tangent of the branch in scaled (nodes, t) coordinates.

    Solves the bordered linearization for d(nodes)/dt and normalizes under
    the mesh-independent norm mean|dX_i|^2 + dt^2; ``prev`` fixes the
    orientation (continuation direction), otherwise dt > 0 is chosen.
    """
    n, m = nodes.shape
    jac = solver._jacobian(path.at(t), nodes)
    r_t = _param_derivative(path, t, nodes)
    sol, failed = solver._bordered_solve(
        lambda k: jac, nodes[None], np.concatenate([-r_t, [0.0]])[None])
    if failed:
        raise failed[0]
    dx_dt = sol[0, :-1].reshape(n, m)
    tau = np.concatenate([dx_dt.reshape(-1) / math.sqrt(n), [1.0]])
    tau = tau / np.linalg.norm(tau)
    if prev is not None and float(np.dot(tau, prev)) < 0.0:
        tau = -tau
    elif prev is None and tau[-1] < 0.0:
        tau = -tau
    return tau


def _corrector(path, base_nodes, base_t, tau, ds, tol):
    """One pseudo-arclength predictor-corrector step; returns (nodes, t) or None.

    The Euler predictor walks ``ds`` along the unit tangent ``tau`` from the
    branch point (``base_nodes``, ``base_t``).  Unknowns are (nodes, t, mu)
    where mu multiplies the rotation direction; equations are the geodesic
    residual at ``tol``, the node-0 gauge, and the arclength plane through
    the predicted point.
    """
    n, m = base_nodes.shape
    sqn = math.sqrt(n)
    nodes = base_nodes + ds * tau[:-1].reshape(base_nodes.shape) * sqn
    t = base_t + ds * tau[-1]
    spec = path.at(t)
    for _ in range(_CORRECTOR_MAX_ITER):
        try:
            geometry.check_band(spec, nodes)
        except geometry.BandExitError:
            return None
        fields = solver.residual_field(spec, nodes)
        full = fields[0]
        res, fdef, _ = solver._scaled_residual(spec, nodes, fields)
        arc = float(np.dot((nodes - base_nodes).reshape(-1) / sqn, tau[:-1])
                    + (t - base_t) * tau[-1] - ds)
        if res <= tol and fdef <= solver._CONSTRAINT_TOL and abs(arc) <= 1e-10:
            return nodes, t
        jac = solver._jacobian(spec, nodes)
        r_t = _param_derivative(path, t, nodes)
        arc_row = np.concatenate([tau[:-1] / sqn, [tau[-1]]])
        rhs = np.concatenate([-full.reshape(-1), [0.0], [-arc]])
        sol, failed = solver._bordered_solve(
            lambda k: jac, nodes[None], rhs[None], r_t[None], arc_row[None])
        if failed:
            return None
        delta_nodes = sol[0, :n * m].reshape(n, m)
        delta_t = float(sol[0, n * m])
        if not np.all(np.isfinite(delta_nodes)) or not np.isfinite(delta_t):
            return None
        nodes = nodes + delta_nodes
        t = t + delta_t
        try:
            spec = path.at(t)
            nodes = geometry.surface_project(spec, nodes)
        except GeometryError:
            return None
    return None


def continue_branch(
    path: MetricPath,
    start,
    ds: float = 0.04,
    ds_max: float = 0.12,
    max_steps: int = 400,
    tol: float = 1e-10,
    event_t_tol: float = 1e-8,
    cluster_tol: float = 1e-6,
) -> BranchResult:
    """Track a geodesic branch from t = 0 toward t = 1 with event detection.

    ``start`` is a seed loop or refinement result at path.at(0).  The branch
    terminates at t = 1 (clamped solve), at a band exit, or on StallError
    when the step size underflows.  Detected events are bisected, certified
    by their nullity signatures, and returned in branch order; two events
    closer than ``cluster_tol`` in t raise UnresolvedClusterError.
    """
    seed = start.loop if isinstance(start, solver.GeodesicResult) else start
    points = [_point(0.0, 0.0, _solve_fixed_t(path, 0.0, seed.nodes, tol))]
    nodes = points[0].result.loop.nodes
    tau = _branch_tangent(path, 0.0, nodes)
    t = 0.0
    s_acc = 0.0
    events = []
    stop_reason = "max_steps"
    step = ds
    for _ in range(max_steps):
        out = _corrector(path, nodes, t, tau, step, tol)
        if out is None:
            step *= 0.5
            if step < _DS_MIN:
                err = solver.StallError("continuation step size underflow")
                err.partial = BranchResult(
                    path=path, points=tuple(points), events=tuple(events),
                    stop_reason="stall")
                raise err
            continue
        new_nodes, new_t = out
        if new_t < -1e-12 or new_t > 1.0 + 1e-12:
            # the step left [0, 1]: clamp the last point to the end it crossed
            t_end = 0.0 if new_t < 0.0 else 1.0
            end = _point(t_end, s_acc + step, _solve_fixed_t(path, t_end, nodes, tol))
            _maybe_pd_event(path, points[-1], end, events, event_t_tol, tol)
            points.append(end)
            stop_reason = "reached_end" if t_end == 1.0 else "returned_to_start"
            break
        new = _point(new_t, s_acc + step, solver.refine_to_geodesic(
            DiscreteLoop(path.at(new_t), new_nodes), tol=tol))
        new_tau = _branch_tangent(path, new_t, new.result.loop.nodes, prev=tau)
        # fold: tangent t-component changed sign
        if tau[-1] * new_tau[-1] < 0.0:
            events.append(_locate_fold(path, (nodes, t, tau, s_acc), step, tol))
        _maybe_pd_event(path, points[-1], new, events, event_t_tol, tol)
        points.append(new)
        s_acc = new.s
        nodes = new.result.loop.nodes
        t = new_t
        tau = new_tau
        step = min(step * 1.3, ds_max)

    events.sort(key=lambda e: e.t)
    for a, b in zip(events, events[1:]):
        if abs(b.t - a.t) < cluster_tol:
            raise UnresolvedClusterError(
                f"events at t={a.t!r} and t={b.t!r} are closer than {cluster_tol}")
    return BranchResult(path=path, points=tuple(points), events=tuple(events),
                        stop_reason=stop_reason)


def _maybe_pd_event(path, prev_pt: BranchPoint, new_pt: BranchPoint, events, t_tol, tol):
    """Bisect a tr(M) = -2 crossing between consecutive branch points."""
    f_prev = prev_pt.trace + 2.0
    f_new = new_pt.trace + 2.0
    if f_prev == 0.0 or f_prev * f_new > 0.0:
        return
    lo_t, lo_nodes = prev_pt.t, prev_pt.result.loop.nodes
    hi_t, hi_nodes = new_pt.t, new_pt.result.loop.nodes
    f_lo = f_prev
    while hi_t - lo_t > t_tol:
        mid_t = 0.5 * (lo_t + hi_t)
        guess = 0.5 * (lo_nodes + hi_nodes)
        res_mid = _solve_fixed_t(path, mid_t, guess, tol)
        tr_mid, _, _ = _trace(res_mid)
        if (tr_mid + 2.0) * f_lo <= 0.0:
            hi_t, hi_nodes = mid_t, res_mid.loop.nodes
        else:
            lo_t, lo_nodes, f_lo = mid_t, res_mid.loop.nodes, tr_mid + 2.0
    events.append(_event("period_doubling", path, 0.5 * (lo_t + hi_t),
                         0.5 * (lo_nodes + hi_nodes), tol, hi_t - lo_t))


def _locate_fold(path, lo_state, gap, tol):
    """Bisect the tangent's dt/ds sign change along the branch arclength.

    The corrector stays regular through a simple fold, so walking half the
    remaining arclength from the pre-fold state and checking the tangent
    orientation halves the bracket each round; t is quadratic in arclength
    across the turning point, so resolving the arclength to delta-s pins the
    fold parameter to order delta-s squared.  ``lo_state`` is (nodes, t,
    tangent, arclength) of the last branch point before the turn.
    """
    lo_nodes, lo_t, lo_tau, lo_s = lo_state
    for _ in range(60):
        half = 0.5 * gap
        out = _corrector(path, lo_nodes, lo_t, lo_tau, half, tol)
        if out is None:
            break
        mid_nodes, mid_t = out
        try:
            mid_tau = _branch_tangent(path, mid_t, mid_nodes, prev=lo_tau)
        except RuntimeError:
            break
        if lo_tau[-1] * mid_tau[-1] > 0.0:
            lo_nodes, lo_t, lo_tau, lo_s = mid_nodes, mid_t, mid_tau, lo_s + half
        gap = half
        if gap < 1e-6:
            break
    return _event("fold", path, lo_t, lo_nodes, tol, max(gap * gap, 1e-14), s=lo_s)


def _event(kind, path, t_star, guess, tol, t_accuracy, s=None):
    """Solve the event loop at t_star, keeping its operator and monodromy.

    The located point sits ~sqrt(kappa * t_accuracy) from the exact
    degeneracy in multiplier distance, hence the loose kernel window.  The
    signature holds when a period doubling gains exactly one anti-periodic
    field, nu(2) - nu(1) == 1, and when a fold has a kernel, nu(1) >= 1.
    """
    res = _solve_fixed_t(path, t_star, guess, tol)
    trace, data, mono = _trace(res)
    nu1 = jacobi.floquet_nullity(mono, 1, tol=_EVENT_NULLITY_TOL)
    nu2 = jacobi.floquet_nullity(mono, 2, tol=_EVENT_NULLITY_TOL)
    ok = nu2 - nu1 == 1 if kind == "period_doubling" else nu1 >= 1
    return BifurcationEvent(
        kind=kind, t=t_star, data=data, mono=mono, trace=trace,
        nu_signature=(nu1, nu2), signature_ok=ok, t_accuracy=t_accuracy, s=s)


def _kernel_field(data, mono, d):
    """The event's kernel Jacobi field on the d-cover, in ambient coordinates.

    Returns (xi, twin): the real and imaginary parts of the field with
    multiplier +1 (d = 1) or -1 (d = 2) as (dN, ambient_dim) node arrays;
    ``twin`` is None for a real field.
    """
    want = 1.0 if d == 1 else -1.0
    fields = jacobi.detect_lambda_jacobi(data, d, mono=mono, unit_tol=_EVENT_FIELD_TOL)
    sel = [f for f in fields if abs(f.multiplier - want) < _EVENT_FIELD_TOL]
    if not sel:
        raise ContinuationError(f"no Jacobi field with multiplier {want:+.0f} at the event")
    frame = np.tile(data.frame, (d, 1, 1))
    twin = sel[0].twin
    return (np.einsum("np,npm->nm", sel[0].xi, frame),
            None if twin is None else np.einsum("np,npm->nm", twin, frame))


# ---------------------------------------------------------------------------
# emergent doubled branch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubledOrbitSample:
    t: float
    result: solver.GeodesicResult
    amplitude: float          # L2 deviation from the tiled primitive


def _cover_deviation(nodes, prim_nodes):
    """Rotation shift aligning the primitive's double cover with a doubled
    orbit's nodes, and the orbit's node deviation from the shifted cover.
    The shift is the L2-best one, so the RMS of the deviation is its minimum
    over rotations of the cover."""
    shift, cover = loops.align_nodes(nodes, np.tile(prim_nodes, (2, 1)))
    return shift, nodes - cover


def _doubling_kicks(event):
    """Anti-periodic kicks of the event loop's double cover.

    The kicks are the anti-periodic Jacobi field on the double cover (both
    phases when they differ, both signs) in ambient coordinates, each scaled
    to max node norm 1.
    """
    field, tw = _kernel_field(event.data, event.mono, 2)
    dirs = [field]
    if tw is not None:
        a, b = field.reshape(-1), tw.reshape(-1)
        cos = abs(float(np.dot(a, b))) / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-30)
        if cos < 0.99 and np.linalg.norm(b) > 1e-8 * np.linalg.norm(a):
            dirs.append(tw)
    kicks = []
    for d in dirs:
        d = d / np.max(np.linalg.norm(d, axis=1))
        kicks.extend([d, -d])
    return kicks


def spawn_doubled_branch(
    path: MetricPath,
    event: BifurcationEvent,
    offsets,
    tol: float = 1e-10,
    event_kicks=None,
) -> tuple:
    """Emergent period-doubled orbits near a period-doubling event.

    The branch is bootstrapped close to the event, where the emergent orbit
    has small amplitude: the doubled cover of the primitive is kicked along
    the anti-periodic Jacobi field (both phases, both signs, graded sizes)
    and re-refined, keeping only genuinely primitive results since the
    kicked Newton solve can fall back onto the trivial cover.  The orbit is
    then walked in t to each requested offset, seeding every solve from its
    neighbor, which is far more reliable than cold kicks at a distance.
    The walk carries the primitive alongside; each orbit's deviation from
    the primitive's double cover is computed once, and it both seeds the
    next step and gives the orbit's sample amplitude.  Offsets on the wrong
    side of the tongue produce no samples.  ``event_kicks`` is
    ``_doubling_kicks(event)`` when the caller already holds it.
    """
    offsets = sorted(float(o) for o in offsets)
    if not offsets:
        return ()
    side = 1.0 if offsets[0] > 0 else -1.0
    if any(o * side <= 0 for o in offsets):
        raise ValueError("offsets must be nonzero and on one side of the event")

    kicks = _doubling_kicks(event) if event_kicks is None else event_kicks

    # bootstrap just inside the tongue
    t_boot = event.t + side * min(_BOOTSTRAP_OFFSET, abs(offsets[0 if side > 0 else -1]))
    t_boot = min(max(t_boot, 0.0), 1.0)
    prim_b = _solve_fixed_t(path, t_boot, event.loop.nodes, tol)
    cover_b = np.tile(prim_b.loop.nodes, (2, 1))
    for eps in _KICK_SIZES:
        found = _refine_primitive(path, t_boot, [cover_b + eps * kd for kd in kicks], tol)
        boot = next((c for c in found if c is not None), None)
        if boot is not None:
            break
    else:
        return ()

    # walk the doubled branch to each requested offset: the next seed is the
    # next primitive's double cover, shifted as the current orbit aligns, plus
    # the current orbit's deviation rescaled by the square-root amplitude law;
    # otherwise a small near-event orbit falls back onto the cover basin of
    # the next step
    samples = []
    cur_t, cur = t_boot, boot
    prim_nodes = prim_b.loop.nodes
    shift, dev = _cover_deviation(cur.loop.nodes, prim_nodes)
    for off in (offsets if side > 0 else reversed(offsets)):
        target = event.t + off
        if not 0.0 <= target <= 1.0:
            continue
        while abs(target - cur_t) > 1e-12:
            next_t = cur_t + float(np.clip(target - cur_t, -_WALK_STEP, _WALK_STEP))
            prim_nodes = _solve_fixed_t(path, next_t, prim_nodes, tol).loop.nodes
            scale = math.sqrt(max(abs(next_t - event.t), 1e-15)
                              / max(abs(cur_t - event.t), 1e-15))
            seed_nodes = _spectral.fractional_shift(
                np.tile(prim_nodes, (2, 1)), shift) + scale * dev
            cur = _refine_primitive(path, next_t, [seed_nodes], tol)[0]
            if cur is None:
                return tuple(samples)
            cur_t = next_t
            shift, dev = _cover_deviation(cur.loop.nodes, prim_nodes)
        amp = float(np.sqrt(np.mean(np.sum(dev * dev, axis=1))))
        samples.append(DoubledOrbitSample(t=cur_t, result=cur, amplitude=amp))
    return tuple(samples)


# ---------------------------------------------------------------------------
# invariance of the weighted count across events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    t_before: float
    t_after: float
    total_before: int
    total_after: int
    invariant: bool
    detail_before: dict
    detail_after: dict
    records_before: dict
    records_after: dict


def verify_invariance(
    path: MetricPath,
    event: BifurcationEvent,
    delta: float = 0.02,
    tol: float = 1e-10,
) -> InvarianceReport:
    """Weighted set count across an event over the local isolating set.

    For a period doubling the isolating set holds the primitive's double
    cover and the emergent doubled orbit; for a fold it holds the two
    colliding primitive branches.  Counts are per unoriented class times the
    orientation multiplicity, matching the census convention.
    """
    t_b = max(0.0, event.t - delta)
    t_a = min(1.0, event.t + delta)
    if event.kind not in _SIDE_DETAIL:
        raise ValueError(f"unknown event kind {event.kind!r}")
    kicks_of, side_detail = _SIDE_DETAIL[event.kind]
    kicks = kicks_of(event)
    detail_b, rec_b = side_detail(path, event, t_b, kicks, tol)
    detail_a, rec_a = side_detail(path, event, t_a, kicks, tol)
    total_b = sum(detail_b.values())
    total_a = sum(detail_a.values())
    return InvarianceReport(
        t_before=t_b, t_after=t_a,
        total_before=total_b, total_after=total_a,
        invariant=(total_b == total_a),
        detail_before=detail_b, detail_after=detail_a,
        records_before=rec_b, records_after=rec_a)


def _pd_side_detail(path, event, t_val, kicks, tol):
    """Contributions near twice the primitive length at parameter t_val.

    ``kicks`` is the event's ``_doubling_kicks``, shared by both sides of
    the event."""
    res = _solve_fixed_t(path, t_val, event.loop.nodes, tol)
    rec = weights.weigh_result(res, "primitive")
    detail = {"primitive_double_cover": rec.contribution(2)}
    records = {"primitive_double_cover": rec}
    got = spawn_doubled_branch(path, event, offsets=(t_val - event.t,), tol=tol,
                               event_kicks=kicks)
    if got:
        rec_d = weights.weigh_result(got[0].result, "doubled")
        detail["emergent_doubled"] = rec_d.contribution(1)
        records["emergent_doubled"] = rec_d
    return detail, records


def _fold_kick_direction(event):
    """The fold's kernel Jacobi field in ambient coordinates, max node norm 1."""
    kick_dir, _ = _kernel_field(event.data, event.mono, 1)
    return kick_dir / np.max(np.linalg.norm(kick_dir, axis=1))


def _fold_side_detail(path, event, t_val, kick_dir, tol):
    """Contributions of the two colliding branches at parameter t_val, seeded
    by kicks of the event loop along ``kick_dir``.

    The branches are numbered by ascending length, not in the order the kicks
    find them: the sign of the kernel field is arbitrary, and negating it
    reverses that order."""
    base = event.loop.nodes
    base_len = loops.length(event.loop)
    detail = {}
    found = []
    kicked = [base + eps * kick_dir for eps in (2e-2, 5e-2, 1e-1, -2e-2, -5e-2, -1e-1)]
    for cand in _refine_primitive(path, t_val, kicked, tol):
        if cand is None or abs(cand.length - base_len) > 0.5 * max(1.0, base_len):
            continue
        if all(loops.loop_distance(cand.loop, f.loop) > 1e-6 * max(1.0, cand.length)
               for f in found):
            found.append(cand)
    records = {}
    for i, cand in enumerate(sorted(found, key=lambda c: c.length)):
        rec = weights.weigh_result(cand, f"branch{i}")
        detail[f"branch{i}"] = rec.contribution(1)
        records[f"branch{i}"] = rec
    if not found:
        detail["no_branches"] = 0
    return detail, records


# event kind -> (kicks of the event, contributions on one side of it)
_SIDE_DETAIL = {
    "period_doubling": (_doubling_kicks, _pd_side_detail),
    "fold": (_fold_kick_direction, _fold_side_detail),
}
