"""Branch continuation, event location, local invariance, and doubled orbits.

Two frozen one-parameter families anchor these tests: a cubic-profile band
whose pair of geodesic parallels collides in a fold as the tilt coefficient
crosses zero, and a conformally deformed sphere whose equator-like orbit
crosses an antiperiodic degeneracy (trace -2) where a doubled orbit branches
off.
"""

import numpy as np
import pytest

from geocount import _spectral, cli, continuation, geometry, jacobi, loops, solver
from geocount.continuation import MetricPath
from geocount.geometry import GeometryError, MetricSpec

from test_solver import _bordered_dense

FOLD_START = ("poly", (1.0, -0.02, 0.0, 0.1 / 3.0), (-1.0, 1.0))
FOLD_END = ("poly", (1.0, 0.02, 0.0, 0.1 / 3.0), (-1.0, 1.0))
PD_TERMS_START = ((1, 1, 0.05), (2, 0, 0.16), (2, 2, 0.08), (3, 3, 0.03))
PD_TERMS_END = ((1, 1, 0.05), (2, 0, 0.26), (2, 2, 0.08), (3, 3, 0.03))


@pytest.fixture(scope="module")
def fold_path():
    return MetricPath(MetricSpec.revolution(*FOLD_START), MetricSpec.revolution(*FOLD_END))


@pytest.fixture(scope="module")
def fold_branch(fold_path):
    start = solver.refine_to_geodesic(
        loops.parallel_circle(fold_path.start, 0.55, 128))
    return continuation.continue_branch(fold_path, start)


@pytest.fixture(scope="module")
def pd_path():
    return MetricPath(
        MetricSpec.conformal_sphere(PD_TERMS_START),
        MetricSpec.conformal_sphere(PD_TERMS_END))


@pytest.fixture(scope="module")
def pd_branch(pd_path):
    start = solver.refine_to_geodesic(
        loops.great_circle_seed(pd_path.start, np.eye(3)[0], np.eye(3)[1], 128))
    return continuation.continue_branch(pd_path, start)


def test_metric_path_interpolates_endpoints():
    path = MetricPath(
        MetricSpec.ellipsoid((1.0, 1.0, 1.2)), MetricSpec.ellipsoid((1.1, 1.0, 1.3)))
    assert path.at(0.0).data == (1.0, 1.0, 1.2)
    assert path.at(1.0).data == (1.1, 1.0, 1.3)
    assert path.at(0.5).data == (1.05, 1.0, 1.25)
    with pytest.raises(GeometryError):
        MetricPath(
            MetricSpec.ellipsoid((1.0, 1.0, 1.2)),
            MetricSpec.revolution("poly", (0.8, 0.0, -0.4), (-0.6, 0.6)))


def test_fold_event_is_located(fold_branch):
    assert len(fold_branch.events) == 1
    event = fold_branch.events[0]
    assert event.kind == "fold"
    assert abs(event.t - 0.5) < 1e-6
    assert event.t_accuracy < 1e-8
    assert event.nu_signature == (1, 1)
    assert event.signature_ok
    assert abs(event.trace - 2.0) < 1e-3


def test_fold_branch_turns_back(fold_branch):
    assert fold_branch.stop_reason == "returned_to_start"
    # arclength keeps increasing while t folds back below the event value
    ts = [p.t for p in fold_branch.points]
    assert max(ts) < 0.5 + 1e-6
    assert ts[-1] < max(ts) - 0.1


def _count_kernel_searches(monkeypatch):
    """List that receives the cover degree of every event-field search."""
    searches = []
    real_detect = jacobi.detect_lambda_jacobi

    def detect(data, d, mono=None, unit_tol=1e-6):
        if unit_tol == continuation._EVENT_FIELD_TOL:
            searches.append(d)
        return real_detect(data, d, mono=mono, unit_tol=unit_tol)

    monkeypatch.setattr(jacobi, "detect_lambda_jacobi", detect)
    return searches


def test_fold_invariance_and_branch_pairing(fold_path, fold_branch, monkeypatch):
    event = fold_branch.events[0]
    kernel_searches = _count_kernel_searches(monkeypatch)
    report = continuation.verify_invariance(fold_path, event)
    # both sides kick along one kernel field, searched for once
    assert kernel_searches == [1]
    assert report.invariant
    assert report.total_before == 0
    assert report.total_after == 0
    before = report.records_before
    assert set(before) == {"branch0", "branch1"}
    eps = {before["branch0"].eps, before["branch1"].eps}
    assert eps == {(1, 1), (-1, -1)}  # colliding branches carry opposite signs
    assert report.records_after == {}
    assert report.detail_after == {"no_branches": 0}


def test_corrector_solve_at_the_fold_matches_a_dense_solve(fold_path, fold_branch):
    # at the fold J is nearly singular, so the band LU's border elimination
    # relies on its residual correction; the extended system stays regular
    event = fold_branch.events[0]
    before = max((p for p in fold_branch.points if p.s <= event.s), key=lambda p: p.s)
    tau = continuation._branch_tangent(
        fold_path, before.t, np.asarray(before.result.loop.nodes))
    nodes = np.asarray(event.loop.nodes)
    n, m = nodes.shape
    jac = solver._jacobian(fold_path.at(event.t), nodes)
    r_t = continuation._param_derivative(fold_path, event.t, nodes)
    arc_row = np.concatenate([tau[:-1] / np.sqrt(n), [tau[-1]]])
    rhs = np.random.default_rng(0).normal(size=n * m + 2)
    want = np.linalg.solve(_bordered_dense(jac, nodes, r_t, arc_row), rhs)
    got, failed = solver._bordered_solve(lambda k: jac, nodes[None], rhs[None], r_t[None],
                                         arc_row[None])
    assert not failed
    assert np.max(np.abs(got[0] - want)) <= 1e-10 * np.max(np.abs(want))


def test_fold_branch_labels_do_not_depend_on_the_kernel_sign(fold_path, fold_branch):
    # the kernel field's sign is whatever the eigensolver returns; negating it
    # reverses the order in which the kicks find the two branches
    event = fold_branch.events[0]
    kick_dir = continuation._fold_kick_direction(event)
    t_val = event.t - 0.02
    detail, records = continuation._fold_side_detail(fold_path, event, t_val, kick_dir, 1e-10)
    flipped = continuation._fold_side_detail(fold_path, event, t_val, -kick_dir, 1e-10)
    assert flipped == (detail, records)
    assert detail == {"branch0": 2, "branch1": -2}
    assert records["branch0"].length < records["branch1"].length


def test_fold_kicks_past_the_turn_stall_early(fold_path, fold_branch, monkeypatch):
    # no branch exists past the fold: every kick fails its line search
    # repeatedly and gives up long before the 50-iteration budget.  The six
    # kicks come as one batch; the stub refines them one at a time (each
    # seed's result is the same either way) to count each one's Jacobians
    event = fold_branch.events[0]
    kick_dir = continuation._fold_kick_direction(event)
    batches = []
    jacobians = []
    outcomes = []
    real_blocks = solver._jacobian_blocks
    real_refine = solver.refine_many

    def blocks(spec, nodes):
        jacobians[-1] += len(nodes)
        return real_blocks(spec, nodes)

    def refine(seeds, tol=1e-10):
        batches.append(len(seeds))
        out = []
        for seed in seeds:
            jacobians.append(0)
            out.extend(real_refine([seed], tol=tol))
        outcomes.extend(out)
        return out

    monkeypatch.setattr(solver, "_jacobian_blocks", blocks)
    monkeypatch.setattr(solver, "refine_many", refine)
    detail, _ = continuation._fold_side_detail(
        fold_path, event, event.t + 0.02, kick_dir, 1e-10)
    assert detail == {"no_branches": 0}
    assert batches == [6]
    assert len(outcomes) == 6
    assert all(isinstance(o, solver.StallError) for o in outcomes)
    assert all("line search" in str(o) for o in outcomes)
    assert all(1 <= count <= 12 for count in jacobians)


def _rebuilt_trace_rows(branch_id, result):
    """Reference: the trace rows as written before branch points kept their
    Jacobi operator, rebuilding it at every point."""
    rows = []
    events = list(result.events)
    prev = None
    for pt in result.points:
        marker = ""
        if prev is not None:
            lo, hi = min(prev.t, pt.t), max(prev.t, pt.t)
            kinds = [e.kind for e in events
                     if (prev.s <= e.s < pt.s if e.kind == "fold" else lo <= e.t <= hi)]
            marker = ";".join(kinds)
        data = jacobi.build_operator(pt.result)
        i1 = jacobi.index_nullity(data, 1)
        i2 = jacobi.index_nullity(data, 2)
        rows.append((branch_id, pt.s, pt.t, pt.result.length,
                     i1.iota, i2.iota, i1.nu, i2.nu,
                     (-1) ** i1.iota, (-1) ** i2.iota, marker))
        prev = pt
    return rows


def test_trace_rows_reuse_the_branch_operators(fold_branch, pd_branch, monkeypatch):
    want = [_rebuilt_trace_rows("g000", b) for b in (fold_branch, pd_branch)]
    calls = []
    real_build = jacobi.build_operator
    monkeypatch.setattr(jacobi, "build_operator",
                        lambda source: calls.append(source) or real_build(source))
    got = [cli._trace_rows("g000", b) for b in (fold_branch, pd_branch)]
    assert calls == []
    assert got == want


def test_trace_rows_mark_the_fold_past_the_turn(fold_path, fold_branch):
    # both points around the fold lie below its t, so no step spans it in t;
    # the marker goes on the first point past the turn: the one whose branch
    # tangent has the opposite t-component to its predecessor's
    event = fold_branch.events[0]
    rows = cli._trace_rows("g000", fold_branch)
    markers = [row[-1] for row in rows]
    assert markers.count("fold") == 1
    assert set(markers) == {"", "fold"}
    tau = None
    for i, pt in enumerate(fold_branch.points):
        prev, tau = tau, continuation._branch_tangent(
            fold_path, pt.t, np.asarray(pt.result.loop.nodes), prev=tau)
        if prev is not None and prev[-1] * tau[-1] < 0.0:
            break
    assert markers.index("fold") == i
    ts = [p.t for p in fold_branch.points]
    assert ts[i - 1] < event.t and ts[i] < event.t


def test_period_doubling_event_is_located(pd_branch):
    assert pd_branch.stop_reason == "reached_end"
    assert len(pd_branch.events) == 1
    event = pd_branch.events[0]
    assert event.kind == "period_doubling"
    assert abs(event.t - 0.798186551) < 1e-6
    assert event.t_accuracy < 1e-6
    assert event.nu_signature == (0, 1)
    assert event.signature_ok
    assert abs(event.trace + 2.0) < 1e-6


def test_period_doubling_invariance_pattern(pd_path, pd_branch, monkeypatch):
    event = pd_branch.events[0]
    kernel_searches = _count_kernel_searches(monkeypatch)
    report = continuation.verify_invariance(pd_path, event)
    # both sides kick along one anti-periodic field, searched for once
    assert kernel_searches == [2]
    assert report.invariant
    assert report.total_before == report.total_after == 0

    prim_b = report.records_before["primitive_double_cover"]
    prim_a = report.records_after["primitive_double_cover"]
    emergent = report.records_after["emergent_doubled"]
    # the first sign survives the crossing, the second one flips
    assert prim_a.eps[0] == prim_b.eps[0]
    assert prim_a.eps[1] == -prim_b.eps[1]
    # the doubled orbit inherits the opposite of the flipped sign
    assert emergent.eps[0] == -prim_a.eps[1]
    assert "emergent_doubled" not in report.records_before


def test_doubled_branch_amplitude_follows_square_root_law(pd_path, pd_branch):
    event = pd_branch.events[0]
    offsets = (0.005, 0.01, 0.015, 0.02)
    samples = continuation.spawn_doubled_branch(pd_path, event, offsets)
    assert len(samples) == len(offsets)
    amps = [s.amplitude for s in samples]
    assert all(a > 0 for a in amps)
    assert amps == sorted(amps)

    # amplitude^2 is linear in t - t* and vanishes at the event
    st = np.array([s.t - event.t for s in samples])
    sr2 = np.array(amps) ** 2
    coef = np.polyfit(st, sr2, 1)
    resid = np.sqrt(np.mean((sr2 - np.polyval(coef, st)) ** 2)) / np.max(sr2)
    assert coef[0] > 0
    assert resid < 0.05
    assert abs(coef[1] / coef[0]) < 0.01


def _record_rebuilds(monkeypatch):
    """List that receives the name of every refinement, operator build and
    monodromy integration."""
    calls = []
    for module, name in ((solver, "refine_to_geodesic"), (jacobi, "build_operator"),
                         (jacobi, "monodromy")):
        real = getattr(module, name)

        def wrapped(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    return calls


def test_event_kicks_reuse_the_event_operator(fold_branch, pd_branch, monkeypatch):
    fold, pd = fold_branch.events[0], pd_branch.events[0]
    for event in (fold, pd):
        assert event.loop is event.data.loop
        assert np.array_equal(event.mono.matrix, jacobi.monodromy(event.data).matrix)
    calls = _record_rebuilds(monkeypatch)
    kick_dir = continuation._fold_kick_direction(fold)
    kicks = continuation._doubling_kicks(pd)
    assert calls == []
    assert kick_dir.shape == fold.loop.nodes.shape
    assert len(kicks) in (2, 4)
    assert all(k.shape == (2 * pd.loop.n, 3) for k in kicks)


def test_doubled_branch_samples_are_the_walks_solves(pd_path, pd_branch, monkeypatch):
    # the bootstrap refines the primitive and then one batch of kicks per
    # kick size at t_boot, keeping the first primitive result; each walk
    # step refines the primitive and the doubled orbit at its new t; a
    # sample is the orbit the walk holds, with no further solve
    event = pd_branch.events[0]
    batches = []
    deviations = []
    real_refine = solver.refine_many
    real_deviation = continuation._cover_deviation

    def refine(seeds, tol=1e-10):
        out = real_refine(seeds, tol=tol)
        batches.append(([s.metric for s in seeds], out))
        return out

    def deviation(nodes, prim_nodes):
        got = real_deviation(nodes, prim_nodes)
        deviations.append(got[1])
        return got

    monkeypatch.setattr(solver, "refine_many", refine)
    monkeypatch.setattr(continuation, "_cover_deviation", deviation)
    samples = continuation.spawn_doubled_branch(pd_path, event, (0.005, 0.01, 0.015, 0.02))
    assert len(samples) == 4
    boot_spec = pd_path.at(event.t + 0.005)
    n_kicks = len(continuation._doubling_kicks(event))
    n_boot = sum(specs[0] == boot_spec for specs, _ in batches)
    assert n_boot >= 2
    assert [specs for specs, _ in batches[:n_boot]] \
        == [[boot_spec]] + [[boot_spec] * n_kicks] * (n_boot - 1)
    assert [specs for specs, _ in batches[n_boot:]] \
        == [[pd_path.at(s.t)] for s in samples[1:] for _ in range(2)]

    def primitive(res):
        return isinstance(res, solver.GeodesicResult) \
            and loops.primitive_decompose(res.loop).degree == 1

    assert not any(primitive(r) for _, out in batches[1:n_boot - 1] for r in out)
    assert samples[0].result is next(r for r in batches[n_boot - 1][1] if primitive(r))
    assert all(s.result is out[0] for s, (_, out) in zip(samples[1:], batches[n_boot + 1::2]))
    # one cover deviation per orbit: the bootstrap's and one per walk step,
    # each serving both the next step's seed and the orbit's sample
    steps = len(batches[n_boot:]) // 2
    assert steps == 3
    assert len(deviations) == steps + 1
    assert [s.amplitude for s in samples] \
        == [float(np.sqrt(np.mean(np.sum(d * d, axis=1)))) for d in deviations]


def test_cover_deviation_shifts_the_cover_once(monkeypatch):
    prim = loops.circle_nodes(32, (1.0, 0.0, 0.0), (0.0, 0.8, 0.6))
    cover = np.tile(prim, (2, 1))
    nodes = _spectral.fractional_shift(cover, 0.0123) + 1e-3 * np.roll(cover, 5, axis=1)
    shifts = []
    real_shift = _spectral.fractional_shift

    def shift(values, s):
        shifts.append(s)
        return real_shift(values, s)

    monkeypatch.setattr(_spectral, "fractional_shift", shift)
    s, dev = continuation._cover_deviation(nodes, prim)
    assert shifts == [s]
    assert np.array_equal(dev, nodes - real_shift(cover, s))
    assert np.max(np.linalg.norm(dev, axis=1)) < 2e-3


def test_period_doubling_trace_crosses_minus_two(pd_branch):
    event = pd_branch.events[0]
    traces = [(p.t, p.trace) for p in pd_branch.points]
    below = [tr for t, tr in traces if t < event.t - 1e-3]
    above = [tr for t, tr in traces if t > event.t + 1e-3]
    assert below and above
    assert min(below) > -2.0 > max(above)


def test_stall_reports_partial_branch():
    # the tracked parallel migrates to the band edge, the corrector starts
    # failing on band exits, and the step collapses
    path = MetricPath(
        MetricSpec.revolution("poly", (0.8, 0.0, -0.4), (-0.6, 0.6)),
        MetricSpec.revolution("poly", (0.8, 0.56, -0.4), (-0.6, 0.6)))
    start = solver.refine_to_geodesic(loops.parallel_circle(path.start, 0.0, 128))
    with pytest.raises(solver.StallError) as excinfo:
        continuation.continue_branch(path, start, max_steps=300)
    partial = excinfo.value.partial
    assert partial.stop_reason == "stall"
    assert len(partial.points) > 5
    # the parallel leaves the band where 0.7 t = 0.6
    assert abs(partial.points[-1].t - 6.0 / 7.0) < 0.02


def test_continue_branch_refines_at_its_tolerance(fold_path, pd_path, monkeypatch):
    # the start point, both end points, the period-doubling bisection and
    # t*, and the fold's final solve all refine at the caller's tolerance
    tols = []
    real_refine = solver.refine_to_geodesic

    def refine(seed, tol=1e-10, **kwargs):
        tols.append(tol)
        return real_refine(seed, tol=tol, **kwargs)

    monkeypatch.setattr(solver, "refine_to_geodesic", refine)
    fold = continuation.continue_branch(
        fold_path, loops.parallel_circle(fold_path.start, 0.55, 128), tol=1e-11)
    pd = continuation.continue_branch(
        pd_path, loops.great_circle_seed(pd_path.start, np.eye(3)[0], np.eye(3)[1], 128),
        tol=1e-11)
    assert fold.stop_reason == "returned_to_start"
    assert [e.kind for e in fold.events] == ["fold"]
    assert pd.stop_reason == "reached_end"
    assert [e.kind for e in pd.events] == ["period_doubling"]
    assert len(tols) > len(fold.points) + len(pd.points)
    assert set(tols) == {1e-11}
