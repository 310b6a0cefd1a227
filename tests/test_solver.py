"""Census, Newton refinement, and the quadrature cross-check of closed orbits.

The ellipsoid perimeters are checked against the complete elliptic integral,
and the oscillating orbit on a barrel profile is computed twice: once by the
Clairaut quadrature (which never touches the discrete solver) and once by
Newton refinement of a synthetic seed.

The Newton kernel is checked against reference implementations kept here.
The stacked residual must reproduce the ``np.roll`` / ``np.sum`` /
``np.linalg.norm`` residual bit for bit.  The colored Jacobian in folded
band storage must hold the per-color COO loop's differences bit for bit
and match a dense one-column-at-a-time difference, and the analytic
Jacobian of the induced-metric families must match the colored
differences to their truncation error.  The bordered solve, a
band LU with the borders eliminated around it, must agree with
``np.linalg.solve`` of the bordered matrix assembled densely.  Its stacked
form, and the stacked Jacobian blocks, must give every loop the bits of a
batch of one and of the per-loop solve kept here, and a seed whose system
is singular must fail alone.
"""

import functools
import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geocount import geometry, jacobi, loops, solver
from geocount.geometry import GeometryError, MetricSpec

# barrel with a (p, q) = (1, 1) oscillating geodesic; bracket established by
# scanning delta_phi(c) across the admissible Clairaut constants
BARREL = ("poly", (0.8, 0.0, -0.8), (-0.6, 0.6))
BARREL_BRACKET = (0.52, 0.62)
# the conformal sphere at the start of the acceptance tests' period-doubling path
PD_TERMS_START = ((1, 1, 0.05), (2, 0, 0.16), (2, 2, 0.08), (3, 3, 0.03))


def _ellipse_perimeter(a, b):
    big, small = max(a, b), min(a, b)
    return 4.0 * big * scipy.special.ellipe(1.0 - (small / big) ** 2)


def test_census_finds_the_three_principal_ellipses(ellipsoid_census):
    census = ellipsoid_census
    assert len(census.entries) == 3
    assert [e.ident for e in census.entries] == ["g000", "g001", "g002"]
    assert not census.degenerate_family
    cert = census.certificate
    assert cert["complete"]
    assert cert["max_residual"] < 1e-10
    assert cert["min_hits"] >= 1
    assert sum(e.hits for e in census.entries) == cert["converged"]


def test_census_lengths_match_elliptic_integrals(ellipsoid_census):
    axes = ellipsoid_census.metric.data
    semi = [1.0 / a for a in axes]
    expected = sorted(
        _ellipse_perimeter(semi[j], semi[k])
        for j, k in ((0, 1), (0, 2), (1, 2)))
    got = sorted(e.result.length for e in ellipsoid_census.entries)
    assert np.allclose(got, expected, rtol=1e-10)


def test_no_class_is_a_rotation_of_its_reversal(ellipsoid_census):
    # every class stands for two oriented geodesics: c(-t) = c(t + s) for all
    # t would force c'(s/2) = 0
    conformal = MetricSpec.conformal_sphere(PD_TERMS_START)
    equator = solver.refine_to_geodesic(
        loops.great_circle_seed(conformal, np.eye(3)[0], np.eye(3)[1], 128))
    for res in [e.result for e in ellipsoid_census.entries] + [equator]:
        dedup_tol = 1e-6 * max(1.0, res.length)
        assert loops.loop_distance(res.loop, loops.reverse(res.loop)) > 1e5 * dedup_tol


def test_newton_refinement_is_quadratic(ellipsoid_spec):
    seed = loops.principal_ellipse(ellipsoid_spec, 0, 1, 128)
    rng = np.random.default_rng(3)
    nodes = np.asarray(seed.nodes) + 0.02 * rng.normal(size=(128, 3))
    nodes = geometry.surface_project(ellipsoid_spec, nodes)
    res = solver.refine_to_geodesic(loops.DiscreteLoop(ellipsoid_spec, nodes))
    assert res.residual < 1e-10
    assert res.convergence_order is not None and res.convergence_order > 1.7
    hist = np.asarray(res.history)
    assert np.all(hist[1:] < hist[:-1])
    assert abs(res.length - 6.1344978839181) < 1e-9


def test_refining_a_converged_loop_takes_no_step(ellipsoid_census):
    for entry in ellipsoid_census.entries:
        again = solver.refine_to_geodesic(entry.result.loop)
        assert again.iterations == 0
        assert len(again.history) == 1
        assert again.convergence_order is None
        assert np.array_equal(again.loop.nodes, entry.result.loop.nodes)


def test_refined_geodesic_stays_on_surface(ellipsoid_census):
    for entry in ellipsoid_census.entries:
        nodes = np.asarray(entry.result.loop.nodes)
        assert np.max(np.abs(geometry.constraint(entry.result.loop.metric, nodes))) < 1e-9
        assert entry.result.constraint_defect < 1e-9


def test_census_below_shortest_length_is_empty(ellipsoid_spec):
    census = solver.find_all(ellipsoid_spec, 0.5, mesh=128, planes=8, seed=7)
    assert census.entries == ()
    assert census.certificate["classes"] == 0


def test_clairaut_quadrature_closes_the_unit_resonance():
    spec = MetricSpec.revolution(*BARREL)
    res = solver.clairaut_find_closed(spec, 1, 1, BARREL_BRACKET)
    assert res.closes
    assert (res.p, res.q) == (1, 1)
    assert res.defect < 1e-10
    assert abs(res.delta_phi - 2 * np.pi) < 1e-10
    assert abs(res.turning[0] + res.turning[1]) < 1e-10  # symmetric profile
    assert not res.leaves_band


def test_clairaut_and_discrete_routes_agree():
    spec = MetricSpec.revolution(*BARREL)
    shot = solver.clairaut_find_closed(spec, 1, 1, BARREL_BRACKET)
    n = 256
    ts = np.arange(n) / n
    mid = 0.5 * (shot.turning[0] + shot.turning[1])
    half = 0.5 * (shot.turning[1] - shot.turning[0])
    zs = mid + half * np.sin(2 * np.pi * ts)
    phis = 2 * np.pi * ts
    rr = 0.8 - 0.8 * zs * zs
    nodes = np.stack([rr * np.cos(phis), rr * np.sin(phis), zs], axis=1)
    refined = solver.refine_to_geodesic(loops.DiscreteLoop(spec, nodes))
    assert refined.residual < 1e-10
    assert abs(refined.length - shot.length) < 1e-8

    # the refined orbit conserves r^2 phi' at the quadrature's Clairaut value
    from geocount import _spectral
    vel = _spectral.derivative(np.asarray(refined.loop.nodes))
    speeds = np.linalg.norm(vel, axis=1)
    x, y = refined.loop.nodes[:, 0], refined.loop.nodes[:, 1]
    c_vals = (x * vel[:, 1] - y * vel[:, 0]) / speeds
    assert np.max(np.abs(c_vals - shot.clairaut)) < 1e-4


def test_clairaut_shoot_leaves_band_flag():
    spec = MetricSpec.revolution(*BARREL)
    res = solver.clairaut_shoot(spec, 0.30)
    assert res.leaves_band


def test_parallel_heights():
    barrel = MetricSpec.revolution(*BARREL)
    hs = solver.parallel_heights(barrel)
    assert len(hs) == 1 and abs(hs[0]) < 1e-12
    cubic = MetricSpec.revolution("poly", (1.0, -0.02, 0.0, 0.1 / 3.0), (-1.0, 1.0))
    hs = sorted(solver.parallel_heights(cubic))
    assert len(hs) == 2
    assert np.allclose(hs, [-np.sqrt(0.2), np.sqrt(0.2)], atol=1e-10)


def test_revolution_census_seeds_close_critical_parallels():
    # r' = -(z - 0.01)(z - 0.04): two geodesic parallels closer together
    # than a coarse height grid can separate
    spec = MetricSpec.revolution("poly", (1.0, -0.0004, 0.025, -1.0 / 3.0), (-1.0, 1.0))
    assert np.allclose(sorted(solver.parallel_heights(spec)), [0.01, 0.04], atol=1e-10)
    census = solver.find_all(spec, 7.0, mesh=128, planes=24)
    assert len(census.entries) == 2


def _sign_changing(kind, root, scale, power, wiggle):
    if kind == 0:
        return lambda x: scale * (x - root)
    if kind == 1:
        return lambda x: scale * ((x - root) ** power + wiggle * (x - root) ** 3)
    if kind == 2:
        return lambda x: math.tanh(scale * (x - root)) + 1e-3 * wiggle
    return lambda x: math.sin(7.0 * x + wiggle) - 0.5 * root


@settings(max_examples=300)
@given(kind=st.integers(0, 3), root=st.floats(-1.0, 1.0),
       log_scale=st.floats(-250.0, 5.0), power=st.integers(1, 5),
       wiggle=st.floats(-2.0, 2.0), a=st.floats(-2.0, -0.5), b=st.floats(0.5, 2.0))
def test_bisect_brackets_a_root_to_the_last_bit(kind, root, log_scale, power, wiggle, a, b):
    f = _sign_changing(kind, root, 10.0 ** log_scale, power, wiggle)
    assume(np.sign(f(a)) * np.sign(f(b)) <= 0.0)
    x = solver._bisect(f, a, b)
    assert type(x) is float
    assert a <= x <= b
    fx = f(x)
    assert fx == 0.0 or any(np.sign(f(np.nextafter(x, to))) == -np.sign(fx)
                            for to in (-np.inf, np.inf))


def test_bisect_returns_a_root_at_an_endpoint():
    for a, b in ((0.25, 1.0), (-1.0, 0.25)):
        assert solver._bisect(lambda x: x - 0.25, a, b) == 0.25


@pytest.mark.parametrize("f", [
    lambda x: x * x + 1.0,                    # same sign at both ends
    lambda x: 1e-200 * (x + 2.0),             # same sign, f(a) f(b) underflows
    lambda x: math.nan,                       # nan at the ends
    lambda x: math.nan if x == 0.0 else x,    # nan at the first midpoint
])
def test_bisect_refuses_a_bracket_without_a_sign_change_and_nan(f):
    with pytest.raises(ValueError):
        solver._bisect(f, -1.0, 1.0)


def test_bisect_calls_f_at_the_low_end_first_and_propagates_its_exception():
    class Stop(Exception):
        pass

    calls = []

    def f(x):
        calls.append(x)
        raise Stop

    with pytest.raises(Stop):
        solver._bisect(f, -1.0, 1.0)
    assert calls == [-1.0]


def test_clairaut_find_closed_propagates_a_band_exit():
    # the bracket's low end, c = 0.30, gives an orbit that leaves the band
    with pytest.raises(geometry.BandExitError, match="leave the band"):
        solver.clairaut_find_closed(MetricSpec.revolution(*BARREL), 1, 1, (0.30, 0.62))


def test_census_certificate_accounts_for_every_seed(ellipsoid_spec):
    # below 6.3 lies only the shortest principal ellipse (6.134); the seeds
    # that converge to the two longer ones are counted above the bound
    cert = solver.find_all(ellipsoid_spec, 6.3, mesh=128, planes=24, seed=7).certificate
    assert (cert["seeds"], cert["converged"], cert["above_bound"]) == (24, 9, 15)
    assert cert["seeds"] == sum(cert[k] for k in (
        "converged", "above_bound", "stalled", "diverged", "collapsed", "band_exits"))


def _failure(solved):
    """The one failure of a bordered solve on a batch of one."""
    sol, failed = solved
    assert list(failed) == [0] and not np.any(sol)
    return failed[0]


def test_refinement_keeps_collapse_apart_from_a_singular_solve(ellipsoid_spec, monkeypatch):
    # the collapse check comes before the band is asked for
    exc = _failure(solver._bordered_solve(None, np.zeros((1, 16, 3)), np.zeros((1, 49))))
    assert type(exc) is solver.CollapseError
    seed = loops.great_circle_seed(ellipsoid_spec, np.eye(3)[0], np.eye(3)[1], 64)
    nodes = np.asarray(seed.nodes)[None]
    exc = _failure(solver._bordered_solve(
        lambda k: np.zeros((25, 192)), nodes, np.zeros((1, 193))))
    assert type(exc) is RuntimeError and "singular" in str(exc)
    identity = np.zeros((25, 192))
    identity[16] = 1.0                        # the main diagonal, row 2 kl
    exc = _failure(solver._bordered_solve(    # a zero extra row and column
        lambda k: identity, nodes, np.zeros((1, 194)), np.zeros((1, 192)), np.zeros((1, 193))))
    assert type(exc) is RuntimeError and "singular" in str(exc)
    for raised, expected in ((solver.CollapseError("collapsed"), solver.CollapseError),
                             (RuntimeError("singular matrix"), solver.StallError)):
        def fail(band, nodes, rhs, raised=raised):
            return np.zeros_like(rhs), dict.fromkeys(range(len(nodes)), raised)
        monkeypatch.setattr(solver, "_bordered_solve", fail)
        with pytest.raises(expected):
            solver.refine_to_geodesic(seed)


def test_census_counts_failed_seeds_by_class(ellipsoid_spec, monkeypatch, caplog):
    real_seeds = solver._census_seeds
    real_refine = solver.refine_many
    raised = {0: solver.StallError, 1: solver.DivergenceError, 2: solver.DivergenceError,
              3: solver.CollapseError, 4: solver.CollapseError, 5: solver.CollapseError,
              6: geometry.BandExitError}
    seeds = []

    def census_seeds(*args):
        seeds.extend(real_seeds(*args))
        return seeds

    def failure(seed):
        for k, exc in raised.items():
            if seed is seeds[k]:
                return exc(f"seed {k}")
        return None

    def refine(batch, tol=1e-10):
        refined = iter(real_refine([s for s in batch if failure(s) is None], tol=tol))
        return [failure(s) or next(refined) for s in batch]

    monkeypatch.setattr(solver, "_census_seeds", census_seeds)
    monkeypatch.setattr(solver, "refine_many", refine)
    caplog.set_level(logging.DEBUG, logger="geocount")
    census = solver.find_all(ellipsoid_spec, 7.0, mesh=64, planes=12, seed=7)
    cert = census.certificate
    assert (cert["stalled"], cert["diverged"], cert["collapsed"], cert["band_exits"]) \
        == (1, 2, 3, 1)
    assert cert["converged"] == 12 - 7
    messages = [r.getMessage() for r in caplog.records]
    assert messages[:7] == [
        "seed 0: stalled: seed 0", "seed 1: diverged: seed 1", "seed 2: diverged: seed 2",
        "seed 3: collapsed: seed 3", "seed 4: collapsed: seed 4",
        "seed 5: collapsed: seed 5", "seed 6: band_exits: seed 6"]
    assert all(re.fullmatch(rf"seed {k}: converged in \d+ iterations", messages[k])
               for k in range(7, 12))
    assert len(messages) == 12
    assert {r.name for r in caplog.records} == {"geocount.solver"}
    assert {r.levelno for r in caplog.records} == {logging.DEBUG}

    raised = {k: solver.StallError for k in range(12)}
    seeds.clear()
    with pytest.raises(solver.StallError, match="no convergent seed"):
        solver.find_all(ellipsoid_spec, 7.0, mesh=64, planes=12, seed=7)


def test_census_logs_the_iterations_of_each_seed(ellipsoid_spec, monkeypatch, caplog):
    # the first seed converges to a double cover of an 18-node loop, whose
    # base is resampled to 32 nodes and refined again: its logged count
    # covers both refinements.  The census refines both seeds in one batch,
    # then the base
    ellipse = np.asarray(loops.principal_ellipse(ellipsoid_spec, 0, 1, 72).nodes)
    rng = np.random.default_rng(3)
    kicked = geometry.surface_project(
        ellipsoid_spec, ellipse[::2] + 0.02 * rng.normal(size=(36, 3)))
    seeds = [loops.DiscreteLoop(ellipsoid_spec, np.tile(ellipse[::4], (2, 1))),
             loops.DiscreteLoop(ellipsoid_spec, kicked)]
    iterations = []
    real_refine = solver.refine_many

    def refine(batch, tol=1e-10):
        out = real_refine(batch, tol=tol)
        iterations.extend(res.iterations for res in out)
        return out

    monkeypatch.setattr(solver, "_census_seeds", lambda *args: seeds)
    monkeypatch.setattr(solver, "refine_many", refine)
    caplog.set_level(logging.DEBUG, logger="geocount")
    solver.find_all(ellipsoid_spec, 7.0, mesh=64, planes=2)
    assert len(iterations) == 3 and min(iterations) > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"seed 0: converged in {iterations[0] + iterations[2]} iterations",
        f"seed 1: converged in {iterations[1]} iterations"]
    assert caplog.records[0].args == (0, iterations[0] + iterations[2])


def _seed_outcomes(records):
    """Each logged seed's outcome class: ``converged`` or the failure class."""
    return [re.fullmatch(r"seed \d+: (converged|\w+)\b.*", r.getMessage()).group(1)
            for r in records]


def test_nested_census_matches_the_single_mesh_census(ellipsoid_spec, monkeypatch, caplog):
    # a coarse mesh equal to the target mesh is the single-mesh census
    caplog.set_level(logging.DEBUG, logger="geocount")
    nested = solver.find_all(ellipsoid_spec, 7.0, mesh=128, planes=24, seed=7)
    nested_outcomes = _seed_outcomes(caplog.records)
    assert all(re.fullmatch(r"seed \d+: converged in \d+ \+ \d+ iterations", r.getMessage())
               for r in caplog.records)
    caplog.clear()
    monkeypatch.setattr(solver, "_COARSE_MESH", 128)
    single = solver.find_all(ellipsoid_spec, 7.0, mesh=128, planes=24, seed=7)
    assert all(re.fullmatch(r"seed \d+: converged in \d+ iterations", r.getMessage())
               for r in caplog.records)
    assert _seed_outcomes(caplog.records) == nested_outcomes
    assert len(nested_outcomes) == 24

    assert len(nested.entries) == len(single.entries) == 3
    for got, want in zip(nested.entries, single.entries):
        assert got.hits == want.hits
        assert abs(got.result.length - want.result.length) <= 1e-9
        assert got.result.loop.n == want.result.loop.n == 128
        assert min(loops.loop_distance(got.result.loop, want.result.loop),
                   loops.loop_distance(got.result.loop, loops.reverse(want.result.loop))) <= 1e-7
        got_rep = jacobi.jacobi_report(got.result, d_max=2)
        want_rep = jacobi.jacobi_report(want.result, d_max=2)
        assert [(r.iota, r.nu) for r in got_rep.indices] \
            == [(r.iota, r.nu) for r in want_rep.indices]


def test_census_counts_a_fine_mesh_failure_by_its_class(ellipsoid_spec, monkeypatch, caplog):
    # seed 0 converges on the coarse mesh and stalls on the fine one; seed 1
    # diverges on the coarse mesh and must never reach the fine one
    real_seeds = solver._census_seeds
    real_refine = solver.refine_many
    seeds = []
    calls = []

    def census_seeds(*args):
        seeds.extend(real_seeds(*args))
        return seeds

    def refine_one(seed, tol):
        calls.append(seed.n)
        if seed is seeds[1]:
            return solver.DivergenceError("seed 1")
        if seed.n == 128 and calls.count(128) == 1:
            return solver.StallError("no convergence on 128 nodes")
        return real_refine([seed], tol=tol)[0]

    monkeypatch.setattr(solver, "_census_seeds", census_seeds)
    monkeypatch.setattr(solver, "refine_many",
                        lambda batch, tol=1e-10: [refine_one(s, tol) for s in batch])
    caplog.set_level(logging.DEBUG, logger="geocount")
    census = solver.find_all(ellipsoid_spec, 7.0, mesh=128, planes=3, seed=7)
    assert [s.n for s in seeds] == [64, 64, 64]
    assert calls == [64, 64, 64, 128, 128]
    cert = census.certificate
    assert (cert["converged"], cert["stalled"], cert["diverged"]) == (1, 1, 1)
    messages = [r.getMessage() for r in caplog.records]
    assert messages[:2] == ["seed 0: stalled: fine mesh: no convergence on 128 nodes",
                            "seed 1: diverged: seed 1"]
    assert re.fullmatch(r"seed 2: converged in \d+ \+ \d+ iterations", messages[2])
    assert len(messages) == 3


@settings(max_examples=4)
@given(order=st.permutations(range(24)))
def test_census_does_not_depend_on_seed_order(ellipsoid_spec, ellipsoid_census, order):
    real_seeds = solver._census_seeds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_census_seeds",
                   lambda *args: [real_seeds(*args)[i] for i in order])
        census = solver.find_all(ellipsoid_spec, 7.0, mesh=128, planes=24, seed=7)
    want = ellipsoid_census.entries
    assert len(census.entries) == len(want)
    for got, ref in zip(census.entries, want):
        assert got.result.length == ref.result.length
        assert np.array_equal(got.result.loop.nodes, ref.result.loop.nodes)
        assert got.hits == ref.hits


def test_census_representatives_survive_a_change_in_the_last_bits(
        ellipsoid_spec, ellipsoid_census, monkeypatch):
    # another difference step moves the last bits of every refinement made
    # with the colored differences; each class must keep its
    # representative's seed, so node 0 and the orientation stay put and no
    # rotation alignment is needed
    def fd_blocks(spec, nodes):
        return np.stack([solver._fd_jacobian(spec, x) for x in nodes])

    monkeypatch.setattr(solver, "_jacobian_blocks", fd_blocks)
    runs = []
    for step in (6e-6, 6.1e-6):
        monkeypatch.setattr(solver, "_FD_STEP", step)
        runs.append(solver.find_all(ellipsoid_spec, 7.0, mesh=128, planes=24, seed=7))
    for census in runs:
        assert [e.hits for e in census.entries] == [e.hits for e in ellipsoid_census.entries]
    for got, ref in zip(runs[1].entries, runs[0].entries):
        assert np.max(np.abs(got.result.loop.nodes - ref.result.loop.nodes)) <= 1e-8


def test_refined_double_cover_doubles_the_orbit(ellipsoid_census):
    entry = ellipsoid_census.entries[0]
    cover = solver.refine_to_geodesic(loops.cover(entry.result.loop, 2))
    assert abs(cover.length - 2 * entry.result.length) < 1e-8
    assert cover.residual < 1e-10
    dec = loops.primitive_decompose(cover.loop)
    assert dec.degree == 2


def test_iterate_table_lists_degrees_up_to_the_bound(ellipsoid_census):
    rows = list(solver.iterates(ellipsoid_census))
    assert all(d * entry.result.length <= 7.0 + 1e-9 for entry, d in rows)
    assert {d for _, d in rows} == {1}
    longer = solver.find_all(
        ellipsoid_census.metric, 13.0, mesh=128, planes=24, seed=7)
    degrees = {d for _, d in solver.iterates(longer)}
    assert degrees == {1, 2}


# ---------------------------------------------------------------------------
# the Newton kernel against its reference implementations
# ---------------------------------------------------------------------------

KERNEL_SPECS = {
    "ellipsoid": MetricSpec.ellipsoid((1.05, 1.0, 0.95)),
    "revolution": MetricSpec.revolution(*BARREL),
    "conformal": MetricSpec.conformal_sphere(
        ((1, 1, 0.05), (2, 0, 0.16), (2, 2, 0.08), (3, 3, 0.03))),
    "ellipsoid4": MetricSpec.ellipsoid((1.0, 1.1, 0.9, 1.2)),
}
# more profiles for the analytic Jacobian, which reads their Hessians
PROFILE_SPECS = {
    "cosh": MetricSpec.revolution("cosh", (1.0, 0.1), (-0.6, 0.6)),
    "ellipse": MetricSpec.revolution("ellipse", (1.0, 1.3), (-0.9, 0.9)),
}
INDUCED = ("ellipsoid", "ellipsoid4", "revolution", "cosh", "ellipse")


def _kernel_nodes(name, n, seed=0, amplitude=0.02):
    """A randomly perturbed loop on the surface, not a geodesic."""
    spec = KERNEL_SPECS.get(name) or PROFILE_SPECS[name]
    if spec.family == "revolution":
        base = loops.parallel_circle(spec, 0.1, n).nodes
    elif name == "conformal":
        base = loops.great_circle_seed(spec, np.eye(3)[0], np.eye(3)[2], n).nodes
    else:
        base = loops.principal_ellipse(spec, 0, spec.ambient_dim - 1, n).nodes
    rng = np.random.default_rng(seed)
    nodes = np.asarray(base) + amplitude * rng.normal(size=base.shape)
    return spec, geometry.surface_project(spec, nodes)


def _reference_constraint(spec, x):
    """Reference: the constraint with ``np.sum`` over the coordinate axis."""
    if spec.family == "ellipsoid":
        return np.sum((np.asarray(spec.data) * x) ** 2, axis=-1) - 1.0
    if spec.family == "conformal_sphere":
        return np.sum(x * x, axis=-1) - 1.0
    return geometry.constraint(spec, x)        # the profile has no such sum


def _reference_surface_project(spec, x):
    if spec.family == "ellipsoid":
        return x / np.sqrt(np.sum((np.asarray(spec.data) * x) ** 2, axis=-1, keepdims=True))
    if spec.family == "conformal_sphere":
        return x / np.linalg.norm(x, axis=-1, keepdims=True)
    return geometry.surface_project(spec, x)


def _reference_residual(spec, nodes):
    """Reference: the residual with np.roll shifts and numpy's reductions."""
    n = nodes.shape[-2]
    xp = np.roll(nodes, -1, axis=-2)
    xm = np.roll(nodes, 1, axis=-2)
    d2 = (xp - 2.0 * nodes + xm) * (n * n)
    v = (xp - xm) * (0.5 * n)
    f = _reference_constraint(spec, nodes)
    g = geometry.constraint_grad(spec, nodes)
    nu = g / np.linalg.norm(g, axis=-1, keepdims=True)
    acc = d2
    if spec.family == "conformal_sphere":
        du = geometry.conformal_grad(spec, nodes)
        acc = acc + 2.0 * np.sum(du * v, axis=-1, keepdims=True) * v \
            - np.sum(v * v, axis=-1, keepdims=True) * du
    tan = acc - np.sum(acc * nu, axis=-1, keepdims=True) * nu
    return tan + (n * n * f)[..., None] * nu, tan, f


def _reference_velocity(nodes):
    return (np.roll(nodes, -1, axis=0) - np.roll(nodes, 1, axis=0)) * (0.5 * nodes.shape[0])


def _reference_metric_dot(spec, x, v, w):
    dot = np.sum(v * w, axis=-1)
    if spec.family == "conformal_sphere":
        dot = dot * np.exp(2.0 * geometry.conformal_exponent(spec, x))
    return dot


def _same_bits(got, want):
    """Equal values with equal signs of zero."""
    return (np.shape(got) == np.shape(want) and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.sampled_from([0.0, 1e-6, 0.02]),
       n4=st.integers(4, 16), stack=st.integers(0, 13))
def test_kernel_matches_the_reference_bit_for_bit(name, seed, amplitude, n4, stack):
    # amplitude 0 keeps exact zeros in the coordinates, where the sign of a
    # zero sum shows; stack 0 is a single loop
    spec = KERNEL_SPECS[name]
    loops_ = [_kernel_nodes(name, 4 * n4, seed + k, amplitude)[1] for k in range(max(stack, 1))]
    nodes = np.stack(loops_) if stack else loops_[0]
    rng = np.random.default_rng(seed)
    raw = nodes + 0.01 * rng.normal(size=nodes.shape)
    assert _same_bits(geometry.surface_project(spec, raw), _reference_surface_project(spec, raw))
    assert _same_bits(geometry.constraint(spec, raw), _reference_constraint(spec, raw))
    for got, want in zip(solver.residual_field(spec, nodes), _reference_residual(spec, nodes)):
        assert _same_bits(got, want)
    single = loops_[0]
    vel = solver._velocity(single)
    assert _same_bits(vel, _reference_velocity(single))
    other = np.roll(vel, 3, axis=0)
    assert _same_bits(geometry.metric_dot(spec, single, vel, other),
                      _reference_metric_dot(spec, single, vel, other))
    tan = _reference_residual(spec, single)[1]
    ell = float(np.mean(np.sqrt(_reference_metric_dot(spec, single, vel, vel))))
    want = float(np.max(np.linalg.norm(tan, axis=1))) / max(1.0, ell * ell)
    assert solver._scaled_residual(spec, single)[0] == want


@settings(max_examples=40)
@given(m=st.integers(1, 12), shape=st.sampled_from([(), (5,), (3, 7)]),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.booleans())
def test_dot_sums_like_numpy(m, shape, seed, zeros):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape + (m,))
    y = rng.normal(size=shape + (m,))
    if zeros:   # every product a signed zero
        x = np.where(rng.random(x.shape) < 0.5, -0.0, 0.0)
    assert _same_bits(geometry._dot(x, y), np.sum(x * y, axis=-1))


def _coo_jacobian(spec, nodes):
    """Reference: one residual pair per color and coordinate, COO assembly."""
    n, m = nodes.shape
    h = solver._FD_STEP * max(1.0, float(np.max(np.abs(nodes))))
    rows, cols, data = [], [], []
    for color in range(4):
        js = np.arange(color, n, 4)
        for d in range(m):
            bump = np.zeros_like(nodes)
            bump[js, d] = h
            rp = solver.residual_field(spec, nodes + bump)[0]
            rm = solver.residual_field(spec, nodes - bump)[0]
            diff = (rp - rm) / (2.0 * h)
            for off in (-1, 0, 1):
                ridx = (js + off) % n
                block = diff[ridx]
                for comp in range(m):
                    rows.append(ridx * m + comp)
                    cols.append(js * m + d)
                    data.append(block[:, comp])
    rows, cols, data = (np.concatenate(a) for a in (rows, cols, data))
    return scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n * m, n * m)).tocsc()


def _dense_jacobian(spec, nodes):
    """Reference: one central difference per column, no coloring."""
    n, m = nodes.shape
    h = solver._FD_STEP * max(1.0, float(np.max(np.abs(nodes))))
    out = np.empty((n * m, n * m))
    for col in range(n * m):
        bump = np.zeros(n * m)
        bump[col] = h
        bump = bump.reshape(n, m)
        rp = solver.residual_field(spec, nodes + bump)[0]
        rm = solver.residual_field(spec, nodes - bump)[0]
        out[:, col] = ((rp - rm) / (2.0 * h)).reshape(-1)
    return out


def _folded_order(n, m):
    """Reference: the flattened coordinates of nodes 0, N-1, 1, N-2, ..."""
    order = [j for k in range(n // 2) for j in (k, n - 1 - k)] + [n // 2] * (n % 2)
    return (np.asarray(order)[:, None] * m + np.arange(m)).reshape(-1)


def _band_dense(band, m):
    """Reference: the dense matrix held in a (3 kl + 1, size) LAPACK band array."""
    kl = 3 * m - 1
    size = band.shape[1]
    out = np.zeros((size, size))
    for off in range(-kl, kl + 1):            # off = row - column
        out += np.diag(band[2 * kl + off, max(0, -off):size - max(0, off)], -off)
    return out


def _reference_bordered_solve(jac, nodes, rhs, extra_col=None, extra_row=None):
    """Reference: the bordered solve of one loop, its border rows and
    columns built for that loop and folded by fancy indexing."""
    vel = solver._velocity(nodes)
    n, m = nodes.shape
    w = vel.reshape(-1)
    wn = np.linalg.norm(w)
    size = n * m
    kl = 3 * m - 1
    fold = _folded_order(n, m)
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
    lu, piv, _ = scipy.linalg.lapack.dgbtrf(jac, kl, kl)
    rhs_top = rhs[:size][fold]
    z = scipy.linalg.lapack.dgbtrs(lu, kl, kl, np.column_stack([rhs_top, right]), piv)[0]
    schur = corner - below @ z[:, 1:]

    def eliminate(x0, rhs_bottom):
        y = np.linalg.solve(schur, rhs_bottom - below @ x0)
        return x0 - z[:, 1:] @ y, y

    x, y = eliminate(z[:, 0], rhs[size:])
    band_jx = scipy.linalg.blas.dgbmv(size, size, kl, kl, 1.0, jac[kl:], x)
    res_top = rhs_top - band_jx - right @ y
    res_bottom = rhs[size:] - below @ x - corner @ y
    dx0 = scipy.linalg.lapack.dgbtrs(lu, kl, kl, res_top[:, None], piv)[0][:, 0]
    dx, dy = eliminate(dx0, res_bottom)
    out = np.empty(size + len(y))
    out[fold] = x + dx
    out[size:] = y + dy
    return out


def _bordered_dense(jac, nodes, extra_col=None, extra_row=None):
    """Reference: the bordered matrix assembled densely in the natural order."""
    n, m = nodes.shape
    fold = _folded_order(n, m)
    dense = np.empty((n * m, n * m))
    dense[np.ix_(fold, fold)] = _band_dense(jac, m)
    vel = solver._velocity(nodes)
    w = vel.reshape(-1) / np.linalg.norm(vel)
    gauge = np.zeros((1, n * m))
    gauge[0, :m] = vel[0] / np.linalg.norm(vel[0])
    if extra_col is None:
        return np.block([[dense, w[:, None]], [gauge, np.zeros((1, 1))]])
    return np.block([[dense, extra_col[:, None], w[:, None]],
                     [gauge, np.zeros((1, 2))],
                     [extra_row[None, :-1], np.array([[extra_row[-1], 0.0]])]])


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.05))
def test_stacked_residual_equals_single_calls(name, seed, amplitude):
    spec = KERNEL_SPECS[name]
    stack = np.stack([_kernel_nodes(name, 16, seed + k, amplitude)[1] for k in range(3)])
    fields = solver.residual_field(spec, stack)
    for k in range(3):
        for got, want in zip(fields, solver.residual_field(spec, stack[k])):
            assert np.array_equal(got[k], want)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_fd_jacobian_matches_the_per_color_loop(name):
    # the blocks' band holds the per-color differences bit for bit, in the
    # folded order, and the first kl rows are left free for the LU
    spec, nodes = _kernel_nodes(name, 32)
    n, m = nodes.shape
    fold = _folded_order(n, m)
    assert np.array_equal(solver._band_pattern(n, m)[1], fold)
    blocks = solver._fd_jacobian(spec, nodes)
    assert blocks.shape == (n, 3, m, m)
    jac = solver._band(blocks)
    assert jac.shape == (9 * m - 2, n * m)
    assert not np.any(jac[:3 * m - 1])
    folded = np.ix_(fold, fold)
    assert np.array_equal(_band_dense(jac, m), _coo_jacobian(spec, nodes).toarray()[folded])
    assert np.allclose(_band_dense(jac, m), _dense_jacobian(spec, nodes)[folded],
                       rtol=1e-12, atol=1e-12)


def test_fd_jacobian_makes_two_residual_calls(monkeypatch):
    spec, nodes = _kernel_nodes("ellipsoid4", 32)
    calls = []
    real = solver.residual_field
    monkeypatch.setattr(solver, "residual_field",
                        lambda spec, x: calls.append(x.shape) or real(spec, x))
    solver._fd_jacobian(spec, nodes)
    assert calls == [(16, 32, 4)] * 2


@pytest.mark.parametrize("name", INDUCED)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.05),
       n=st.sampled_from([32, 64]))
def test_analytic_jacobian_matches_the_colored_differences(name, seed, amplitude, n):
    spec, nodes = _kernel_nodes(name, n, seed, amplitude)
    m = nodes.shape[1]
    jac = solver._jacobian(spec, nodes)
    assert jac.shape == (9 * m - 2, n * m)
    assert not np.any(jac[:3 * m - 1])
    fold = _folded_order(n, m)
    want = _coo_jacobian(spec, nodes).toarray()[np.ix_(fold, fold)]
    assert np.max(np.abs(_band_dense(jac, m) - want)) <= 1e-8 * np.max(np.abs(want))


def test_conformal_jacobian_is_the_colored_differences():
    spec, nodes = _kernel_nodes("conformal", 32)
    assert np.array_equal(solver._jacobian(spec, nodes),
                          solver._band(solver._fd_jacobian(spec, nodes)))


def _induced_stack(name, n, seed, amplitude, b):
    spec = KERNEL_SPECS.get(name) or PROFILE_SPECS[name]
    return spec, np.stack([_kernel_nodes(name, n, seed + k, amplitude)[1] for k in range(b)])


@pytest.mark.parametrize("name", INDUCED)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.05),
       n=st.sampled_from([32, 64]), b=st.integers(1, 5))
def test_stacked_blocks_scatter_into_each_loops_jacobian(name, seed, amplitude, n, b):
    spec, stack = _induced_stack(name, n, seed, amplitude, b)
    m = stack.shape[-1]
    blocks = solver._jacobian_blocks(spec, stack)
    assert blocks.shape == (b, n, 3, m, m)
    for k in range(b):
        assert np.array_equal(solver._band(blocks[k]), solver._jacobian(spec, stack[k]))


@pytest.mark.parametrize("name", INDUCED)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.05), b=st.integers(1, 5))
def test_stacked_bordered_solve_equals_batches_of_one(name, seed, amplitude, b):
    spec, stack = _induced_stack(name, 32, seed, amplitude, b)
    blocks = solver._jacobian_blocks(spec, stack)
    rhs = np.random.default_rng(seed).normal(size=(b, stack[0].size + 1))
    got, failed = solver._bordered_solve(lambda k: solver._band(blocks[k]), stack, rhs)
    assert not failed
    for k in range(b):
        jac = solver._jacobian(spec, stack[k])
        one, failed = solver._bordered_solve(lambda _: jac, stack[k:k + 1], rhs[k:k + 1])
        assert not failed
        assert np.array_equal(got[k], one[0])
        assert np.array_equal(one[0], _reference_bordered_solve(jac, stack[k], rhs[k]))


@pytest.mark.parametrize("name", INDUCED)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.05))
def test_bordered_solve_with_an_extra_column_keeps_the_bits_of_one_loop(name, seed, amplitude):
    # continuation's tangent and corrector solve a batch of one with the
    # path column and the arclength row
    spec, stack = _induced_stack(name, 32, seed, amplitude, 1)
    size = stack[0].size
    rng = np.random.default_rng(seed)
    extra_col, extra_row = rng.normal(size=size), rng.normal(size=size + 1)
    rhs = rng.normal(size=size + 2)
    jac = solver._jacobian(spec, stack[0])
    got, failed = solver._bordered_solve(
        lambda k: jac, stack, rhs[None], extra_col[None], extra_row[None])
    assert not failed
    assert np.array_equal(got[0], _reference_bordered_solve(jac, stack[0], rhs, extra_col,
                                                            extra_row))


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_bordered_solve_matches_a_dense_solve(name, seed):
    spec, nodes = _kernel_nodes(name, 32, seed)
    n, m = nodes.shape
    jac = solver._jacobian(spec, nodes)
    rng = np.random.default_rng(seed)
    extra_col = rng.normal(size=n * m)
    extra_row = rng.normal(size=n * m + 1)
    for args in ((), (extra_col, extra_row)):
        rhs = rng.normal(size=n * m + 1 + len(args) // 2)
        want = np.linalg.solve(_bordered_dense(jac, nodes, *args), rhs)
        got, failed = solver._bordered_solve(
            lambda k: jac, nodes[None], rhs[None], *(a[None] for a in args))
        assert not failed
        assert np.max(np.abs(got[0] - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=40)
@given(name=st.sampled_from(["ellipsoid", "ellipsoid4"]), n=st.sampled_from([16, 64, 128, 256]),
       b=st.integers(1, 48), seed=st.integers(0, 2 ** 32 - 1),
       amplitude=st.sampled_from([0.0, 1e-6, 0.02]))
def test_stacked_trial_merits_equal_each_loops_squared_residual_sum(name, n, b, seed, amplitude):
    # m = 3 and m = 4; the line search compares these merits, so a trial
    # must score the same bits in any stack as on its own
    spec, base = _kernel_nodes(name, n, seed, amplitude)
    rng = np.random.default_rng(seed)
    stack = geometry.surface_project(spec, base + 0.01 * rng.normal(size=(b,) + base.shape))
    *fields, merits = solver._trial_fields(spec, stack)
    assert merits.shape == (b,)
    for k, x in enumerate(stack):
        full = solver.residual_field(spec, x)[0]
        assert np.array_equal(fields[0][k], full)
        assert merits[k] == np.sum(full ** 2)
        assert solver._trial_fields(spec, x)[3] == np.sum(full ** 2)


# calls and loops evaluated by each stacked kernel in one census of a
# perturbed round sphere at mesh 128 (coarse stage at 64 nodes): 5 seeds
# converge, 3 stall after the whole Newton budget
PINNED_CENSUS_CALLS = {
    "surface_project": (447, 1767),
    "residual_field": (436, 1767),
    "_scaled_residuals": (53, 291),
    "_newton_steps": (51, 278),
}


def test_a_census_makes_its_pinned_numbers_of_stacked_calls(monkeypatch):
    counts = {name: [0, 0] for name in PINNED_CENSUS_CALLS}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(spec, x, *args):
            counts[name][0] += 1
            counts[name][1] += 1 if np.ndim(x) == 2 else len(x)
            return real(spec, x, *args)
        monkeypatch.setattr(module, name, wrapper)

    counting(geometry, "surface_project")
    for name in ("residual_field", "_scaled_residuals", "_newton_steps"):
        counting(solver, name)
    census = solver.find_all(MetricSpec.ellipsoid((1.004, 0.998, 1.0)), 7.0,
                             mesh=128, planes=8, seed=1)
    assert (census.certificate["converged"], census.certificate["stalled"]) == (5, 3)
    assert {name: tuple(c) for name, c in counts.items()} == PINNED_CENSUS_CALLS


def test_refinement_evaluates_each_residual_once(ellipsoid_spec, monkeypatch):
    seed = loops.principal_ellipse(ellipsoid_spec, 0, 1, 64)
    rng = np.random.default_rng(3)
    nodes = geometry.surface_project(
        ellipsoid_spec, np.asarray(seed.nodes) + 0.02 * rng.normal(size=(64, 3)))
    single, stacked, trials = [], [], []
    real_residual = solver.residual_field
    real_project = geometry.surface_project

    def residual(spec, x):
        (single if x.ndim == 2 else stacked).append(x.tobytes())
        return real_residual(spec, x)

    def project(spec, x):
        trials.append(1)
        return real_project(spec, x)

    monkeypatch.setattr(solver, "residual_field", residual)
    monkeypatch.setattr(geometry, "surface_project", project)
    res = solver.refine_to_geodesic(loops.DiscreteLoop(ellipsoid_spec, nodes))
    assert res.iterations >= 3
    assert stacked == []    # the analytic Jacobian evaluates no probe stack
    assert len(single) == 1 + len(trials)
    assert len(set(single)) == len(single)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@pytest.mark.parametrize("n", [42, 64, 128, 256])
def test_stacked_scaled_residuals_equal_single_calls(name, n):
    # 48 loops make BLAS products long enough to be summed in blocks (and
    # split between threads), and 42 points leave a tail in each loop
    stack = np.stack([_kernel_nodes(name, max(n, 64), k)[1][:n] for k in range(48)])
    spec = KERNEL_SPECS[name]
    fields = solver.residual_field(spec, stack)
    for k, x in enumerate(stack):
        for got, want in zip(fields, solver.residual_field(spec, x)):
            assert np.array_equal(got[k], want)
    _, tan, f = fields
    got = solver._scaled_residuals(spec, stack, tan, f)
    assert got == [solver._scaled_residual(spec, x) for x in stack]
    u = geometry.conformal_exponent(spec, stack)
    assert all(np.array_equal(u[k], geometry.conformal_exponent(spec, x))
               for k, x in enumerate(stack))
    projected = geometry.surface_project(spec, 1.01 * stack)
    assert all(np.array_equal(p, geometry.surface_project(spec, 1.01 * x))
               for p, x in zip(projected, stack))


def test_a_failed_stacked_evaluation_runs_loop_by_loop(ellipsoid_spec):
    # one loop through the origin fails its own projection, not the others'
    loops_ = [_kernel_nodes("ellipsoid", 32, k)[1] for k in range(3)]
    loops_[1] = np.zeros((32, 3))
    got, failed = solver._each(geometry.surface_project, KERNEL_SPECS["ellipsoid"],
                               np.stack(loops_))
    assert list(failed) == [1] and isinstance(failed[1], GeometryError)
    assert "origin" in str(failed[1]) and np.isnan(got[1]).all()
    for k in (0, 2):
        assert np.array_equal(got[k], geometry.surface_project(KERNEL_SPECS["ellipsoid"], loops_[k]))


def _outcome(res):
    """What a seed's refinement produced: the nodes, history and iteration
    count of its result, or the type and message of its failure."""
    if isinstance(res, Exception):
        return type(res), str(res)
    return res.loop.nodes.tobytes(), res.history, res.iterations


@functools.lru_cache(maxsize=None)
def _batch_case(name):
    """Seed loops on 64 nodes whose refinements end in different ways."""
    if name == "sphere":
        # a perturbed round sphere's census seeds: converge or stall
        return tuple(solver._census_seeds(MetricSpec.ellipsoid((1.004, 0.998, 1.0)), 64, 8, 1))
    if name == "conformal":
        # kicked great circles: converge or fail their line searches
        spec = MetricSpec.conformal_sphere(PD_TERMS_START)
        rng = np.random.default_rng(1)
        return tuple(
            loops.DiscreteLoop(spec, geometry.surface_project(
                spec, np.asarray(s.nodes) + 0.3 * rng.normal(size=s.nodes.shape)))
            for s in solver._census_seeds(spec, 64, 6, 3))
    # level and tilted parallels below a geodesic parallel near the band's
    # top edge: converge or leave the band
    spec = MetricSpec.revolution("poly", (0.8, 0.2, -0.4), (-0.3, 0.3))
    seeds = []
    for z in np.linspace(-0.3, 0.3, 7)[1:-1]:
        for tilt in (0.0, 0.05):
            nodes = np.array(loops.parallel_circle(spec, z, 64).nodes)
            nodes[:, 2] += tilt * nodes[:, 0] / np.hypot(nodes[:, 0], nodes[:, 1])
            seeds.append(loops.DiscreteLoop(spec, geometry.surface_project(spec, nodes)))
    return tuple(seeds)


@functools.lru_cache(maxsize=None)
def _batch_outcomes(name):
    return tuple(_outcome(res) for res in solver.refine_many(_batch_case(name)))


# what the seeds of each batch case end in: a result, or a failure's type and message
BATCH_KINDS = {
    "sphere": {solver.GeodesicResult,
               (solver.StallError, "no convergence in 50 Newton iterations")},
    "conformal": {solver.GeodesicResult,
                  (solver.StallError, "line search cannot reduce the residual")},
    "parallels": {solver.GeodesicResult,
                  (geometry.BandExitError, "point left the configured z band")},
}


@pytest.mark.parametrize("name", sorted(BATCH_KINDS))
def test_batched_refinement_matches_single_refinement(name):
    seeds = _batch_case(name)
    batched = solver.refine_many(seeds)
    assert {_outcome(res) if isinstance(res, Exception) else type(res)
            for res in batched} == BATCH_KINDS[name]
    for seed, res, want in zip(seeds, batched, _batch_outcomes(name)):
        alone = solver.refine_many([seed])[0]
        assert _outcome(res) == _outcome(alone) == want
        if isinstance(alone, Exception):
            with pytest.raises(type(alone)) as excinfo:
                solver.refine_to_geodesic(seed)
            assert str(excinfo.value) == str(alone)
        else:
            assert _outcome(solver.refine_to_geodesic(seed)) == want


@pytest.mark.parametrize("name", sorted(BATCH_KINDS))
@settings(max_examples=4)
@given(data=st.data())
def test_refinement_outcomes_do_not_depend_on_the_batch(name, data):
    # permuting the seeds and splitting them into two batches moves no
    # seed's result
    seeds = _batch_case(name)
    order = data.draw(st.permutations(range(len(seeds))))
    cut = data.draw(st.integers(1, len(seeds) - 1))
    got = {}
    for part in (order[:cut], order[cut:]):
        for k, res in zip(part, solver.refine_many([seeds[k] for k in part])):
            got[k] = _outcome(res)
    assert tuple(got[k] for k in range(len(seeds))) == _batch_outcomes(name)


def test_refine_many_takes_one_metric_and_one_node_count(ellipsoid_spec):
    a = loops.principal_ellipse(ellipsoid_spec, 0, 1, 32)
    assert solver.refine_many([]) == []
    for other in (loops.principal_ellipse(ellipsoid_spec, 0, 1, 64),
                  loops.principal_ellipse(MetricSpec.ellipsoid((1.0, 1.0, 0.9)), 0, 1, 32)):
        with pytest.raises(ValueError, match="one metric and one node count"):
            solver.refine_many([a, other])


def _kicked_ellipses(spec):
    """Three kicked principal ellipses on 64 nodes.  Any two differ by at
    least 1 at some node and each converges within 0.08 of its seed, so
    ``_near`` tells one seed's iterates from the others'."""
    rng = np.random.default_rng(5)
    return [loops.DiscreteLoop(spec, geometry.surface_project(
        spec, np.asarray(loops.principal_ellipse(spec, i, j, 64).nodes)
        + 0.02 * rng.normal(size=(64, 3)))) for i, j in ((0, 1), (0, 2), (1, 2))]


def _near(x, target):
    return np.max(np.abs(x - target)) < 0.2


def _each_loop(x):
    """The loops of one loop (N, m) or of a stack (B, N, m)."""
    return np.reshape(x, (-1,) + np.shape(x)[-2:])


def _nan_correction(monkeypatch, target):
    real = solver._bordered_solve

    def solve(band, nodes, rhs):
        sol, failed = real(band, nodes, rhs)
        for k, x in enumerate(nodes):
            if _near(x, target):
                sol[k] = np.nan
        return sol, failed
    monkeypatch.setattr(solver, "_bordered_solve", solve)


def _target_blocks(change):
    """Replace the Jacobian blocks of the target seed by ``change(blocks)``."""
    def install(monkeypatch, target):
        real = solver._jacobian_blocks

        def blocks(spec, nodes):
            out = real(spec, nodes)
            for k, x in enumerate(nodes):
                if _near(x, target):
                    out[k] = change(out[k])
            return out
        monkeypatch.setattr(solver, "_jacobian_blocks", blocks)
    return install


def _target_velocity(change):
    """Replace the velocity of every loop near the target by ``change(vel)``."""
    def install(monkeypatch, target):
        real = solver._velocity

        def velocity(nodes):
            out = real(nodes)
            for x, v in zip(_each_loop(nodes), _each_loop(out)):
                if _near(x, target):
                    v[...] = change(v)
            return out
        monkeypatch.setattr(solver, "_velocity", velocity)
    return install


def _singular_schur(monkeypatch, target):
    # node 0 moves along (1, 0, 0), so the gauge row is e_0; the Jacobian is
    # the identity but for node 0's block, which swaps the first two
    # coordinates.  Then J^-1 w has no e_0 component at node 0 and the
    # Schur complement g^T J^-1 w is exactly zero
    def swap_at_node_0(blocks):
        out = np.zeros_like(blocks)
        out[:, 1] = np.eye(3)
        out[0, 1] = np.eye(3)[[1, 0, 2]]
        return out

    def node_0_along_e0(vel):
        vel[0] = (1.0, 0.0, 0.0)
        return vel
    _target_blocks(swap_at_node_0)(monkeypatch, target)
    _target_velocity(node_0_along_e0)(monkeypatch, target)


def _stepped_scaled_residuals(change):
    """Replace the scaled residual of every iterate of the target seed after
    its first step by ``change(res, fdef, ell)``."""
    def install(monkeypatch, target):
        real = solver._scaled_residuals

        def scaled(spec, nodes, tan, f):
            return [change(*vals) if _near(x, target) and not np.array_equal(x, target) else vals
                    for x, vals in zip(_each_loop(nodes), real(spec, nodes, tan, f))]
        monkeypatch.setattr(solver, "_scaled_residuals", scaled)
    return install


def _far_projection(monkeypatch, target):
    real = geometry.surface_project

    def project(spec, x):
        out = real(spec, x)
        for y in _each_loop(out):
            if _near(y, target):
                y *= 1e3
        return out
    monkeypatch.setattr(geometry, "surface_project", project)


def _failing_evaluation(name, message, hit):
    """Make ``solver.<name>`` raise GeometryError(message) on any stack
    holding a loop x with ``hit(x, target)``."""
    def install(monkeypatch, target):
        real = getattr(solver, name)

        def evaluate(spec, nodes):
            if any(hit(x, target) for x in _each_loop(nodes)):
                raise GeometryError(message)
            return real(spec, nodes)
        monkeypatch.setattr(solver, name, evaluate)
    return install


# failure message -> (failure type, the patch that makes the target seed fail)
KERNEL_EXITS = {
    "no residual at the seed": (
        GeometryError, _failing_evaluation("residual_field", "no residual at the seed",
                                           np.array_equal)),
    "no residual at a projected trial": (
        GeometryError, _failing_evaluation("_trial_fields", "no residual at a projected trial",
                                           _near)),
    "non-finite Newton correction": (solver.DivergenceError, _nan_correction),
    "residual grew beyond recovery": (
        solver.DivergenceError, _stepped_scaled_residuals(lambda r, d, e: (1e300, d, e))),
    "loop length collapsed toward zero": (
        solver.CollapseError, _stepped_scaled_residuals(lambda r, d, e: (r, d, 0.0))),
    "iterates left the working region": (solver.DivergenceError, _far_projection),
    "singular corrector system: singular Jacobian: zero pivot in column 1": (
        solver.StallError, _target_blocks(np.zeros_like)),
    "singular corrector system: singular bordered system: Singular matrix": (
        solver.StallError, _singular_schur),
    "loop velocity collapsed during refinement": (
        solver.CollapseError, _target_velocity(np.zeros_like)),
}


@pytest.mark.parametrize("message", sorted(KERNEL_EXITS))
def test_each_failure_exit_fails_its_seed_alone_and_in_a_batch(ellipsoid_spec, monkeypatch,
                                                                 message):
    seeds = _kicked_ellipses(ellipsoid_spec)
    others = [_outcome(solver.refine_to_geodesic(seeds[k])) for k in (0, 2)]
    kind, install = KERNEL_EXITS[message]
    install(monkeypatch, np.asarray(seeds[1].nodes))
    with pytest.raises(kind) as excinfo:
        solver.refine_to_geodesic(seeds[1])
    assert type(excinfo.value) is kind and str(excinfo.value) == message
    out = solver.refine_many(seeds)
    assert _outcome(out[1]) == (kind, message)
    assert [_outcome(out[0]), _outcome(out[2])] == others


def test_a_search_without_a_projected_trial_moves_to_its_last_raw_trial(
        ellipsoid_spec, monkeypatch):
    # no trial of the first line search can be projected: each seed moves to
    # nodes + 2^-11 delta unprojected, evaluates it afresh and goes on from
    # there as a refinement of that point would
    spec = ellipsoid_spec
    seeds = _kicked_ellipses(spec)
    want = []
    for seed in seeds:
        nodes = np.asarray(seed.nodes)
        delta, failed = solver._newton_steps(
            spec, nodes[None], solver.residual_field(spec, nodes)[0][None],
            np.array([max(1.0, float(np.max(np.abs(nodes))))]))
        assert not failed
        raw = nodes + 2.0 ** -11 * delta[0]
        assert np.max(np.abs(geometry.constraint(spec, raw))) > 1e-9
        alone = solver.refine_to_geodesic(loops.DiscreteLoop(spec, raw))
        want.append((alone.loop.nodes.tobytes(),
                     (solver._scaled_residual(spec, nodes)[0],) + alone.history,
                     1 + alone.iterations))
    rounds = []
    real_scaled = solver._scaled_residuals
    real_project = geometry.surface_project

    def project(spec, x):
        if len(rounds) == 1:
            raise GeometryError("no projection in the first Newton round")
        return real_project(spec, x)

    monkeypatch.setattr(solver, "_scaled_residuals",
                        lambda *args: rounds.append(1) or real_scaled(*args))
    monkeypatch.setattr(geometry, "surface_project", project)
    for seed, outcome in zip(seeds, want):
        rounds.clear()
        assert _outcome(solver.refine_to_geodesic(seed)) == outcome
    rounds.clear()
    assert [_outcome(res) for res in solver.refine_many(seeds)] == want


def test_a_trial_that_fails_to_project_in_a_later_halving_stays_raw(monkeypatch):
    # In Newton round 27 of the conformal batch, seeds 1 and 3 both fail
    # their line searches, so every halving of that round stacks both.
    # From the second halving on, seed 1's trials cannot be projected: each
    # stacked projection raises and is redone loop by loop, seed 1 ends the
    # search on its last raw trial, nodes + 2^-11 delta, and goes on from
    # there as it does alone, and the other seeds' outcomes are those of
    # their batches of one
    seeds = _batch_case("conformal")
    want = _batch_outcomes("conformal")
    steps = []
    real_steps = solver._newton_steps

    def newton_steps(spec, nodes, full, scale):
        delta, failed = real_steps(spec, nodes, full, scale)
        steps.append(nodes[0] + 0.5 ** np.arange(1, 12)[:, None, None] * delta[0])
        return delta, failed

    monkeypatch.setattr(solver, "_newton_steps", newton_steps)
    solver.refine_many(seeds[1:2])
    monkeypatch.undo()
    later = steps[27]
    stacks, evaluated = [], []
    real_project, real_residual = geometry.surface_project, solver.residual_field

    def project(spec, x):
        if any(np.array_equal(y, t) for y in _each_loop(x) for t in later):
            stacks.append(len(_each_loop(x)))
            raise GeometryError("no projection after the first halving")
        return real_project(spec, x)

    def residual(spec, x):
        evaluated.extend(y.tobytes() for y in _each_loop(x))
        return real_residual(spec, x)

    monkeypatch.setattr(geometry, "surface_project", project)
    monkeypatch.setattr(solver, "residual_field", residual)
    alone = solver.refine_many(seeds[1:2])[0]
    assert stacks == [1] * 11 and later[-1].tobytes() in evaluated
    stacks.clear()
    evaluated.clear()
    out = solver.refine_many(seeds)
    assert stacks == [2, 1] * 11 and later[-1].tobytes() in evaluated
    assert _outcome(out[1]) == _outcome(alone)
    assert [_outcome(res) for k, res in enumerate(out) if k != 1] == \
        [w for k, w in enumerate(want) if k != 1]


def _lock_step_case(name):
    if name == "ellipsoid":
        return solver._census_seeds(KERNEL_SPECS["ellipsoid"], 64, 12, 7)
    return [seed for seed, outcome in zip(_batch_case("sphere"), _batch_outcomes("sphere"))
            if isinstance(outcome[0], bytes)]


@pytest.mark.parametrize("name", ["ellipsoid", "sphere"])
def test_the_seeds_of_a_batch_take_their_newton_steps_together(name, monkeypatch):
    # one stack of scaled residuals per Newton round, so seeds that converge
    # after different numbers of steps never drift out of phase
    seeds = _lock_step_case(name)
    calls = []
    real = solver._scaled_residuals
    monkeypatch.setattr(solver, "_scaled_residuals",
                        lambda *args: calls.append(1) or real(*args))
    iterations = [res.iterations for res in solver.refine_many(seeds)]
    assert len(set(iterations)) > 1
    assert len(calls) == 1 + max(iterations)


def test_a_round_of_newton_steps_stacks_the_jacobian_blocks(monkeypatch):
    # one block evaluation per Newton round, holding every seed still
    # stepping: in round r, the seeds that take more than r steps
    seeds = _lock_step_case("ellipsoid")
    stacks = []
    real = solver._jacobian_blocks
    monkeypatch.setattr(solver, "_jacobian_blocks",
                        lambda spec, nodes: stacks.append(len(nodes)) or real(spec, nodes))
    iterations = [res.iterations for res in solver.refine_many(seeds)]
    assert len(set(iterations)) > 1
    assert stacks == [sum(it > r for it in iterations) for r in range(max(iterations))]


def test_the_conformal_sphere_keeps_one_colored_jacobian_per_seed_step(monkeypatch):
    # the step rounds are stacked, but each seed's Jacobian is still its own
    # colored differences: two residual evaluations per seed and step
    seeds = _batch_case("conformal")
    want = _batch_outcomes("conformal")
    steps, per_jacobian, residual_calls = [], [], []
    real_steps, real_fd, real_residual = \
        solver._newton_steps, solver._fd_jacobian, solver.residual_field

    def newton_steps(spec, nodes, full, scale):
        steps.append(len(nodes))
        return real_steps(spec, nodes, full, scale)

    def fd_jacobian(spec, nodes):
        before = len(residual_calls)
        out = real_fd(spec, nodes)
        per_jacobian.append(len(residual_calls) - before)
        return out

    def blocks(spec, nodes):
        raise AssertionError("the conformal sphere has no closed-form blocks")

    monkeypatch.setattr(solver, "_newton_steps", newton_steps)
    monkeypatch.setattr(solver, "_fd_jacobian", fd_jacobian)
    monkeypatch.setattr(solver, "_jacobian_blocks", blocks)
    monkeypatch.setattr(solver, "residual_field",
                        lambda spec, x: residual_calls.append(1) or real_residual(spec, x))
    assert tuple(_outcome(res) for res in solver.refine_many(seeds)) == want
    assert max(steps) == len(seeds)
    assert per_jacobian == [2] * sum(steps)
