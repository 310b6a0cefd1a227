"""Census, Newton refinement, and the quadrature cross-check of closed orbits.

The ellipsoid perimeters are checked against the complete elliptic integral,
and the oscillating orbit on a barrel profile is computed twice: once by the
Clairaut quadrature (which never touches the discrete solver) and once by
Newton refinement of a synthetic seed.

The Newton kernel is checked against reference implementations kept here.
The stacked residual must reproduce the ``np.roll`` / ``np.sum`` /
``np.linalg.norm`` residual bit for bit.  The colored Jacobian in folded
band storage must hold the per-color COO loop's differences bit for bit
and match a dense one-column-at-a-time difference.  The bordered solve, a
band LU with the borders eliminated around it, must agree with
``np.linalg.solve`` of the bordered matrix assembled densely.
"""

import logging
import re

import numpy as np
import pytest
import scipy.sparse
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from geocount import geometry, loops, solver
from geocount.geometry import MetricSpec

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


def test_refinement_keeps_collapse_apart_from_a_singular_solve(ellipsoid_spec, monkeypatch):
    # the collapse check comes before the factorization
    with pytest.raises(solver.CollapseError):
        solver._bordered_solve(None, np.zeros((16, 3)), np.zeros(49))
    seed = loops.great_circle_seed(ellipsoid_spec, np.eye(3)[0], np.eye(3)[1], 64)
    with pytest.raises(RuntimeError, match="singular"):
        solver._bordered_solve(np.zeros((25, 192)), seed.nodes, np.zeros(193))
    identity = np.zeros((25, 192))
    identity[16] = 1.0                        # the main diagonal, row 2 kl
    with pytest.raises(RuntimeError, match="singular"):   # a zero extra row and column
        solver._bordered_solve(identity, seed.nodes, np.zeros(194), np.zeros(192),
                               np.zeros(193))
    for raised, expected in ((solver.CollapseError("collapsed"), solver.CollapseError),
                             (RuntimeError("singular matrix"), solver.StallError)):
        def fail(*args, raised=raised):
            raise raised
        monkeypatch.setattr(solver, "_bordered_solve", fail)
        with pytest.raises(expected):
            solver.refine_to_geodesic(seed)


def test_census_counts_failed_seeds_by_class(ellipsoid_spec, monkeypatch, caplog):
    real_seeds = solver._census_seeds
    real_refine = solver.refine_to_geodesic
    raised = {0: solver.StallError, 1: solver.DivergenceError, 2: solver.DivergenceError,
              3: solver.CollapseError, 4: solver.CollapseError, 5: solver.CollapseError,
              6: geometry.BandExitError}
    seeds = []

    def census_seeds(*args):
        seeds.extend(real_seeds(*args))
        return seeds

    def refine(seed, tol=1e-10):
        for k, exc in raised.items():
            if seed is seeds[k]:
                raise exc(f"seed {k}")
        return real_refine(seed, tol=tol)

    monkeypatch.setattr(solver, "_census_seeds", census_seeds)
    monkeypatch.setattr(solver, "refine_to_geodesic", refine)
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
    # covers both refinements
    ellipse = np.asarray(loops.principal_ellipse(ellipsoid_spec, 0, 1, 72).nodes)
    rng = np.random.default_rng(3)
    kicked = geometry.surface_project(
        ellipsoid_spec, ellipse[::2] + 0.02 * rng.normal(size=(36, 3)))
    seeds = [loops.DiscreteLoop(ellipsoid_spec, np.tile(ellipse[::4], (2, 1))),
             loops.DiscreteLoop(ellipsoid_spec, kicked)]
    iterations = []
    real_refine = solver.refine_to_geodesic

    def refine(seed, tol=1e-10):
        res = real_refine(seed, tol=tol)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(solver, "_census_seeds", lambda *args: seeds)
    monkeypatch.setattr(solver, "refine_to_geodesic", refine)
    caplog.set_level(logging.DEBUG, logger="geocount")
    solver.find_all(ellipsoid_spec, 7.0, mesh=64, planes=2)
    assert len(iterations) == 3 and min(iterations) > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"seed 0: converged in {iterations[0] + iterations[1]} iterations",
        f"seed 1: converged in {iterations[2]} iterations"]
    assert caplog.records[0].args == (0, iterations[0] + iterations[1])


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


def _kernel_nodes(name, n, seed=0, amplitude=0.02):
    """A randomly perturbed loop on the surface, not a geodesic."""
    spec = KERNEL_SPECS[name]
    if name == "revolution":
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
    # the band holds the per-color differences bit for bit, in the folded
    # order, and the first kl rows are left free for the LU
    spec, nodes = _kernel_nodes(name, 32)
    n, m = nodes.shape
    fold = _folded_order(n, m)
    assert np.array_equal(solver._band_pattern(n, m)[1], fold)
    jac = solver._fd_jacobian(spec, nodes)
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


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_bordered_solve_matches_a_dense_solve(name, seed):
    spec, nodes = _kernel_nodes(name, 32, seed)
    n, m = nodes.shape
    jac = solver._fd_jacobian(spec, nodes)
    rng = np.random.default_rng(seed)
    extra_col = rng.normal(size=n * m)
    extra_row = rng.normal(size=n * m + 1)
    for args in ((), (extra_col, extra_row)):
        rhs = rng.normal(size=n * m + 1 + len(args) // 2)
        want = np.linalg.solve(_bordered_dense(jac, nodes, *args), rhs)
        got = solver._bordered_solve(jac, nodes, rhs, *args)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


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
    assert len(stacked) == 2 * res.iterations
    assert len(single) == 1 + len(trials)
    assert len(set(single)) == len(single)
