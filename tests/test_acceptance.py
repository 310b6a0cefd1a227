"""End-to-end checks over the whole pipeline, one verdict line per criterion.

Each test prints ``criterion NN (<label>): PASS`` or ``FAIL`` straight to the
terminal, bypassing capture, so a full run reads as a ten-line scoreboard.
Heavy fixtures (the ten-sample index table, the perturbed-sphere counts) are
cached per mesh and shared across criteria.
"""

import contextlib
import functools
import time

import numpy as np

from geocount import continuation, geometry, jacobi, loops, solver, weights
from geocount.continuation import MetricPath
from geocount.geometry import MetricSpec

ELLIPSOID_AXES = (1.05, 1.0, 0.95)
SPHERE_AXES = (1.0, 1.0, 1.0)
FOLD_START = ("poly", (1.0, -0.02, 0.0, 0.1 / 3.0), (-1.0, 1.0))
FOLD_END = ("poly", (1.0, 0.02, 0.0, 0.1 / 3.0), (-1.0, 1.0))
PD_TERMS_START = ((1, 1, 0.05), (2, 0, 0.16), (2, 2, 0.08), (3, 3, 0.03))
PD_TERMS_END = ((1, 1, 0.05), (2, 0, 0.26), (2, 2, 0.08), (3, 3, 0.03))

# period doubling keeps eps_1, flips eps_2, and hands the doubled orbit the
# opposite of the flipped sign on its existence side; four sign choices total
PD_PATTERNS = {
    ((1, 1), (1, -1), 1),
    ((1, -1), (1, 1), -1),
    ((-1, 1), (-1, -1), 1),
    ((-1, -1), (-1, 1), -1),
}


@contextlib.contextmanager
def _verdict(capsys, num, label):
    """Print the criterion's PASS/FAIL line even when an assertion trips."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:02d} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:02d} ({label}): PASS")


@functools.lru_cache(maxsize=None)
def _samples(mesh):
    """Ten converged closed geodesics spanning all three metric families."""
    out = []
    ell = MetricSpec.ellipsoid(ELLIPSOID_AXES)
    for j, k in ((0, 1), (0, 2), (1, 2)):
        out.append((f"ellipse{j}{k}",
                    solver.refine_to_geodesic(loops.principal_ellipse(ell, j, k, mesh))))
    sphere = MetricSpec.ellipsoid(SPHERE_AXES)
    out.append(("sphere_equator", solver.refine_to_geodesic(
        loops.great_circle_seed(sphere, np.eye(3)[0], np.eye(3)[1], mesh))))
    spheroid = MetricSpec.ellipsoid((1.0, 1.0, 1.5))
    out.append(("spheroid_equator",
                solver.refine_to_geodesic(loops.principal_ellipse(spheroid, 0, 1, mesh))))
    catenoid = MetricSpec.revolution("cosh", (1.0, 0.0), (-0.8, 0.8))
    out.append(("waist",
                solver.refine_to_geodesic(loops.parallel_circle(catenoid, 0.0, mesh))))
    barrel = MetricSpec.revolution("poly", (0.8, 0.0, -0.8), (-0.6, 0.6))
    out.append(("barrel_equator",
                solver.refine_to_geodesic(loops.parallel_circle(barrel, 0.0, mesh))))
    cubic = MetricSpec.revolution(*FOLD_START)
    for sign, tag in ((-1.0, "lo"), (1.0, "hi")):
        out.append((f"cubic_parallel_{tag}", solver.refine_to_geodesic(
            loops.parallel_circle(cubic, sign * np.sqrt(0.2), mesh))))
    conformal = MetricSpec.conformal_sphere(PD_TERMS_START)
    out.append(("conformal_equator", solver.refine_to_geodesic(
        loops.great_circle_seed(conformal, np.eye(3)[0], np.eye(3)[1], mesh))))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _sample_table(mesh):
    """name -> per-d records for the sample set, d = 1..4.

    Record fields: iota, nu, floquet nullity, sector-sum flag and explicit
    sums, each sector's (iota, nu) by j, the kernel-gap margin
    eigen_gap / (10 tau_nu), and whether the parity of iota is the one the
    sign of det(M^d - I) gives (None where the Floquet nullity is not 0).
    Each sample solves one sector spectrum per multiplier, shared by its
    four degrees as in ``jacobi_report``.
    """
    table = {}
    for name, result in _samples(mesh):
        data = jacobi.build_operator(result)
        mono = jacobi.monodromy(data)
        rows = []
        solved = {}
        for d in (1, 2, 3, 4):
            sectors, direct, consistent = jacobi.sector_decomposition(data, d, solved)
            floquet = jacobi.floquet_nullity(mono, d)
            rows.append({
                "iota": direct.iota,
                "nu": direct.nu,
                "floquet": floquet,
                "consistent": consistent,
                "sector_iota_sum": sum(s.iota for s in sectors.values()),
                "sector_nu_sum": sum(s.nu for s in sectors.values()),
                "sectors": tuple((sectors[j].iota, sectors[j].nu) for j in range(d)),
                "gap_margin": direct.eigen_gap / (10.0 * jacobi.kernel_threshold(data, d)),
                "parity": (jacobi._parity_agrees(mono, direct.iota, d)
                           if floquet == 0 else None),
            })
        table[name] = tuple(rows)
    return table


@functools.lru_cache(maxsize=None)
def _ellipsoid_census_rows(mesh):
    """(ident, iota(1), nu(1)) per class, sorted by length, plus elapsed."""
    t0 = time.perf_counter()
    census = solver.find_all(MetricSpec.ellipsoid(ELLIPSOID_AXES), 7.0,
                             mesh=mesh, planes=24, seed=7)
    rows = []
    for entry in sorted(census.entries, key=lambda e: e.result.length):
        report = jacobi.jacobi_report(entry.result, d_max=1)
        rows.append((entry.ident, report.indices[0].iota, report.indices[0].nu))
    return tuple(rows), time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def _pd_run():
    path = MetricPath(MetricSpec.conformal_sphere(PD_TERMS_START),
                      MetricSpec.conformal_sphere(PD_TERMS_END))
    start = solver.refine_to_geodesic(
        loops.great_circle_seed(path.start, np.eye(3)[0], np.eye(3)[1], 128))
    return path, continuation.continue_branch(path, start)


@functools.lru_cache(maxsize=None)
def _fold_run():
    path = MetricPath(MetricSpec.revolution(*FOLD_START),
                      MetricSpec.revolution(*FOLD_END))
    start = solver.refine_to_geodesic(loops.parallel_circle(path.start, 0.55, 128))
    return path, continuation.continue_branch(path, start)


def test_criterion_01_ellipsoid_index_ladder(capsys):
    with _verdict(capsys, 1, "ellipsoid index ladder"):
        rows, elapsed = _ellipsoid_census_rows(256)
        assert len(rows) == 3
        assert tuple(r[1] for r in rows) == (1, 2, 3)
        assert all(r[2] == 0 for r in rows)
        assert elapsed < 120.0


def test_criterion_02_sphere_window_count(capsys):
    with _verdict(capsys, 2, "round-sphere windowed count, two strategies"):
        t0 = time.perf_counter()
        sphere = MetricSpec.ellipsoid(SPHERE_AXES)
        outcomes = {}
        for strategy in ("axis_jitter", "conformal_noise"):
            res = weights.degenerate_weight(
                sphere, (0.0, 7.0), strategy=strategy,
                seed=11, trials=2, mesh=256, planes=80)
            outcomes[strategy] = res
            assert res.value == -2
            assert all(t.value == -2 for t in res.trials)
        # the trial's own table, counted up to 7.0 plus the perturbation pad
        table = outcomes["axis_jitter"].trials[0].table
        assert weights.count_function(table, 5.0) == 0
        assert weights.count_function(table, 7.0) == -2
        assert time.perf_counter() - t0 < 600.0


def test_criterion_03_cover_weights_vanish(capsys):
    with _verdict(capsys, 3, "cover weights vanish on the longer window"):
        sphere = MetricSpec.ellipsoid(SPHERE_AXES)
        res = weights.degenerate_weight(
            sphere, (0.0, 13.0), strategy="axis_jitter",
            seed=11, trials=2, mesh=256, planes=80)
        # the window now holds every d = 2 cover, yet the count is unchanged
        assert res.value == -2
        assert all(t.value == -2 for t in res.trials)


def test_criterion_04_sector_sums(capsys):
    with _verdict(capsys, 4, "sector sums match direct indices"):
        table = _sample_table(256)
        assert len(table) == 10
        for name, rows in table.items():
            for d, row in zip((1, 2, 3, 4), rows):
                assert row["consistent"], (name, d)
                assert row["sector_iota_sum"] == row["iota"], (name, d)
                assert row["sector_nu_sum"] == row["nu"], (name, d)


def test_reused_sectors_match_their_own_forms():
    # a sector counted from the spectrum of its reduced fraction must give
    # the (iota, nu) of its own degree-d form solved afresh
    table = _sample_table(256)
    for name, result in _samples(256):
        data = jacobi.build_operator(result)
        for d, row in zip((1, 2, 3, 4), table[name]):
            for j in range(d):
                fresh = jacobi.sector_index_nullity(data, d, j)
                assert row["sectors"][j] == (fresh.iota, fresh.nu), (name, d, j)


def test_criterion_05_nullity_cross_check(capsys):
    with _verdict(capsys, 5, "kernel counts match Floquet multiplicities"):
        for name, rows in _sample_table(256).items():
            for d, row in zip((1, 2, 3, 4), rows):
                assert row["nu"] == row["floquet"], (name, d)
                assert row["gap_margin"] > 1.0, (name, d, row["gap_margin"])


def test_criterion_06_index_parity(capsys):
    with _verdict(capsys, 6, "index parity on rigid samples"):
        table = _sample_table(256)
        rigid = {name: rows for name, rows in table.items()
                 if all(row["nu"] == 0 for row in rows)}
        assert len(rigid) >= 6
        for name, rows in rigid.items():
            assert (-1) ** rows[3]["iota"] == (-1) ** rows[1]["iota"], name
        # the Lefschetz parity of the Poincare map, wherever M^d - I is
        # invertible: (-1)^iota(d) = (-1)^p sign det(M^d - I)
        for name, rows in table.items():
            for d, row in zip((1, 2, 3, 4), rows):
                if row["floquet"] == 0:
                    assert row["parity"], (name, d)


def test_criterion_07_period_doubling_invariance(capsys):
    with _verdict(capsys, 7, "period-doubling count invariance"):
        path, branch = _pd_run()
        events = branch.events
        assert len(events) == 1
        assert events[0].kind == "period_doubling"
        report = continuation.verify_invariance(path, events[0])
        assert report.invariant
        assert report.total_before == report.total_after

        prim_b = report.records_before["primitive_double_cover"]
        prim_a = report.records_after["primitive_double_cover"]
        assert "emergent_doubled" not in report.records_before
        emergent = report.records_after["emergent_doubled"]
        assert (prim_b.eps, prim_a.eps, emergent.eps[0]) in PD_PATTERNS


def test_criterion_08_fold_invariance(capsys):
    with _verdict(capsys, 8, "fold count invariance"):
        path, branch = _fold_run()
        events = branch.events
        assert len(events) == 1
        assert events[0].kind == "fold"
        report = continuation.verify_invariance(path, events[0])
        assert report.invariant
        assert report.total_before == 0
        assert report.total_after == 0
        plus = report.records_before["branch0"]
        minus = report.records_before["branch1"]
        assert plus.eps == tuple(-e for e in minus.eps)
        assert report.records_after == {}


def test_criterion_09_mesh_stability(capsys):
    with _verdict(capsys, 9, "mesh-doubling stability"):
        rows_256, _ = _ellipsoid_census_rows(256)
        rows_512, _ = _ellipsoid_census_rows(512)
        assert rows_256 == rows_512

        coarse = _sample_table(256)
        fine = _sample_table(512)
        assert set(coarse) == set(fine)
        keys = ("iota", "nu", "floquet", "consistent")
        for name in coarse:
            for d, (row_c, row_f) in enumerate(zip(coarse[name], fine[name]), start=1):
                assert all(row_c[k] == row_f[k] for k in keys), (name, d)
                assert row_f["gap_margin"] > 1.0, (name, d)


def test_criterion_10_negative_curvature_model(capsys):
    with _verdict(capsys, 10, "negatively curved waist model"):
        waist = dict(_samples(256))["waist"]
        data = jacobi.build_operator(waist)
        # the waist circle sits where this surface has curvature exactly -1
        assert np.max(np.abs(data.b_unit + 1.0)) < 1e-12
        rows = _sample_table(256)["waist"]
        for row in rows:
            assert row["iota"] == 0
            assert row["nu"] == 0
            assert row["floquet"] == 0
        record = weights.weight(jacobi.jacobi_report(waist, d_max=2), ident="waist")
        assert record.n1 == 1
        assert record.n2 == 0
