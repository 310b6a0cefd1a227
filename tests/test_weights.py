"""Per-orbit weights, the count table, and the perturbation protocol."""

import numpy as np
import pytest

from geocount import geometry, jacobi, solver, weights
from geocount.weights import AmbiguousWeight, NotSuperRigid, SpectrumCollision


@pytest.fixture(scope="module")
def ellipsoid_records(ellipsoid_census, ellipsoid_reports):
    recs = {}
    for entry in ellipsoid_census.entries:
        rep = ellipsoid_reports[entry.ident]
        recs[entry.ident] = weights.weight(rep, ident=entry.ident)
    return recs


@pytest.fixture(scope="module")
def ellipsoid_table(ellipsoid_census):
    return weights.build_count_table(ellipsoid_census)


def test_ellipsoid_weight_records(ellipsoid_records):
    by_length = sorted(ellipsoid_records.values(), key=lambda r: r.length)
    assert [r.iota for r in by_length] == [(1, 3), (2, 4), (3, 5)]
    assert all(r.nu == (0, 0) for r in by_length)
    assert [r.eps for r in by_length] == [(-1, -1), (1, 1), (-1, -1)]
    assert [r.n1 for r in by_length] == [-1, 1, -1]
    assert all(r.n2 == 0 for r in by_length)
    assert all(r.routes_agree for r in by_length)


def test_count_table_totals_minus_two(ellipsoid_table):
    table = ellipsoid_table
    assert len(table.rows) == 3
    n1 = {rec.ident: rec.n1 for rec in table.records}
    assert all(row.d == 1 and row.contribution == 2 * n1[row.ident] for row in table.rows)
    assert [row.contribution for row in table.rows] == [-2, 2, -2]
    assert [row.cumulative for row in table.rows] == [-2, 0, -2]
    assert not table.collisions


def test_count_function_steps_between_lengths(ellipsoid_table):
    assert weights.count_function(ellipsoid_table, 5.0) == 0
    assert weights.count_function(ellipsoid_table, 6.2) == -2
    assert weights.count_function(ellipsoid_table, 6.4) == 0
    assert weights.count_function(ellipsoid_table, 7.0) == -2


def test_count_function_refuses_jump_points(ellipsoid_table):
    jump = ellipsoid_table.rows[0].length
    with pytest.raises(SpectrumCollision):
        weights.count_function(ellipsoid_table, jump)
    with pytest.raises(ValueError):
        weights.count_function(ellipsoid_table, 100.0)


def test_set_weight_windows(ellipsoid_table):
    assert weights.set_weight(ellipsoid_table, (6.0, 6.2)) == -2
    assert weights.set_weight(ellipsoid_table, (6.2, 6.35)) == 2
    assert weights.set_weight(ellipsoid_table, (6.0, 6.35)) == 0
    assert weights.set_weight(ellipsoid_table, (0.0, 7.0)) == -2
    assert weights.set_weight(ellipsoid_table, (6.5, 7.0)) == 0


def test_set_weight_refuses_a_window_end_on_a_length(ellipsoid_table):
    # the rule of count_function: within 1e-9 * max(1, end) of a length
    ell = ellipsoid_table.rows[0].length
    for window in ((0.0, ell), (0.0, ell - 1e-10), (ell + 1e-10, 7.0)):
        with pytest.raises(SpectrumCollision, match="window end"):
            weights.set_weight(ellipsoid_table, window)
    assert weights.set_weight(ellipsoid_table, (0.0, ell - 1e-8)) == 0
    assert weights.set_weight(ellipsoid_table, (0.0, ell + 1e-8)) == -2
    assert weights.set_weight(ellipsoid_table, (ell + 1e-8, 7.0)) == 0


def test_cover_rows_carry_zero_weight(ellipsoid_spec):
    census = solver.find_all(ellipsoid_spec, 13.0, mesh=128, planes=24, seed=7)
    table = weights.build_count_table(census)
    primitive = [row for row in table.rows if row.d == 1]
    covers = [row for row in table.rows if row.d == 2]
    assert len(primitive) == 3 and len(covers) == 3
    assert all(row.contribution == 0 for row in covers)
    assert table.rows[-1].cumulative == -2
    assert weights.count_function(table, 12.95) == -2


def test_weight_requires_super_rigidity(sphere_report):
    with pytest.raises(NotSuperRigid):
        weights.weight(sphere_report, ident="equator")


def test_waist_weight_record(waist_report, waist_result):
    rec = weights.weight(waist_report, ident="waist")
    assert rec.length == waist_result.length
    assert rec.eps == (1, 1)
    assert rec.n1 == 1
    assert rec.n2 == 0
    assert rec.routes_agree


def test_perturb_metric_strategies(sphere_spec):
    rng = np.random.default_rng(4)
    jittered = weights.perturb_metric(sphere_spec, "axis_jitter", rng, 1e-2)
    assert jittered.family == "ellipsoid"
    deltas = np.abs(np.asarray(jittered.data) - 1.0)
    assert np.all(deltas > 0) and np.all(deltas < 5e-2)
    rng2 = np.random.default_rng(4)
    again = weights.perturb_metric(sphere_spec, "axis_jitter", rng2, 1e-2)
    assert again.data == jittered.data  # same draw, same metric

    rng3 = np.random.default_rng(4)
    conf = weights.perturb_metric(sphere_spec, "conformal_noise", rng3, 1e-2)
    assert conf.family == "conformal_sphere"
    with pytest.raises(ValueError):
        weights.perturb_metric(sphere_spec, "unknown", rng, 1e-2)


def test_applicable_strategies_follow_the_metric(sphere_spec, ellipsoid_spec):
    assert weights.applicable_strategies(sphere_spec) == ("axis_jitter", "conformal_noise")
    assert weights.applicable_strategies(ellipsoid_spec) == ("axis_jitter",)
    assert weights.applicable_strategies(
        geometry.MetricSpec.ellipsoid((1.0, 1.0, 1.0, 1.0))) == ("axis_jitter",)
    conformal = geometry.MetricSpec.conformal_sphere([(0, 0, 0.1)])
    assert weights.applicable_strategies(conformal) == ("conformal_noise",)
    rng = np.random.default_rng(4)
    with pytest.raises(geometry.GeometryError, match="axis_jitter does not apply"):
        weights.perturb_metric(conformal, "axis_jitter", rng, 1e-2)
    with pytest.raises(geometry.GeometryError, match="conformal_noise does not apply"):
        weights.perturb_metric(ellipsoid_spec, "conformal_noise", rng, 1e-2)
    band = geometry.MetricSpec.revolution("poly", (1.0,), (-1.0, 1.0))
    with pytest.raises(geometry.GeometryError, match="revolution"):
        weights.applicable_strategies(band)


def test_degenerate_weight_on_the_round_sphere(sphere_spec):
    result = weights.degenerate_weight(
        sphere_spec, (0.0, 7.0), strategy="axis_jitter", seed=11, trials=2,
        mesh=128, planes=24)
    assert result.value == -2
    assert len(result.trials) == 2
    for trial in result.trials:
        assert trial.value == -2
        assert len(trial.table.records) == 3
        assert trial.table.metric.family == "ellipsoid"


@pytest.mark.parametrize("trials", [0, -1])
def test_degenerate_weight_needs_a_trial(monkeypatch, sphere_spec, trials):
    def no_census(*args, **kwargs):
        raise AssertionError("no census may run")

    monkeypatch.setattr(solver, "find_all", no_census)
    with pytest.raises(ValueError, match="trials"):
        weights.degenerate_weight(sphere_spec, (0.0, 7.0), trials=trials)


def test_degenerate_weight_redraws_after_a_degenerate_draw(
        monkeypatch, ellipsoid_spec, ellipsoid_census, ellipsoid_table):
    # every draw "finds" the triaxial census; the first draw's table refuses
    monkeypatch.setattr(solver, "find_all", lambda *a, **k: ellipsoid_census)
    calls = []

    def table_once_degenerate(census):
        calls.append(census)
        if len(calls) == 1:
            raise NotSuperRigid("degenerate draw", "g000")
        return ellipsoid_table

    monkeypatch.setattr(weights, "build_count_table", table_once_degenerate)
    result = weights.degenerate_weight(ellipsoid_spec, (0.0, 7.0), trials=1)
    assert len(calls) == 2
    assert result.value == -2
    assert [(t.redraws, t.value) for t in result.trials] == [(1, -2)]


def test_degenerate_weight_gives_up_on_the_window_boundary(
        monkeypatch, ellipsoid_spec, ellipsoid_census, ellipsoid_table):
    drawn = []

    def census_of(spec, *args, **kwargs):
        drawn.append(spec)
        return ellipsoid_census

    monkeypatch.setattr(solver, "find_all", census_of)
    monkeypatch.setattr(weights, "build_count_table", lambda census: ellipsoid_table)
    # the window ends on a class length, so every draw lands on its edge
    edge = ellipsoid_table.rows[1].length
    with pytest.raises(AmbiguousWeight, match="window boundary"):
        weights.degenerate_weight(ellipsoid_spec, (0.0, edge), trials=1)
    assert len(drawn) == weights._MAX_REDRAWS + 1
    assert len(set(drawn)) == len(drawn)
