"""Command line behavior: config parsing, file outputs, exit codes, determinism."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from geocount import cli, continuation, jacobi, loops, solver, weights
from geocount.geometry import MetricSpec

ELLIPSOID_CFG = """\
[metric]
family = ellipsoid
axes = 1.05, 1.0, 0.95

[run]
mesh = 128
planes = 24
seed = 7
length_bound = 7.0
"""

COUNT_CFG = """\
[metric]
family = ellipsoid
axes = 1.05, 1.0, 0.95

[run]
mesh = 128
planes = 24
seed = 7
window = 0.0, 7.0
probes = 5.0, 7.0
"""

SPHERE_COUNT_CFG = """\
[metric]
family = ellipsoid
axes = 1.0, 1.0, 1.0

[run]
mesh = 128
planes = 24
seed = 11
window = 0.0, 7.0
probes = 5.0, 7.0
protocol = degenerate
trials = 1
"""

NOISE_COUNT_CFG = SPHERE_COUNT_CFG + "strategy = conformal_noise\n"

# a constant conformal factor: a round sphere of radius e^0.1, whose only
# applicable perturbation is conformal noise
CONFORMAL_COUNT_CFG = """\
[metric]
family = conformal_sphere
terms = 0,0,0.1

[run]
mesh = 128
planes = 24
seed = 3
window = 0.0, 7.5
protocol = degenerate
trials = 1
"""

FOLD_CFG = """\
[metric.start]
family = revolution
profile = poly
coefficients = 1.0, -0.02, 0.0, 0.033333333333333333
band = -1.0, 1.0

[metric.end]
family = revolution
profile = poly
coefficients = 1.0, 0.02, 0.0, 0.033333333333333333
band = -1.0, 1.0

[run]
mesh = 128
seed = 7

[continue]
start = parallel
z = 0.55
"""

# the start metric of FOLD_CFG on its own: a census seeded at its two
# critical parallels
REVOLUTION_CENSUS_CFG = """\
[metric]
family = revolution
profile = poly
coefficients = 1.0, -0.02, 0.0, 0.033333333333333333
band = -1.0, 1.0

[run]
mesh = 128
seed = 7
length_bound = 7.0
"""

PD_CFG = """\
[metric.start]
family = conformal_sphere
terms = 1,1,0.05; 2,0,0.16; 2,2,0.08; 3,3,0.03

[metric.end]
family = conformal_sphere
terms = 1,1,0.05; 2,0,0.26; 2,2,0.08; 3,3,0.03

[run]
mesh = 128
seed = 7

[continue]
start = great_circle
plane = 0, 1
"""

STALL_CFG = """\
[metric.start]
family = revolution
profile = poly
coefficients = 0.8, 0.0, -0.4
band = -0.6, 0.6

[metric.end]
family = revolution
profile = poly
coefficients = 0.8, 0.56, -0.4
band = -0.6, 0.6

[run]
mesh = 128
seed = 7

[continue]
start = parallel
z = 0.0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(tmp_path, command, cfg_text, outname="out", extra=()):
    cfg = _write(tmp_path, f"{command.replace('-', '_')}.cfg", cfg_text)
    out = tmp_path / outname
    code = cli.main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


def test_exit_code_mapping():
    assert cli.exit_code_for(cli.ConfigError("bad")) == 2
    assert cli.exit_code_for(solver.StallError("stuck")) == 3
    assert cli.exit_code_for(weights.AmbiguousWeight("split", [])) == 4
    assert cli.exit_code_for(continuation.UnresolvedClusterError("close")) == 5
    assert cli.exit_code_for(RuntimeError("other")) == 1


def test_load_config_round_trip(tmp_path):
    cfg = cli.load_config(_write(tmp_path, "a.cfg", ELLIPSOID_CFG), "census")
    assert cfg.metric.family == "ellipsoid"
    assert cfg.metric.data == (1.05, 1.0, 0.95)
    assert cfg.mesh == 128
    assert cfg.planes == 24
    assert cfg.seed == 7
    assert cfg.length_bound == 7.0


def test_load_config_continue_builds_path(tmp_path):
    cfg = cli.load_config(_write(tmp_path, "c.cfg", FOLD_CFG), "continue")
    assert cfg.path is not None
    assert cfg.path.start.family == "revolution"
    assert cfg.start_kind == "parallel"
    assert cfg.start_z == 0.55


def test_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(tmp_path / "missing.cfg"), "census")
    with pytest.raises(cli.ConfigError):
        cli.load_config(
            _write(tmp_path, "k.cfg", ELLIPSOID_CFG + "typo_key = 3\n"), "census")
    with pytest.raises(cli.ConfigError):
        cli.load_config(
            _write(tmp_path, "m.cfg", ELLIPSOID_CFG.replace("mesh = 128", "mesh = 200")),
            "census")
    with pytest.raises(cli.ConfigError):
        # census requires a length bound
        cli.load_config(
            _write(tmp_path, "lb.cfg", ELLIPSOID_CFG.replace("length_bound = 7.0", "")),
            "census")
    with pytest.raises(cli.ConfigError):
        # count requires a window
        cli.load_config(
            _write(tmp_path, "w.cfg", COUNT_CFG.replace("window = 0.0, 7.0", "")),
            "count")
    with pytest.raises(cli.ConfigError):
        # a probe above the window's end has no counted data behind it
        cli.load_config(
            _write(tmp_path, "p.cfg", COUNT_CFG.replace("probes = 5.0, 7.0",
                                                        "probes = 5.0, 8.0")),
            "count")
    with pytest.raises(cli.ConfigError):
        # continuation requires both endpoint metrics
        cli.load_config(_write(tmp_path, "e.cfg", ELLIPSOID_CFG), "continue")
    with pytest.raises(cli.ConfigError):
        cli.load_config(
            _write(tmp_path, "f.cfg", ELLIPSOID_CFG.replace("ellipsoid", "torus")),
            "census")


_CONFORMAL = "[metric]\nfamily = conformal_sphere\n"
_REVOLUTION = "[metric]\nfamily = revolution\nprofile = poly\ncoefficients = 1.0\n"
_BOUND = "[run]\nlength_bound = 7.0\n"
_AXES = "axes = 1.05, 1.0, 0.95\n"

# a continuation started from the great circle (x_0, x_3) of an ellipsoid in R^4
FOUR_AXIS_CFG = """\
[metric.start]
family = ellipsoid
axes = 1.0, 1.1, 0.9, 1.2

[metric.end]
family = ellipsoid
axes = 1.0, 1.1, 0.9, 1.25

[run]
mesh = 128
seed = 7

[continue]
start = great_circle
plane = 0, 3
"""


@pytest.mark.parametrize("command, text, fragment", [
    ("census", ELLIPSOID_CFG.replace(_AXES, "axes = 1.05, x, 0.95\n"),
     "axes: expected a list of numbers, got '1.05, x, 0.95'"),
    ("census", _CONFORMAL + "terms = 2,0\n" + _BOUND,
     "terms: expected 'l,m,coeff' triples, got '2,0'"),
    ("census", _CONFORMAL + "terms = 2,x,0.1\n" + _BOUND, "terms: bad triple '2,x,0.1'"),
    ("census", _CONFORMAL + "terms =\n" + _BOUND,
     "terms: at least one harmonic term is required"),
    ("census", ELLIPSOID_CFG.replace(_AXES, _AXES + "band = -1, 1\n"),
     "[metric] unknown keys for family ellipsoid: ['band']"),
    ("census", ELLIPSOID_CFG.replace(_AXES, ""), "[metric] ellipsoid needs 'axes'"),
    ("census", _REVOLUTION + _BOUND, "[metric] revolution needs 'band'"),
    ("census", _REVOLUTION + "band = -1, 0, 1\n" + _BOUND,
     "[metric] band must be two numbers"),
    ("census", _CONFORMAL + _BOUND, "[metric] conformal_sphere needs 'terms'"),
    ("census", ELLIPSOID_CFG.replace(_AXES, "axes = 1.0, -1.0, 1.0\n"),
     "[metric] ellipsoid coefficients must be finite and positive"),
    ("census", ELLIPSOID_CFG.replace("mesh = 128", "mesh = abc"),
     "mesh: expected an integer, got 'abc'"),
    ("census", ELLIPSOID_CFG + "trials = 0\n", "trials: 0 is below 1"),
    ("census", ELLIPSOID_CFG + "d_max = 5\n", "d_max: 5 is above 4"),
    ("census", ELLIPSOID_CFG.replace("length_bound = 7.0", "length_bound = long"),
     "length_bound: expected a number, got 'long'"),
    ("census", ELLIPSOID_CFG + "amplitude = 0\n", "amplitude: must be positive, got 0.0"),
    ("census", _AXES + ELLIPSOID_CFG, "config syntax: File contains no section headers"),
    ("census", ELLIPSOID_CFG + "[extra]\nkey = 1\n", "unknown config sections: ['extra']"),
    ("continue", FOLD_CFG.replace(
        "[metric.end]\nfamily = revolution\nprofile = poly\n"
        "coefficients = 1.0, 0.02, 0.0, 0.033333333333333333\nband = -1.0, 1.0\n",
        "[metric.end]\nfamily = ellipsoid\n" + _AXES),
     "path endpoints must share a metric family"),
    ("census", _BOUND, "census needs a [metric] section"),
    ("count", COUNT_CFG.replace("window = 0.0, 7.0", "window = 7.0, 0.0"),
     "window: need an increasing pair, got (7.0, 0.0)"),
    ("count", COUNT_CFG + "protocol = bumpy\n", "protocol: unknown value 'bumpy'"),
    ("count", COUNT_CFG + "strategy = bumpy\n", "strategy: unknown value 'bumpy'"),
    ("count", CONFORMAL_COUNT_CFG + "strategy = axis_jitter\n",
     "strategy: axis_jitter does not apply to this conformal_sphere metric"),
    ("degenerate-weight", COUNT_CFG + "strategy = conformal_noise\n",
     "strategy: conformal_noise does not apply to this ellipsoid metric"),
    ("degenerate-weight", _REVOLUTION + "band = -1, 1\n[run]\nwindow = 0.0, 7.0\n"
     "strategy = axis_jitter\n",
     "strategy: axis_jitter does not apply to this revolution metric"),
    ("census", ELLIPSOID_CFG + "[tolerances]\nresidual = 1e-9\nslack = 1\n",
     "[tolerances] unknown keys: ['slack']"),
    ("continue", FOLD_CFG + "speed = 1\n", "[continue] unknown keys: ['speed']"),
    ("continue", FOLD_CFG.replace("start = parallel", "start = meridian"),
     "start: unknown value 'meridian'"),
    ("continue", FOLD_CFG + "plane = 0, 3\n",
     "plane: need two distinct axis indices 0..2, got (0.0, 3.0)"),
    ("continue", FOUR_AXIS_CFG.replace("plane = 0, 3", "plane = 0, 4"),
     "plane: need two distinct axis indices 0..3, got (0.0, 4.0)"),
    ("continue", FOLD_CFG + "grid = 3\n", "grid: a count grid of 3 points needs window in [run]"),
    ("census", ELLIPSOID_CFG.replace("length_bound = 7.0", "length_bound = inf"),
     "length_bound: must be finite, got inf"),
    ("count", COUNT_CFG.replace("window = 0.0, 7.0", "window = 0, inf"),
     "window: every value must be finite, got (0.0, inf)"),
    ("count", COUNT_CFG.replace("probes = 5.0, 7.0", "probes = 5.0, nan"),
     "probes: every value must be finite, got (5.0, nan)"),
    ("count", COUNT_CFG + "amplitude = inf\n", "amplitude: must be finite, got inf"),
    ("census", ELLIPSOID_CFG + "[tolerances]\nresidual = inf\n",
     "residual: must be finite, got inf"),
    ("census", ELLIPSOID_CFG + "[tolerances]\nevent_bisection = nan\n",
     "event_bisection: must be finite, got nan"),
    ("census", ELLIPSOID_CFG + "[tolerances]\ndedup = inf\n",
     "dedup: must be finite, got inf"),
    ("continue", FOLD_CFG.replace("z = 0.55", "z = nan"), "z: must be finite, got nan"),
    ("continue", FOLD_CFG + "delta = inf\n", "delta: must be finite, got inf"),
    ("continue", FOLD_CFG + "ds = inf\n", "ds: must be finite, got inf"),
    ("continue", FOLD_CFG + "ds_max = -inf\n", "ds_max: must be finite, got -inf"),
    ("continue", FOLD_CFG + "ds = 0.3\n", "ds: the first step 0.3 exceeds ds_max 0.12"),
    ("census", ELLIPSOID_CFG.replace(_AXES, "axes = 1.05, inf, 0.95\n"),
     "axes: every value must be finite, got (1.05, inf, 0.95)"),
])
def test_each_config_error_names_its_cause(tmp_path, command, text, fragment):
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(_write(tmp_path, "bad.cfg", text), command)
    assert fragment in str(err.value)


def test_a_great_circle_start_takes_any_coordinate_plane_of_the_ambient_space(tmp_path):
    # the section of the start ellipsoid by span(e_0, e_3): an ellipse with
    # semi-axes 1 and 1 / 1.2, whose perimeter Ramanujan's second formula
    # gives to far below the tolerance
    cfg = cli.load_config(_write(tmp_path, "four.cfg", FOUR_AXIS_CFG), "continue")
    [(ident, res)] = cli._start_results(cfg)
    a, b = 1.0, 1.0 / 1.2
    h = ((a - b) / (a + b)) ** 2
    perimeter = math.pi * (a + b) * (1.0 + 3.0 * h / (10.0 + math.sqrt(4.0 - 3.0 * h)))
    assert ident == "g000" and res.loop.nodes.shape == (128, 4)
    assert np.all(res.loop.nodes[:, 1:3] == 0.0)
    assert abs(res.length - perimeter) < 1e-9


def test_inapplicable_strategy_exits_2_before_any_census(tmp_path, monkeypatch, capsys):
    def census(*args, **kwargs):
        raise AssertionError("a census ran")

    monkeypatch.setattr(solver, "find_all", census)
    code, _ = _run(tmp_path, "count", CONFORMAL_COUNT_CFG + "strategy = axis_jitter\n")
    assert code == 2
    assert "axis_jitter does not apply" in capsys.readouterr().err


def test_an_infinite_length_bound_exits_2_before_any_census(tmp_path, monkeypatch, capsys):
    def census(*args, **kwargs):
        raise AssertionError("a census ran")

    monkeypatch.setattr(solver, "find_all", census)
    code, _ = _run(tmp_path, "census",
                   ELLIPSOID_CFG.replace("length_bound = 7.0", "length_bound = inf"))
    assert code == 2
    assert "length_bound: must be finite" in capsys.readouterr().err


def test_census_protocol_ignores_the_strategy(tmp_path):
    # the census protocol draws no perturbation, so any strategy passes
    cfg = cli.load_config(_write(tmp_path, "count.cfg", COUNT_CFG + "protocol = census\n"
                                 "strategy = conformal_noise\n"), "count")
    assert (cfg.protocol, cfg.strategy) == ("census", "conformal_noise")


@pytest.mark.parametrize("text, fragment", [
    (FOLD_CFG.replace("start = parallel", "start = census"),
     "continue with start=census needs length_bound"),
    (FOLD_CFG.replace("z = 0.55\n", ""), "continue with start=parallel needs z"),
])
def test_continue_start_without_its_key_exits_2(tmp_path, capsys, text, fragment):
    code, _ = _run(tmp_path, "continue", text)
    assert code == 2
    assert fragment in capsys.readouterr().err


def test_cli_reports_config_error_exit_code(tmp_path, capsys):
    code, _ = _run(tmp_path, "census", ELLIPSOID_CFG + "typo_key = 3\n")
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


def test_command_line_overrides_reach_the_command(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "census", lambda cfg, out: seen.append(cfg))
    code, _ = _run(tmp_path, "census", ELLIPSOID_CFG,
                   extra=("--mesh", "256", "--seed", "3", "--trials", "4"))
    assert code == 0
    assert [(c.mesh, c.seed, c.trials) for c in seen] == [(256, 3, 4)]


@pytest.mark.parametrize("extra", [("--mesh", "100"), ("--trials", "0"), ("--seed", "-1"),
                                   ("--mesh", "many")])
def test_invalid_command_line_overrides_exit_2(tmp_path, monkeypatch, capsys, extra):
    # a bad flag fails with the message of the same value as a [run] key
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "census", lambda cfg, out: seen.append(cfg))
    key, value = extra[0][2:], extra[1]
    base = "".join(line for line in ELLIPSOID_CFG.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    errors = []
    for cfg, flags in ((base, extra), (base + f"{key} = {value}\n", ())):
        code, _ = _run(tmp_path, "census", cfg, extra=flags)
        assert code == 2
        errors.append(capsys.readouterr().err)
    assert not seen
    assert "config error" in errors[0]
    assert errors[0] == errors[1]


def test_census_outputs(tmp_path):
    code, out = _run(tmp_path, "census", ELLIPSOID_CFG)
    assert code == 0
    lines = (out / "geodesics.csv").read_text().strip().splitlines()
    assert lines[0] == "id,d,length,residual,partner"
    assert len(lines) == 7  # three classes, two orientations each
    body = "\n".join(lines)
    for frozen in ("6.1344978839180992", "6.3028700871907368", "6.4495922490578668"):
        assert body.count(frozen) == 2
    ids = [ln.split(",")[0] for ln in lines[1:]]
    assert ids == ["g000.1+", "g000.1-", "g001.1+", "g001.1-", "g002.1+", "g002.1-"]
    loop_files = sorted(p.name for p in (out / "loops").iterdir())
    assert len(loop_files) == 6
    first = (out / "loops" / loop_files[0]).read_text().splitlines()
    assert int(first[0]) == 128
    assert len(first) == 129
    summary = (out / "summary.txt").read_text()
    assert "coverage (every class hit twice): PASS" in summary
    assert (out / "warnings.txt").exists()


def test_census_outputs_are_byte_identical(tmp_path):
    _, out1 = _run(tmp_path, "census", ELLIPSOID_CFG, outname="out1")
    _, out2 = _run(tmp_path, "census", ELLIPSOID_CFG, outname="out2")
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_census_below_bound_is_empty_but_clean(tmp_path):
    code, out = _run(tmp_path, "census", ELLIPSOID_CFG.replace("7.0", "0.5"))
    assert code == 0
    lines = (out / "geodesics.csv").read_text().strip().splitlines()
    assert lines == ["id,d,length,residual,partner"]


def test_revolution_census_run(tmp_path):
    code, out = _run(tmp_path, "census", REVOLUTION_CENSUS_CFG)
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "classes: 2" in summary
    assert "rows: 4" in summary
    # one seed per critical parallel, each converged to a class of its own
    assert "coverage (every critical parallel converged to its own class): PASS" in summary
    assert (out / "warnings.txt").read_text().splitlines() == [
        "coverage: revolution census seeds only critical parallels; "
        "non-parallel classes below the bound are not searched"]


def test_revolution_census_coverage_fails_on_a_failed_parallel(tmp_path, monkeypatch):
    real_refine = solver.refine_many
    calls = []

    def refine(seeds, tol=1e-10):
        out = real_refine(seeds, tol=tol)
        calls.append(len(seeds))
        return [solver.StallError("stub")] + out[1:] if len(calls) == 1 else out

    monkeypatch.setattr(solver, "refine_many", refine)
    code, out = _run(tmp_path, "census", REVOLUTION_CENSUS_CFG)
    assert code == 0
    assert calls == [2, 1]
    summary = (out / "summary.txt").read_text()
    assert "classes: 1" in summary
    assert "coverage (every critical parallel converged to its own class): FAIL" in summary


def test_jacobi_output_blocks(tmp_path):
    code, out = _run(tmp_path, "jacobi", ELLIPSOID_CFG)
    assert code == 0
    text = (out / "jacobi.txt").read_text()
    for ident in ("g000", "g001", "g002"):
        assert f"geodesic {ident}" in text
    assert "multipliers" in text
    assert "routes_agree=yes" in text


def test_weights_csv(tmp_path):
    code, out = _run(tmp_path, "weights", ELLIPSOID_CFG)
    assert code == 0
    lines = (out / "weights.csv").read_text().strip().splitlines()
    assert lines[0].startswith("ident,length,orientations,iota_1,iota_2,nu_1,nu_2")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 3
    n1_col = lines[0].split(",").index("n_1")
    assert [r[n1_col] for r in rows] == ["-1", "1", "-1"]


def test_count_outputs(tmp_path):
    code, out = _run(tmp_path, "count", COUNT_CFG)
    assert code == 0
    lines = (out / "count.csv").read_text().strip().splitlines()
    assert lines[0] == "length,weight,cumulative"
    assert [ln.split(",")[2] for ln in lines[1:]] == ["-2", "0", "-2"]
    summary = (out / "summary.txt").read_text()
    assert "pi(5) = 0" in summary
    assert "pi(7) = -2" in summary
    assert "count over (0, 7): -2" in summary
    step = (out / "step.csv").read_text().strip().splitlines()
    assert step[0] == "x,y"
    assert len(step) > 4


def test_count_refuses_a_window_end_on_a_length(tmp_path):
    # the window ends 1.8e-11 below the class length 6.1344978839181; the
    # census reaches one resolution past the end, so the class is in the
    # table and the total is refused instead of read as 0
    cfg = COUNT_CFG.replace("window = 0.0, 7.0", "window = 0.0, 6.1344978839") \
        .replace("probes = 5.0, 7.0", "probes = 5.0")
    code, out = _run(tmp_path, "count", cfg)
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "pi(5) = 0" in summary
    assert "count over (0, 6.1344978838999999): REFUSED (window end on a length)" in summary
    assert (out / "warnings.txt").read_text().splitlines() == [
        "spectrum-collision: window end 6.1344978839 lands on the length of g000 (d=1)"]


def test_continue_fold_run(tmp_path):
    code, out = _run(tmp_path, "continue", FOLD_CFG)
    assert code == 0
    events = (out / "events.csv").read_text().strip().splitlines()
    assert len(events) == 2
    fields = events[1].split(",")
    assert fields[1] == "fold"
    assert abs(float(fields[2]) - 0.5) < 1e-6
    summary = (out / "summary.txt").read_text()
    assert "invariance event 1: PASS" in summary
    assert "overall: PASS" in summary
    inv = (out / "invariance.txt").read_text()
    assert "local invariance: PASS" in inv


def test_continue_fails_where_a_branch_point_disagrees_with_its_parity(
        tmp_path, monkeypatch):
    # -M keeps every Floquet nullity of a hyperbolic point at 0 but flips the
    # sign of det(M - I), so only the parity check can tell; the fold branch
    # passes hyperbolic parallels (tr M > 2)
    real_point = continuation._point

    def point(t, s, result):
        pt = real_point(t, s, result)
        return dataclasses.replace(
            pt, mono=dataclasses.replace(pt.mono, matrix=-pt.mono.matrix))

    monkeypatch.setattr(continuation, "_point", point)
    code, out = _run(tmp_path, "continue", FOLD_CFG)
    assert code == 0
    warnings = [line for line in (out / "warnings.txt").read_text().splitlines()
                if line.startswith("parity: ")]
    assert warnings
    assert all(line.startswith("parity: branch g000 at t ") and ", d=1: iota " in line
               for line in warnings)
    summary = (out / "summary.txt").read_text()
    assert "invariance event 1: PASS" in summary
    assert summary.splitlines()[-1] == "overall: FAIL"


def test_continue_period_doubling_run(tmp_path):
    code, out = _run(tmp_path, "continue", PD_CFG)
    assert code == 0
    events = (out / "events.csv").read_text().strip().splitlines()
    fields = events[1].split(",")
    assert fields[1] == "period_doubling"
    assert abs(float(fields[2]) - 0.798186551) < 1e-6
    summary = (out / "summary.txt").read_text()
    assert "overall: PASS" in summary
    traces = (out / "traces.csv").read_text().strip().splitlines()
    assert traces[0].startswith("branch_id,s,t,length")
    assert len(traces) > 5


def test_degenerate_family_census_warns(tmp_path):
    sphere_cfg = ELLIPSOID_CFG.replace("1.05, 1.0, 0.95", "1.0, 1.0, 1.0")
    sphere_cfg = sphere_cfg.replace("planes = 24", "planes = 64")
    code, out = _run(tmp_path, "census", sphere_cfg)
    assert code == 0
    warnings_lines = (out / "warnings.txt").read_text().splitlines()
    assert ("degenerate-family: many classes share one length within 1e-06; "
            "weights need the perturbation protocol (degenerate-weight)") in warnings_lines


def test_stall_exit_code_and_partial_outputs(tmp_path, capsys):
    code, out = _run(tmp_path, "continue", STALL_CFG)
    assert code == 3
    traces = (out / "traces.csv").read_text().strip().splitlines()
    assert len(traces) > 5  # partial branch data still lands on disk
    summary = (out / "summary.txt").read_text()
    assert "stalled" in summary
    assert "underflow" in capsys.readouterr().err


def test_ambiguous_weight_exit_code(tmp_path, monkeypatch, capsys):
    def fake(*args, **kwargs):
        raise weights.AmbiguousWeight("trials disagree", (-2, 0))

    monkeypatch.setattr(weights, "degenerate_weight", fake)
    sphere_cfg = COUNT_CFG.replace("1.05, 1.0, 0.95", "1.0, 1.0, 1.0")
    code, out = _run(tmp_path, "degenerate-weight", sphere_cfg)
    assert code == 4
    err = capsys.readouterr().err
    assert "trials disagree [trial values: -2, 0]" in err


def test_degenerate_weight_strategies_disagree(tmp_path, monkeypatch, capsys):
    def fake(spec, window, strategy, **kwargs):
        value = -2 if strategy == "axis_jitter" else 0
        return SimpleNamespace(value=value, trials=())

    monkeypatch.setattr(weights, "degenerate_weight", fake)
    sphere_cfg = COUNT_CFG.replace("1.05, 1.0, 0.95", "1.0, 1.0, 1.0")
    code, out = _run(tmp_path, "degenerate-weight", sphere_cfg)
    assert code == 4
    summary = (out / "summary.txt").read_text()
    assert "strategies agree: FAIL" in summary
    assert (out / "degenerate.csv").read_text() == \
        "strategy,trial,seed,redraws,classes,value\n"
    assert "[trial values: -2, 0]" in capsys.readouterr().err


def test_both_strategies_count_a_conformal_sphere_by_conformal_noise(tmp_path):
    code, out = _run(tmp_path, "count", CONFORMAL_COUNT_CFG)
    assert code == 0
    rows = (out / "degenerate.csv").read_text().strip().splitlines()[1:]
    assert rows and all(r.split(",")[0] == "conformal_noise" for r in rows)
    assert all(r.split(",")[-1] == "-2" for r in rows)
    assert "trials agree: PASS (value -2)" in (out / "summary.txt").read_text()


def test_both_strategies_run_only_what_applies(tmp_path, monkeypatch):
    ran = []

    def fake(spec, window, strategy, **kwargs):
        ran.append(strategy)
        return SimpleNamespace(value=-2, trials=())

    monkeypatch.setattr(weights, "degenerate_weight", fake)
    code, out = _run(tmp_path, "degenerate-weight", COUNT_CFG)
    assert code == 0
    assert ran == ["axis_jitter"]
    assert "strategies agree: PASS (value -2)" in (out / "summary.txt").read_text()


def test_no_strategy_applies_to_a_revolution_metric(tmp_path, capsys):
    cfg = _REVOLUTION + "band = -1, 1\n[run]\nwindow = 0.0, 7.0\nprotocol = degenerate\n"
    code, _ = _run(tmp_path, "count", cfg)
    assert code == 1
    assert "no perturbation strategy applies to a revolution metric" in capsys.readouterr().err


def test_unresolved_cluster_exit_code(tmp_path, monkeypatch):
    def fake(*args, **kwargs):
        raise continuation.UnresolvedClusterError("events too close to separate")

    monkeypatch.setattr(continuation, "continue_branch", fake)
    code, _ = _run(tmp_path, "continue", FOLD_CFG)
    assert code == 5


def test_count_grid_along_a_path(tmp_path):
    path_cfg = """\
[metric.start]
family = ellipsoid
axes = 1.05, 1.0, 0.95

[metric.end]
family = ellipsoid
axes = 1.06, 1.0, 0.94

[run]
mesh = 128
planes = 24
seed = 7
length_bound = 7.0
window = 0.0, 7.0

[continue]
start = census
grid = 3
"""
    code, out = _run(tmp_path, "continue", path_cfg)
    assert code == 0
    grid = (out / "count_grid.csv").read_text().strip().splitlines()
    assert grid[0] == "s,count"
    assert [ln.split(",")[1] for ln in grid[1:]] == ["-2", "-2", "-2"]
    assert "count grid: PASS" in (out / "summary.txt").read_text()


def test_census_warnings_count_the_seeds_that_left_the_band():
    census = solver.Census(
        metric=MetricSpec.ellipsoid((1.0, 1.0, 1.0)), max_length=1.0, entries=(),
        degenerate_family=False, certificate={"band_exits": 2, "complete": False})
    out = cli.Out("unused")
    cli._census_warnings(census, out)
    assert out.warnings == ["band-exit: 2 seeds left the chart band"]


def test_census_warnings_name_the_revolution_seeding():
    census = solver.Census(
        metric=MetricSpec.revolution("poly", (1.0, 0.0, -0.2), (-0.8, 0.8)),
        max_length=1.0, entries=(), degenerate_family=False,
        certificate={"band_exits": 0, "complete": False})
    out = cli.Out("unused")
    cli._census_warnings(census, out)
    assert out.warnings == [
        "coverage: revolution census seeds only critical parallels; "
        "non-parallel classes below the bound are not searched"]


def test_count_outputs_refuse_a_probe_on_colliding_jumps(monkeypatch):
    # two classes whose lengths differ by less than the resolution: the table
    # flags the pair, and a probe on their jump is refused, not evaluated
    lengths = {"g000": 5.0, "g001": 5.0 + 1e-12, "g002": 6.0}
    census = solver.Census(
        metric=MetricSpec.ellipsoid((1.0, 1.0, 1.0)), max_length=7.0,
        entries=tuple(solver.CensusEntry(ident=k, result=SimpleNamespace(length=v), hits=2)
                      for k, v in lengths.items()),
        degenerate_family=False, certificate={})
    monkeypatch.setattr(weights, "weigh_result", lambda result, ident: weights.WeightRecord(
        ident=ident, length=result.length, iota=(1, 1), nu=(0, 0), eps=(-1, -1),
        n1=-1, n2=0, routes_agree=True))
    table = weights.build_count_table(census)
    assert table.collisions == ((0, 1),)
    out = cli.Out("unused")
    cli._count_outputs(table, (0.0, 7.0), (5.0, 5.5), out)
    assert out.warnings == [
        "length-collision: rows 0 and 1 (g000 d=1, g001 d=1) within resolution",
        "spectrum-collision: count query at 5.0 lands on the jump of g000 (d=1)"]
    assert out.summary == ["pi(5) = REFUSED (on a jump)", "pi(5.5) = -4",
                           "count over (0, 7): -6"]


def test_count_grid_skips_a_degenerate_point(monkeypatch):
    path = continuation.MetricPath(MetricSpec.ellipsoid((1.05, 1.0, 0.95)),
                                   MetricSpec.ellipsoid((1.0, 1.0, 1.0)))
    cfg = cli.RunConfig(command="continue", metric=path.start, path=path,
                        window=(0.0, 7.0), grid=3)
    table = weights.CountTable(
        metric=path.start, max_length=7.0, records=(), collisions=(),
        rows=(weights.CountRow(length=6.0, ident="g000", d=1, contribution=-2,
                               cumulative=-2),))

    def build(census):
        if census == path.at(0.5):
            raise weights.NotSuperRigid("primitive nullity is 2", "g000")
        return table

    monkeypatch.setattr(cli, "_run_census", lambda cfg, spec, bound: spec)
    monkeypatch.setattr(weights, "build_count_table", build)
    out = cli.Out("unused")
    rows, counts = cli._count_grid(cfg, out)
    assert rows == [(0.0, -2), (1.0, -2)]
    assert counts == [-2, -2]
    assert out.warnings == ["count-grid: s=0.5 is degenerate; point skipped"]


def test_count_grid_reports_a_window_end_on_a_length_as_a_crossing(monkeypatch):
    path = continuation.MetricPath(MetricSpec.ellipsoid((1.05, 1.0, 0.95)),
                                   MetricSpec.ellipsoid((1.06, 1.0, 0.94)))
    cfg = cli.RunConfig(command="continue", metric=path.start, path=path,
                        window=(0.0, 6.0), grid=3)
    bounds = []

    def table_at(length):
        return weights.CountTable(
            metric=path.start, max_length=6.0, records=(), collisions=(),
            rows=(weights.CountRow(length=length, ident="g000", d=1, contribution=-2,
                                   cumulative=-2),))

    def census(cfg, spec, bound):
        bounds.append(bound)
        return spec

    monkeypatch.setattr(cli, "_run_census", census)
    monkeypatch.setattr(weights, "build_count_table", lambda spec: table_at(
        6.0 if spec == path.at(0.5) else 5.0))
    out = cli.Out("unused")
    rows, counts = cli._count_grid(cfg, out)
    assert bounds == [weights.count_bound(6.0)] * 3
    assert rows == [(0.0, -2), (1.0, -2)]
    assert counts == [-2, -2]
    assert out.warnings == [
        "count-grid: s=0.5 is a crossing (window end 6.0 lands on the length "
        "of g000 (d=1)); point skipped"]


def test_continue_starts_from_the_refined_principal_ellipse(tmp_path, monkeypatch):
    cfg_text = """\
[metric.start]
family = ellipsoid
axes = 1.05, 1.0, 0.95

[metric.end]
family = ellipsoid
axes = 1.06, 1.0, 0.94

[run]
mesh = 128

[continue]
start = principal
plane = 0, 2
"""
    refined = SimpleNamespace(loop=None)
    seeds, starts = [], []

    def refine(seed, tol):
        seeds.append((seed, tol))
        return refined

    def follow(path, start, **kwargs):
        starts.append(start)
        return continuation.BranchResult(path=path, points=(), events=(),
                                         stop_reason="reached_end")

    monkeypatch.setattr(solver, "refine_to_geodesic", refine)
    monkeypatch.setattr(continuation, "continue_branch", follow)
    code, out = _run(tmp_path, "continue", cfg_text)
    assert code == 0
    assert starts == [refined]
    (seed, tol), = seeds
    want = loops.principal_ellipse(MetricSpec.ellipsoid((1.05, 1.0, 0.95)), 0, 2, 128)
    assert np.array_equal(seed.nodes, want.nodes)
    assert tol == 1e-10
    assert "branch g000: reached_end, samples 0, events 0" in (out / "summary.txt").read_text()


def test_a_stall_without_partial_results_keeps_the_earlier_branches(
        tmp_path, monkeypatch, capsys):
    # a monodromy whose parity agrees with the patched indices 1 and 2
    point = continuation.BranchPoint(
        t=0.0, s=0.0, trace=1.5, result=SimpleNamespace(length=6.25), data=None,
        mono=SimpleNamespace(matrix=np.array([[-2.5, 1.0], [-1.0, 0.0]])))
    followed = []

    def follow(path, start, **kwargs):
        followed.append(start)
        if start == "second":
            raise solver.StallError("continuation step size underflow")
        return continuation.BranchResult(path=path, points=(point,), events=(),
                                         stop_reason="reached_end")

    monkeypatch.setattr(cli, "_start_results", lambda cfg: [
        ("g000", "first"), ("g001", "second"), ("g002", "third")])
    monkeypatch.setattr(continuation, "continue_branch", follow)
    monkeypatch.setattr(jacobi, "index_nullity",
                        lambda data, d: SimpleNamespace(iota=d, nu=0))
    code, out = _run(tmp_path, "continue", FOLD_CFG)
    assert code == 3
    assert followed == ["first", "second"]  # no branch after the stall
    assert (out / "traces.csv").read_text().splitlines() == [
        "branch_id,s,t,length,iota_1,iota_2,nu_1,nu_2,eps_1,eps_2,event",
        "g000,0,0,6.25,1,2,0,0,-1,1,"]
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-2:] == ["overall: FAIL (continuation stalled)",
                            "error: continuation step size underflow"]
    assert not any(line.startswith(("branch g001", "branch g002")) for line in summary)
    assert "underflow" in capsys.readouterr().err


def test_count_reuses_the_first_trials_census(tmp_path, monkeypatch):
    # protocol = degenerate runs no census of the metric itself, only one per
    # trial; the step data come from trial 0's count table, with no second
    # census and no second Jacobi report of any class
    bounds = []
    reports = []
    original = solver.find_all
    original_report = jacobi.jacobi_report

    def counting(spec, max_length, *args, **kwargs):
        bounds.append(max_length)
        return original(spec, max_length, *args, **kwargs)

    def reporting(source, *args, **kwargs):
        reports.append(source)
        return original_report(source, *args, **kwargs)

    monkeypatch.setattr(solver, "find_all", counting)
    monkeypatch.setattr(jacobi, "jacobi_report", reporting)
    code, out = _run(tmp_path, "count", SPHERE_COUNT_CFG)
    assert code == 0
    assert len(bounds) == 1
    assert len(reports) == 3  # the trial's three classes, once each
    assert bounds[0] >= 7.0 + 3.0 * 1e-2
    degenerate = (out / "degenerate.csv").read_text().strip().splitlines()
    assert degenerate[1].split(",")[-1] == "-2"
    lines = (out / "count.csv").read_text().strip().splitlines()
    assert lines[0] == "length,weight,cumulative"
    assert lines[-1].split(",")[2] == "-2"
    assert "trials agree: PASS (value -2)" in (out / "summary.txt").read_text()


def test_count_trials_use_the_configured_tolerances(tmp_path, monkeypatch):
    # [tolerances] reaches the census of the metric and the trial census that
    # auto falls back to
    tols = []
    original = solver.find_all

    def recording(spec, max_length, *args, **kwargs):
        tols.append((kwargs.get("tol"), kwargs.get("dedup_tol")))
        return original(spec, max_length, *args, **kwargs)

    monkeypatch.setattr(solver, "find_all", recording)
    cfg = SPHERE_COUNT_CFG.replace("protocol = degenerate\n", "") \
        + "\n[tolerances]\nresidual = 1e-9\ndedup = 1e-5\n"
    code, _ = _run(tmp_path, "count", cfg)
    assert code == 0
    assert tols == [(1e-9, 1e-5)] * 2


def test_count_with_conformal_noise(tmp_path):
    # the perturbation draws the noise harmonics of degree 1 to 3 on top of
    # the round sphere, and the one trial still finds the three classes
    code, out = _run(tmp_path, "count", NOISE_COUNT_CFG)
    assert code == 0
    degenerate = (out / "degenerate.csv").read_text().strip().splitlines()
    assert degenerate[1] == "conformal_noise,0,11,0,3,-2"
    lines = (out / "count.csv").read_text().strip().splitlines()
    assert lines[0] == "length,weight,cumulative"
    assert len(lines) == 4
    assert lines[-1].split(",")[2] == "-2"
    assert "trials agree: PASS (value -2)" in (out / "summary.txt").read_text()


def test_count_auto_falls_back_on_a_symmetric_metric(tmp_path):
    # 24 planes on the round sphere find 24 great circles, too few to flag a
    # degenerate family, so auto tries the census protocol; the first class
    # is not super-rigid and auto moves on to the perturbation protocol
    auto_cfg = SPHERE_COUNT_CFG.replace("protocol = degenerate\n", "")
    code, auto = _run(tmp_path, "count", auto_cfg, outname="auto")
    assert code == 0
    summary = (auto / "summary.txt").read_text()
    assert "protocol: degenerate (auto: g000 not super-rigid)" in summary
    assert "trials agree: PASS (value -2)" in summary
    code, explicit = _run(tmp_path, "count", SPHERE_COUNT_CFG, outname="explicit")
    assert code == 0
    for name in ("count.csv", "degenerate.csv", "step.csv"):
        assert (auto / name).read_bytes() == (explicit / name).read_bytes()
    census_cfg = SPHERE_COUNT_CFG.replace("protocol = degenerate", "protocol = census")
    code, census = _run(tmp_path, "count", census_cfg, outname="census")
    assert code == 1
    summary = (census / "summary.txt").read_text()
    assert "protocol: census\nerror: primitive nullity is 2" in summary
