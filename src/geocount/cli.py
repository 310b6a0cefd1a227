"""Command-line front end: census, analysis, weights, counting, continuation.

Run configurations live in flat key/value text files (INI sections, no
nesting).  Every command writes CSV tables and plain-text reports into an
output directory; identical configs (including the master seed) produce
byte-identical files.  Exit codes: 0 success, 1 anything else, 2 config
parse error, 3 solver stall (partial results are still written), 4 ambiguous
windowed count, 5 unresolved event cluster.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import continuation, geometry, jacobi, loops, solver, weights
from .geometry import MetricSpec

MESH_CHOICES = (128, 256, 512, 1024)


class ConfigError(ValueError):
    """The run configuration could not be parsed or validated."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_METRIC_KEYS = {
    "ellipsoid": {"family", "axes"},
    "revolution": {"family", "profile", "coefficients", "band"},
    "conformal_sphere": {"family", "terms"},
}
_RUN_KEYS = {"mesh", "seed", "trials", "planes", "length_bound", "window",
             "protocol", "strategy", "amplitude", "d_max", "probes"}
_TOL_KEYS = {"residual", "event_bisection", "dedup"}
_CONTINUE_KEYS = {"start", "z", "plane", "grid", "delta", "ds", "ds_max",
                  "max_steps"}


def _floats(text: str, key: str) -> tuple:
    try:
        vals = tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a list of numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{key}: every value must be finite, got {vals}")
    return vals


def _terms(text: str) -> tuple:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 3:
            raise ConfigError(f"terms: expected 'l,m,coeff' triples, got {chunk!r}")
        try:
            out.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ConfigError(f"terms: bad triple {chunk!r}") from exc
    if not out:
        raise ConfigError("terms: at least one harmonic term is required")
    return tuple(out)


def _metric_from_section(sec, name: str) -> MetricSpec:
    family = sec.get("family")
    if family not in _METRIC_KEYS:
        raise ConfigError(f"[{name}] family must be one of "
                          f"{sorted(_METRIC_KEYS)}, got {family!r}")
    extra = set(sec) - _METRIC_KEYS[family]
    if extra:
        raise ConfigError(f"[{name}] unknown keys for family {family}: {sorted(extra)}")
    try:
        if family == "ellipsoid":
            if "axes" not in sec:
                raise ConfigError(f"[{name}] ellipsoid needs 'axes'")
            return MetricSpec.ellipsoid(_floats(sec["axes"], "axes"))
        if family == "revolution":
            for key in ("profile", "coefficients", "band"):
                if key not in sec:
                    raise ConfigError(f"[{name}] revolution needs {key!r}")
            band = _floats(sec["band"], "band")
            if len(band) != 2:
                raise ConfigError(f"[{name}] band must be two numbers")
            return MetricSpec.revolution(
                sec["profile"], _floats(sec["coefficients"], "coefficients"), band)
        if "terms" not in sec:
            raise ConfigError(f"[{name}] conformal_sphere needs 'terms'")
        return MetricSpec.conformal_sphere(_terms(sec["terms"]))
    except geometry.GeometryError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


@dataclass
class RunConfig:
    command: str
    metric: MetricSpec | None = None
    path: continuation.MetricPath | None = None
    mesh: int = 256
    seed: int = 0
    trials: int = 2
    planes: int = 200
    length_bound: float | None = None
    window: tuple | None = None
    protocol: str = "auto"
    strategy: str = "both"
    amplitude: float = 1e-2
    d_max: int = 2
    probes: tuple = ()
    tol_residual: float = 1e-10
    tol_event: float = 1e-8
    tol_dedup: float = 1e-6
    start_kind: str = "census"
    start_z: float | None = None
    start_plane: tuple = (0, 1)
    grid: int = 0
    delta: float = 0.02
    ds: float = 0.04
    ds_max: float = 0.12
    max_steps: int = 400


def _get_int(sec, key, default, lo=None, hi=None):
    if key not in sec:
        return default
    try:
        val = int(sec[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {sec[key]!r}") from exc
    if lo is not None and val < lo:
        raise ConfigError(f"{key}: {val} is below {lo}")
    if hi is not None and val > hi:
        raise ConfigError(f"{key}: {val} is above {hi}")
    return val


def _get_float(sec, key, default, positive=False):
    if key not in sec:
        return default
    try:
        val = float(sec[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {sec[key]!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {val}")
    if positive and not val > 0.0:
        raise ConfigError(f"{key}: must be positive, got {val}")
    return val


def load_config(path: str, command: str, overrides=None) -> RunConfig:
    """Parse and validate a run configuration for the given subcommand;
    ``overrides`` maps [run] keys to value text that replaces the file's."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
        if overrides:
            cp.read_dict({"run": overrides})
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc

    known = {"metric", "metric.start", "metric.end", "run", "tolerances",
             "continue"}
    unknown = set(cp.sections()) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    cfg = RunConfig(command=command)
    if command == "continue":
        if not (cp.has_section("metric.start") and cp.has_section("metric.end")):
            raise ConfigError("continue needs [metric.start] and [metric.end]")
        g0 = _metric_from_section(cp["metric.start"], "metric.start")
        g1 = _metric_from_section(cp["metric.end"], "metric.end")
        try:
            cfg.path = continuation.MetricPath(g0, g1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.metric = g0
    else:
        if not cp.has_section("metric"):
            raise ConfigError(f"{command} needs a [metric] section")
        cfg.metric = _metric_from_section(cp["metric"], "metric")

    run = cp["run"] if cp.has_section("run") else {}
    extra = set(run) - _RUN_KEYS
    if extra:
        raise ConfigError(f"[run] unknown keys: {sorted(extra)}")
    cfg.mesh = _get_int(run, "mesh", cfg.mesh)
    cfg.seed = _get_int(run, "seed", cfg.seed, lo=0, hi=2 ** 64 - 1)
    cfg.trials = _get_int(run, "trials", cfg.trials, lo=1)
    cfg.planes = _get_int(run, "planes", cfg.planes, lo=1)
    cfg.d_max = _get_int(run, "d_max", cfg.d_max, lo=1, hi=4)
    cfg.length_bound = _get_float(run, "length_bound", None, positive=True)
    if "window" in run:
        win = _floats(run["window"], "window")
        if len(win) != 2 or not win[0] < win[1]:
            raise ConfigError(f"window: need an increasing pair, got {win}")
        cfg.window = win
    if "probes" in run:
        cfg.probes = _floats(run["probes"], "probes")
    cfg.amplitude = _get_float(run, "amplitude", cfg.amplitude, positive=True)
    cfg.protocol = run.get("protocol", cfg.protocol)
    if cfg.protocol not in ("auto", "census", "degenerate"):
        raise ConfigError(f"protocol: unknown value {cfg.protocol!r}")
    cfg.strategy = run.get("strategy", cfg.strategy)
    if cfg.strategy not in weights.PERTURBATION_STRATEGIES + ("both",):
        raise ConfigError(f"strategy: unknown value {cfg.strategy!r}")

    tols = cp["tolerances"] if cp.has_section("tolerances") else {}
    extra = set(tols) - _TOL_KEYS
    if extra:
        raise ConfigError(f"[tolerances] unknown keys: {sorted(extra)}")
    cfg.tol_residual = _get_float(tols, "residual", cfg.tol_residual, positive=True)
    cfg.tol_event = _get_float(tols, "event_bisection", cfg.tol_event, positive=True)
    cfg.tol_dedup = _get_float(tols, "dedup", cfg.tol_dedup, positive=True)

    cont = cp["continue"] if cp.has_section("continue") else {}
    extra = set(cont) - _CONTINUE_KEYS
    if extra:
        raise ConfigError(f"[continue] unknown keys: {sorted(extra)}")
    cfg.start_kind = cont.get("start", cfg.start_kind)
    if cfg.start_kind not in ("census", "parallel", "great_circle", "principal"):
        raise ConfigError(f"start: unknown value {cfg.start_kind!r}")
    cfg.start_z = _get_float(cont, "z", None)
    if "plane" in cont:
        plane = _floats(cont["plane"], "plane")
        dim = cfg.metric.ambient_dim
        if len(plane) != 2 or plane[0] == plane[1] or any(p not in range(dim) for p in plane):
            raise ConfigError(
                f"plane: need two distinct axis indices 0..{dim - 1}, got {plane}")
        cfg.start_plane = (int(plane[0]), int(plane[1]))
    cfg.grid = _get_int(cont, "grid", cfg.grid, lo=0)
    cfg.delta = _get_float(cont, "delta", cfg.delta, positive=True)
    cfg.ds = _get_float(cont, "ds", cfg.ds, positive=True)
    cfg.ds_max = _get_float(cont, "ds_max", cfg.ds_max, positive=True)
    cfg.max_steps = _get_int(cont, "max_steps", cfg.max_steps, lo=1)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.mesh not in MESH_CHOICES:
        raise ConfigError(f"mesh: must be one of {MESH_CHOICES}, got {cfg.mesh}")
    needs_bound = cfg.command in ("census", "jacobi", "weights")
    if needs_bound and cfg.length_bound is None:
        raise ConfigError(f"{cfg.command} needs length_bound in [run]")
    if cfg.command in ("count", "degenerate-weight") \
            and cfg.window is None and cfg.length_bound is None:
        raise ConfigError(f"{cfg.command} needs window or length_bound in [run]")
    if cfg.command == "count":
        hi = (cfg.window or (0.0, cfg.length_bound))[1]
        above = [p for p in cfg.probes if p > hi]
        if above:
            raise ConfigError(f"probes: {above} lie above the window's end {hi}")
    if cfg.command == "continue" and cfg.grid > 0 and cfg.window is None:
        raise ConfigError(f"grid: a count grid of {cfg.grid} points needs window in [run]")
    if cfg.command == "continue" and cfg.ds > cfg.ds_max:
        raise ConfigError(f"ds: the first step {cfg.ds} exceeds ds_max {cfg.ds_max}")
    perturbs = cfg.command == "degenerate-weight" \
        or cfg.command == "count" and cfg.protocol != "census"
    if perturbs and cfg.strategy != "both":
        try:
            applicable = weights.applicable_strategies(cfg.metric)
        except geometry.GeometryError:
            applicable = ()
        if cfg.strategy not in applicable:
            raise ConfigError(f"strategy: {cfg.strategy} does not apply to this "
                              f"{cfg.metric.family} metric")


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt(val) -> str:
    if isinstance(val, bool):
        return "yes" if val else "no"
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    if isinstance(val, (float, np.floating)):
        return f"{float(val):.17g}"
    return str(val)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _loop_record(nodes) -> str:
    """Flat loop record: node count, then one coordinate row per node."""
    lines = [str(len(nodes))]
    for row in np.asarray(nodes):
        lines.append(" ".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


class Out:
    """Accumulates output files; flushed even when a command fails midway."""

    def __init__(self, root: str):
        self.root = root
        self.files: dict[str, str] = {}
        self.warnings: list[str] = []
        self.summary: list[str] = []

    def add(self, rel: str, text: str) -> None:
        self.files[rel] = text

    def flush(self) -> None:
        self.files["warnings.txt"] = "".join(w + "\n" for w in self.warnings)
        self.files["summary.txt"] = "".join(s + "\n" for s in self.summary)
        for rel in sorted(self.files):
            dest = os.path.join(self.root, rel)
            os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
            with open(dest, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self.files[rel])


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _run_census(cfg: RunConfig, spec: MetricSpec, max_length: float) -> solver.Census:
    return solver.find_all(
        spec, max_length, mesh=cfg.mesh, planes=cfg.planes,
        seed=cfg.seed, tol=cfg.tol_residual, dedup_tol=cfg.tol_dedup)


def _census_warnings(census, out: Out) -> None:
    cert = census.certificate
    if census.degenerate_family:
        out.warnings.append(
            "degenerate-family: many classes share one length within "
            f"{solver.FAMILY_LENGTH_TOL:g}; "
            "weights need the perturbation protocol (degenerate-weight)")
    revolution = census.metric.family == "revolution"
    if census.entries and not cert["complete"] and not revolution:
        out.warnings.append(
            "coverage: some class was hit by only one seed; "
            "the census may be incomplete at this plane count")
    if revolution:
        out.warnings.append(
            "coverage: revolution census seeds only critical parallels; "
            "non-parallel classes below the bound are not searched")
    if cert["band_exits"]:
        out.warnings.append(
            f"band-exit: {cert['band_exits']} seeds left the chart band")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_census(cfg: RunConfig, out: Out) -> None:
    census = _run_census(cfg, cfg.metric, cfg.length_bound)
    _census_warnings(census, out)
    rows = []
    for entry, d in solver.iterates(census):
        # both orientations of every iterate, each naming the other
        loop = entry.result.loop if d == 1 else loops.cover(entry.result.loop, d)
        fwd, rev = f"{entry.ident}.{d}+", f"{entry.ident}.{d}-"
        for rid, partner, oriented in ((fwd, rev, loop), (rev, fwd, loops.reverse(loop))):
            rows.append((rid, d, d * entry.result.length, entry.result.residual, partner))
            out.add(f"loops/{rid}.txt", _loop_record(oriented.nodes))
    out.add("geodesics.csv",
            _csv(("id", "d", "length", "residual", "partner"), rows))
    cert = census.certificate
    out.summary.append("command: census")
    out.summary.append(f"classes: {len(census.entries)}")
    out.summary.append(f"rows: {len(rows)}")
    out.summary.append(f"degenerate family: {_fmt(census.degenerate_family)}")
    if census.metric.family == "revolution":
        rule, covered = "every critical parallel converged to its own class", cert["complete"]
    else:
        rule, covered = "every class hit twice", not census.entries or cert["complete"]
    out.summary.append(f"coverage ({rule}): {'PASS' if covered else 'FAIL'}")


def cmd_jacobi(cfg: RunConfig, out: Out) -> None:
    census = _run_census(cfg, cfg.metric, cfg.length_bound)
    _census_warnings(census, out)
    blocks = []
    all_ok = True
    for entry in census.entries:
        rep = jacobi.jacobi_report(entry.result, d_max=cfg.d_max)
        lines = [f"geodesic {entry.ident}",
                 f"length {_fmt(entry.result.length)}",
                 f"trace {_fmt(float(np.trace(rep.mono.matrix)))}",
                 f"det_defect {_fmt(rep.mono.det_defect)}"]
        mults = " ".join(
            f"({_fmt(m.real)}, {_fmt(m.imag)})" for m in rep.mono.multipliers)
        lines.append(f"multipliers {mults}")
        for idx in rep.indices:
            lines.append(
                f"d {idx.d}: iota {idx.iota} nu {idx.nu} tau {_fmt(idx.tau)} "
                f"gap {_fmt(idx.eigen_gap)} floquet_nu "
                f"{rep.floquet_nullities[idx.d]} "
                f"sector_ok {_fmt(rep.sector_checks[idx.d])}")
        res_flags = ",".join(str(d) for d in range(1, 5)
                             if rep.floquet_nullities[d]) or "none"
        lines.append(f"flags routes_agree={_fmt(rep.routes_agree)} "
                     f"resonances={res_flags}")
        blocks.append("\n".join(lines))
        all_ok = all_ok and rep.routes_agree
    out.add("jacobi.txt", "\n\n".join(blocks) + ("\n" if blocks else ""))
    out.summary.append("command: jacobi")
    out.summary.append(f"classes: {len(census.entries)}")
    out.summary.append(f"route agreement: {'PASS' if all_ok else 'FAIL'}")


def cmd_weights(cfg: RunConfig, out: Out) -> None:
    census = _run_census(cfg, cfg.metric, cfg.length_bound)
    _census_warnings(census, out)
    records = weights.build_count_table(census).records
    rows = [(rec.ident, rec.length, 2, rec.iota[0], rec.iota[1], rec.nu[0], rec.nu[1],
             rec.eps[0], rec.eps[1], rec.n1, rec.n2, rec.routes_agree)
            for rec in records]
    agree = all(rec.routes_agree for rec in records)
    out.add("weights.csv", _csv(
        ("ident", "length", "orientations", "iota_1", "iota_2", "nu_1", "nu_2",
         "eps_1", "eps_2", "n_1", "n_2", "routes_agree"), rows))
    out.summary.append("command: weights")
    out.summary.append(f"classes: {len(rows)}")
    out.summary.append(f"route agreement: {'PASS' if agree else 'FAIL'}")


_DEGENERATE_HEADER = ("strategy", "trial", "seed", "redraws", "classes", "value")


def _perturbation_trials(cfg: RunConfig, window: tuple, strategy: str):
    """The perturbation protocol at the run's settings: its result and one
    ``degenerate.csv`` row per trial."""
    result = weights.degenerate_weight(
        cfg.metric, window, strategy=strategy, seed=cfg.seed,
        trials=cfg.trials, amplitude=cfg.amplitude, mesh=cfg.mesh,
        planes=cfg.planes, tol=cfg.tol_residual, dedup_tol=cfg.tol_dedup)
    rows = [(strategy, i, t.seed, t.redraws, len(t.table.records), t.value)
            for i, t in enumerate(result.trials)]
    return result, rows


def _count_outputs(table, window, probes, out: Out) -> None:
    out.add("count.csv", _csv(
        ("length", "weight", "cumulative"),
        [(r.length, r.contribution, r.cumulative) for r in table.rows]))
    step = [(0.0, 0)]
    for row in table.rows:
        step.append((row.length, step[-1][1]))
        step.append((row.length, row.cumulative))
    out.add("step.csv", _csv(("x", "y"), step))
    for a, b in table.collisions:
        out.warnings.append(
            f"length-collision: rows {a} and {b} "
            f"({table.rows[a].ident} d={table.rows[a].d}, "
            f"{table.rows[b].ident} d={table.rows[b].d}) within resolution")
    for probe in probes:
        try:
            val = weights.count_function(table, probe)
            out.summary.append(f"pi({_fmt(probe)}) = {val}")
        except weights.SpectrumCollision as exc:
            out.warnings.append(f"spectrum-collision: {exc}")
            out.summary.append(f"pi({_fmt(probe)}) = REFUSED (on a jump)")
    label = f"count over ({_fmt(window[0])}, {_fmt(window[1])})"
    try:
        out.summary.append(f"{label}: {weights.set_weight(table, window)}")
    except weights.SpectrumCollision as exc:
        out.warnings.append(f"spectrum-collision: {exc}")
        out.summary.append(f"{label}: REFUSED (window end on a length)")


def cmd_count(cfg: RunConfig, out: Out) -> None:
    window = cfg.window or (0.0, cfg.length_bound)
    out.summary.append("command: count")
    protocol = cfg.protocol
    if protocol != "degenerate":
        census = _run_census(cfg, cfg.metric, weights.count_bound(window[1]))
        _census_warnings(census, out)
    if protocol == "auto":
        protocol = "degenerate" if census.degenerate_family else "census"
        out.summary.append(f"protocol: {protocol} (auto)")
    else:
        out.summary.append(f"protocol: {protocol}")

    if protocol == "census":
        try:
            table = weights.build_count_table(census)
        except weights.NotSuperRigid as exc:
            # a symmetric metric whose census is too small to flag a family
            if cfg.protocol != "auto":
                raise
            out.summary[-1] = f"protocol: degenerate (auto: {exc.ident} not super-rigid)"
        else:
            _count_outputs(table, window, cfg.probes, out)
            out.summary.append("super-rigid census: PASS")
            return

    strategy = cfg.strategy if cfg.strategy != "both" \
        else weights.applicable_strategies(cfg.metric)[0]
    result, rows = _perturbation_trials(cfg, window, strategy)
    out.add("degenerate.csv", _csv(_DEGENERATE_HEADER, rows))
    # an accepted trial has no iterate within pad of hi and counted only up
    # to hi + pad, so its rows, records and collisions lie below hi - pad;
    # probes lie at or below hi, so its table serves them as it is
    _count_outputs(result.trials[0].table, window, cfg.probes, out)
    out.warnings.append(
        "degenerate protocol: step data and probes come from the first "
        "perturbation trial; the window total is the all-trial consensus")
    out.summary.append(f"trials agree: PASS (value {result.value})")


def cmd_degenerate_weight(cfg: RunConfig, out: Out) -> None:
    window = cfg.window or (0.0, cfg.length_bound)
    strategies = weights.applicable_strategies(cfg.metric) if cfg.strategy == "both" \
        else (cfg.strategy,)
    out.summary.append("command: degenerate-weight")
    out.summary.append(f"window: ({_fmt(window[0])}, {_fmt(window[1])})")
    rows = []
    values = {}
    for strategy in strategies:
        result, trial_rows = _perturbation_trials(cfg, window, strategy)
        values[strategy] = result.value
        rows.extend(trial_rows)
        out.summary.append(f"strategy {strategy}: value {result.value} "
                           f"({len(result.trials)} trials agree)")
    out.add("degenerate.csv", _csv(_DEGENERATE_HEADER, rows))
    if len(set(values.values())) == 1:
        out.summary.append(f"strategies agree: PASS (value {next(iter(values.values()))})")
    else:
        out.summary.append(f"strategies agree: FAIL {values}")
        raise weights.AmbiguousWeight(
            f"perturbation strategies disagree: {values}", values.values())


def _start_results(cfg: RunConfig):
    """Seed geodesics at t = 0 for the continue command, keyed by ident."""
    spec0 = cfg.path.start
    if cfg.start_kind == "census":
        if cfg.length_bound is None:
            raise ConfigError("continue with start=census needs length_bound")
        census = _run_census(cfg, spec0, cfg.length_bound)
        return [(e.ident, e.result) for e in census.entries]
    if cfg.start_kind == "parallel":
        if cfg.start_z is None:
            raise ConfigError("continue with start=parallel needs z")
        seed = loops.parallel_circle(spec0, cfg.start_z, cfg.mesh)
    elif cfg.start_kind == "great_circle":
        e1, e2 = np.eye(spec0.ambient_dim)[list(cfg.start_plane)]
        seed = loops.great_circle_seed(spec0, e1, e2, cfg.mesh)
    else:
        seed = loops.principal_ellipse(
            spec0, cfg.start_plane[0], cfg.start_plane[1], cfg.mesh)
    return [("g000", solver.refine_to_geodesic(seed, tol=cfg.tol_residual))]


def _trace_rows(branch_id, result: continuation.BranchResult, mismatches=None):
    """One row per branch point.  A period doubling is marked on the row whose
    step spans its t; a fold, where t turns back, on the first point past the
    turn in arclength.

    Each point checks the index parity of its monodromy M: for d = 1, 2,
    wherever both the Floquet nullity and the direct nu(d) are 0,
    (-1)^iota(d) must be (-1)^p sign det(M^d - I) (``jacobi._parity_agrees``).
    One warning line per point and d where it is not goes to ``mismatches``.
    """
    mismatches = [] if mismatches is None else mismatches
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
        i1 = jacobi.index_nullity(pt.data, 1)
        i2 = jacobi.index_nullity(pt.data, 2)
        for d, direct in ((1, i1), (2, i2)):
            if direct.nu == 0 and jacobi.floquet_nullity(pt.mono, d) == 0 \
                    and not jacobi._parity_agrees(pt.mono, direct.iota, d):
                mismatches.append(
                    f"parity: branch {branch_id} at t {_fmt(pt.t)}, d={d}: "
                    f"iota {direct.iota} disagrees with sign det(M^d - I)")
        rows.append((branch_id, pt.s, pt.t, pt.result.length,
                     i1.iota, i2.iota, i1.nu, i2.nu,
                     (-1) ** i1.iota, (-1) ** i2.iota, marker))
        prev = pt
    return rows


def _event_block(idx, branch_id, event, report) -> list:
    lines = [f"event {idx} on {branch_id}: {event.kind}",
             f"  t {_fmt(event.t)} (accuracy {_fmt(event.t_accuracy)})",
             f"  trace {_fmt(event.trace)}",
             f"  nullity signature nu(1)={event.nu_signature[0]} "
             f"nu(2)={event.nu_signature[1]} "
             f"[{'PASS' if event.signature_ok else 'FAIL'}]"]
    if report is not None:
        for side, detail, recs in (
                ("before", report.detail_before, report.records_before),
                ("after", report.detail_after, report.records_after)):
            t_side = report.t_before if side == "before" else report.t_after
            total = report.total_before if side == "before" else report.total_after
            lines.append(f"  {side} (t {_fmt(t_side)}): total {total}")
            for key in sorted(detail):
                rec = recs.get(key)
                eps = f" eps ({rec.eps[0]}, {rec.eps[1]})" if rec else ""
                lines.append(f"    {key}: {detail[key]}{eps}")
        lines.append(
            f"  local invariance: {'PASS' if report.invariant else 'FAIL'}")
    return lines


def cmd_continue(cfg: RunConfig, out: Out) -> None:
    out.summary.append("command: continue")
    starts = _start_results(cfg)
    out.summary.append(f"branches: {len(starts)}")
    trace_rows = []
    event_rows = []
    invariance_lines = []
    all_ok = True
    n_events = 0
    stalled = None
    for ident, start in starts:
        try:
            result = continuation.continue_branch(
                cfg.path, start, ds=cfg.ds, ds_max=cfg.ds_max,
                max_steps=cfg.max_steps, tol=cfg.tol_residual,
                event_t_tol=cfg.tol_event, cluster_tol=cfg.tol_dedup)
        except solver.StallError as exc:
            result = getattr(exc, "partial", None)
            stalled = exc
            if result is None:
                break
        mismatches = []
        trace_rows.extend(_trace_rows(ident, result, mismatches))
        out.warnings.extend(mismatches)
        all_ok = all_ok and not mismatches
        out.summary.append(
            f"branch {ident}: {result.stop_reason}, "
            f"samples {len(result.points)}, events {len(result.events)}")
        for event in result.events:
            n_events += 1
            event_rows.append((ident, event.kind, event.t, event.t_accuracy,
                               event.trace, event.nu_signature[0],
                               event.nu_signature[1], event.signature_ok))
            report = None
            if stalled is None:
                report = continuation.verify_invariance(
                    cfg.path, event, delta=cfg.delta, tol=cfg.tol_residual)
                all_ok = all_ok and report.invariant and event.signature_ok
            invariance_lines.extend(_event_block(n_events, ident, event, report))
            out.summary.append(
                f"event {n_events}: {event.kind} at t {_fmt(event.t)} "
                f"[signature {'PASS' if event.signature_ok else 'FAIL'}]")
            if report is not None:
                out.summary.append(
                    f"invariance event {n_events}: "
                    f"{'PASS' if report.invariant else 'FAIL'} "
                    f"(before {report.total_before}, after {report.total_after})")
        if stalled is not None:
            break
    out.add("traces.csv", _csv(
        ("branch_id", "s", "t", "length", "iota_1", "iota_2", "nu_1", "nu_2",
         "eps_1", "eps_2", "event"), trace_rows))
    out.add("events.csv", _csv(
        ("branch_id", "kind", "t", "t_accuracy", "trace", "nu_1", "nu_2",
         "signature_ok"), event_rows))
    out.add("invariance.txt",
            "".join(line + "\n" for line in invariance_lines))

    if stalled is not None:
        out.summary.append("overall: FAIL (continuation stalled)")
        raise stalled

    if cfg.grid > 0:
        grid_rows, counts = _count_grid(cfg, out)
        out.add("count_grid.csv", _csv(("s", "count"), grid_rows))
        constant = len(set(counts)) == 1
        all_ok = all_ok and constant
        out.summary.append(
            f"count grid: {'PASS' if constant else 'FAIL'} "
            f"(values {sorted(set(counts))})")
    out.summary.append(f"events total: {n_events}")
    out.summary.append(f"overall: {'PASS' if all_ok else 'FAIL'}")


def _count_grid(cfg: RunConfig, out: Out):
    """Windowed counts on an s grid.  Degenerate grid points are skipped,
    and so are points where a length crosses a window end."""
    svals = list(np.linspace(0.0, 1.0, cfg.grid)) if cfg.grid > 1 else [0.5]
    rows = []
    counts = []
    for s in svals:
        census = _run_census(cfg, cfg.path.at(s), weights.count_bound(cfg.window[1]))
        try:
            table = weights.build_count_table(census)
        except weights.NotSuperRigid:
            out.warnings.append(
                f"count-grid: s={_fmt(s)} is degenerate; point skipped")
            continue
        try:
            val = weights.set_weight(table, cfg.window)
        except weights.SpectrumCollision as exc:
            out.warnings.append(
                f"count-grid: s={_fmt(s)} is a crossing ({exc}); point skipped")
            continue
        rows.append((s, val))
        counts.append(val)
    return rows, counts


COMMANDS = {
    "census": cmd_census,
    "jacobi": cmd_jacobi,
    "weights": cmd_weights,
    "count": cmd_count,
    "continue": cmd_continue,
    "degenerate-weight": cmd_degenerate_weight,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def exit_code_for(exc: BaseException) -> int:
    """Map a pipeline exception to the documented process exit code."""
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, solver.StallError):
        return 3
    if isinstance(exc, weights.AmbiguousWeight):
        return 4
    if isinstance(exc, continuation.UnresolvedClusterError):
        return 5
    return 1


def _describe(exc: BaseException) -> str:
    if isinstance(exc, weights.AmbiguousWeight):
        return f"{exc} [trial values: {', '.join(str(v) for v in exc.values)}]"
    return str(exc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocount",
        description="Closed-geodesic census, stability analysis, and "
                    "weighted counting on ellipsoids, surfaces of "
                    "revolution, and conformally round spheres.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("census", "find closed geodesics below a length bound"),
            ("jacobi", "index, nullity, and Floquet analysis per geodesic"),
            ("weights", "iterate weights of each census class"),
            ("count", "cumulative weighted count over a length window"),
            ("continue", "track branches along a metric path and verify "
                         "count invariance across events"),
            ("degenerate-weight", "windowed count of a degenerate metric "
                                  "via perturbation trials")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="run config file")
        sp.add_argument("--out", default="geocount_out",
                        help="output directory (default: geocount_out)")
        sp.add_argument("--mesh", help="override [run] mesh")
        sp.add_argument("--seed", help="override [run] seed")
        sp.add_argument("--trials", help="override [run] trials")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in ("mesh", "seed", "trials")
                 if getattr(args, key) is not None}
    try:
        cfg = load_config(args.config, args.command, overrides)
    except ConfigError as exc:
        print(f"geocount: config error: {exc}", file=sys.stderr)
        return 2

    out = Out(args.out)
    try:
        COMMANDS[args.command](cfg, out)
    except Exception as exc:  # noqa: BLE001 - mapped to the exit-code contract
        code = exit_code_for(exc)
        out.summary.append(f"error: {_describe(exc)}")
        out.flush()
        print(f"geocount: {_describe(exc)}", file=sys.stderr)
        return code
    out.flush()
    for line in out.summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
