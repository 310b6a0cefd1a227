"""Write the outputs of a fixed set of geocount runs into one directory, or
compare two such directories with a float tolerance.

    python3 tools/output_snapshot.py OUT_DIR
    python3 tools/output_snapshot.py --compare PARENT_DIR CHANGE_DIR

Runs ``geocount.cli.main`` on every benchmark workload config in
``perfbench/workloads.py`` at seeds 1 and 7, and on the CLI test configs of
``tests/test_cli.py`` (census, jacobi and weights on ``ELLIPSOID_CFG``, census
on ``REVOLUTION_CENSUS_CFG``, seeded at critical parallels, count on
``COUNT_CFG``, ``SPHERE_COUNT_CFG``, ``NOISE_COUNT_CFG`` and
``CONFORMAL_COUNT_CFG``, where the default strategy resolves to conformal
noise, continue on ``FOLD_CFG``, ``PD_CFG`` and ``STALL_CFG``, the one
config whose continuation gives up, with exit 3).  Each run writes its files to
``OUT_DIR/<run name>/`` plus an ``exit_code`` file and a ``seeds.log`` file,
which holds what the run logged to the ``geocount`` logger at DEBUG: one
line per census seed with its Newton iterations or its failure.  The
configs are imported from those two files, never copied, and geocount is
imported from the ``src`` directory of the checkout that holds this script,
so copying the script into another checkout snapshots that checkout.  Two
snapshots of the same outputs compare equal under ``diff -r``.  BLAS runs on
one thread unless the environment says otherwise.

``--compare`` checks two snapshot trees token by token.  Both must hold the
same files with the same line counts.  Each line is split on whitespace,
``,``, ``(`` and ``)``; separators and non-float tokens (integers, ids,
``yes``/``no`` flags, text) must match exactly, and a float token passes
when |a - b| <= REL_TOL * max(|a|, |b|).  A float against an integer
literal, such as ``0`` against ``1.2e-17`` (an exact 0.0 prints as ``0``),
always fails.  Every difference is listed with its file, line, both values
and, for numbers, the relative difference; the exit code is 1 when any
difference is outside the tolerance, 0 otherwise.  The lines of
``seeds.log`` hold integers and text only, so every seed's outcome and
iteration count must match exactly.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import logging
import os
import re
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 7)
TEST_RUNS = (
    ("ELLIPSOID_CFG", "census"),
    ("ELLIPSOID_CFG", "jacobi"),
    ("ELLIPSOID_CFG", "weights"),
    ("REVOLUTION_CENSUS_CFG", "census"),
    ("COUNT_CFG", "count"),
    ("SPHERE_COUNT_CFG", "count"),
    ("NOISE_COUNT_CFG", "count"),
    ("CONFORMAL_COUNT_CFG", "count"),
    ("FOLD_CFG", "continue"),
    ("PD_CFG", "continue"),
    ("STALL_CFG", "continue"),
)
REL_TOL = 1e-9

_SEPARATORS = re.compile(r"([\s,()]+)")
_FLOAT = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][+-]?\d+)?|[+-]?(?:inf|nan)")
_INT = re.compile(r"[+-]?\d+")
USAGE = ("usage: python3 tools/output_snapshot.py OUT_DIR\n"
         "       python3 tools/output_snapshot.py --compare PARENT_DIR CHANGE_DIR")


def _load(rel: str, name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, rel))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def runs():
    """(run name, subcommand, config text) for every snapshot run."""
    workloads = _load("perfbench/workloads.py", "_snapshot_workloads").WORKLOADS
    for workload, commands in sorted(workloads.items()):
        for cmd in commands:
            for seed in SEEDS:
                yield (f"{workload}-{cmd.name}-seed{seed}", cmd.subcommand,
                       cmd.config.format(seed=seed))
    test_cli = _load("tests/test_cli.py", "_snapshot_test_cli")
    for cfg_name, subcommand in TEST_RUNS:
        yield (f"test_cli-{cfg_name}-{subcommand}", subcommand,
               getattr(test_cli, cfg_name))


def snapshot(out_root: str) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from geocount import cli

    os.makedirs(out_root, exist_ok=True)
    logger = logging.getLogger("geocount")
    level = logger.level
    logger.setLevel(logging.DEBUG)
    try:
        with tempfile.TemporaryDirectory() as cfg_dir:
            for name, subcommand, text in runs():
                cfg_path = os.path.join(cfg_dir, f"{name}.cfg")
                with open(cfg_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                out_dir = os.path.join(out_root, name)
                log = io.StringIO()
                handler = logging.StreamHandler(log)
                handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
                logger.addHandler(handler)
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([subcommand, "--config", cfg_path, "--out", out_dir])
                finally:
                    logger.removeHandler(handler)
                for fname, body in (("exit_code", f"{code}\n"), ("seeds.log", log.getvalue())):
                    with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                        fh.write(body)
                print(f"{name}: exit {code} ({time.perf_counter() - t0:.1f} s)", flush=True)
    finally:
        logger.setLevel(level)
    return 0


# ---------------------------------------------------------------------------
# tolerance comparison
# ---------------------------------------------------------------------------

def _files(root: str) -> set:
    return {
        os.path.relpath(os.path.join(base, name), root)
        for base, _, names in os.walk(root) for name in names
    }


def _is_float(token: str) -> bool:
    return _FLOAT.fullmatch(token) is not None


def _compare_lines(rel: str, lineno: int, a: str, b: str) -> list:
    """(ok, message) for every differing token of one line pair."""
    ta, tb = _SEPARATORS.split(a), _SEPARATORS.split(b)
    where = f"{rel}:{lineno}"
    if len(ta) != len(tb) or ta[1::2] != tb[1::2]:
        return [(False, f"{where}: line layout differs: {a!r} -> {b!r}")]
    out = []
    for x, y in zip(ta[0::2], tb[0::2]):
        if x == y:
            continue
        floats = _is_float(x) + _is_float(y)
        # a float against an integer literal (``.17g`` prints 0.0 as ``0``)
        mixed = floats == 1 and all(_is_float(t) or _INT.fullmatch(t) for t in (x, y))
        if floats < 2 and not mixed:
            out.append((False, f"{where}: {x!r} -> {y!r} (not a float)"))
            continue
        fx, fy = float(x), float(y)
        scale = max(abs(fx), abs(fy))
        rel_diff = abs(fx - fy) / scale if scale > 0.0 else 0.0
        if mixed:
            out.append((False, f"{where}: {x} -> {y} (rel {rel_diff:.2e}, integer and float)"))
            continue
        ok = abs(fx - fy) <= REL_TOL * scale
        out.append((ok, f"{where}: {x} -> {y} (rel {rel_diff:.2e})"))
    return out


def compare_trees(parent: str, change: str) -> list:
    """(ok, message) for every difference between two snapshot trees."""
    fa, fb = _files(parent), _files(change)
    diffs = [(False, f"{rel}: only in {parent}") for rel in sorted(fa - fb)]
    diffs += [(False, f"{rel}: only in {change}") for rel in sorted(fb - fa)]
    for rel in sorted(fa & fb):
        with open(os.path.join(parent, rel), "rb") as fh:
            raw_a = fh.read()
        with open(os.path.join(change, rel), "rb") as fh:
            raw_b = fh.read()
        if raw_a == raw_b:
            continue
        try:
            la = raw_a.decode("utf-8").splitlines()
            lb = raw_b.decode("utf-8").splitlines()
        except UnicodeDecodeError:
            diffs.append((False, f"{rel}: binary contents differ"))
            continue
        if len(la) != len(lb):
            diffs.append((False, f"{rel}: {len(la)} lines -> {len(lb)} lines"))
            continue
        for lineno, (a, b) in enumerate(zip(la, lb), start=1):
            if a != b:
                diffs += _compare_lines(rel, lineno, a, b)
    return diffs


def compare(parent: str, change: str) -> int:
    diffs = compare_trees(parent, change)
    for ok, msg in diffs:
        print(("within " if ok else "FAIL   ") + msg)
    failed = sum(1 for ok, _ in diffs if not ok)
    print(f"{len(diffs)} differences, {failed} outside rel tol {REL_TOL:g}")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(os.path.abspath(argv[1]), os.path.abspath(argv[2]))
    if len(argv) != 1 or argv[0].startswith("--"):
        print(USAGE, file=sys.stderr)
        return 2
    return snapshot(os.path.abspath(argv[0]))


if __name__ == "__main__":
    sys.exit(main())
