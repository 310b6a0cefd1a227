"""Write the outputs of a fixed set of geocount runs into one directory.

    python3 tools/output_snapshot.py OUT_DIR

Runs ``geocount.cli.main`` on every benchmark workload config in
``perfbench/workloads.py`` at seeds 1 and 7, and on the CLI test configs of
``tests/test_cli.py`` (census, jacobi and weights on ``ELLIPSOID_CFG``, count
on ``COUNT_CFG``, continue on ``FOLD_CFG``, ``PD_CFG`` and ``STALL_CFG``, the
one config whose continuation gives up, with exit 3).  Each run writes its
files to ``OUT_DIR/<run name>/`` plus an ``exit_code`` file.  The configs
are imported from those two files, never copied, and geocount is imported
from the ``src`` directory of the checkout that holds this script, so
copying the script into another checkout snapshots that checkout.  Two snapshots of the same
outputs compare equal under ``diff -r``.  BLAS runs on one thread unless the
environment says otherwise.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 7)
TEST_RUNS = (
    ("ELLIPSOID_CFG", "census"),
    ("ELLIPSOID_CFG", "jacobi"),
    ("ELLIPSOID_CFG", "weights"),
    ("COUNT_CFG", "count"),
    ("FOLD_CFG", "continue"),
    ("PD_CFG", "continue"),
    ("STALL_CFG", "continue"),
)


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/output_snapshot.py OUT_DIR", file=sys.stderr)
        return 2
    out_root = os.path.abspath(argv[0])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from geocount import cli

    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory() as cfg_dir:
        for name, subcommand, text in runs():
            cfg_path = os.path.join(cfg_dir, f"{name}.cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out_dir = os.path.join(out_root, name)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([subcommand, "--config", cfg_path, "--out", out_dir])
            with open(os.path.join(out_dir, "exit_code"), "w", encoding="utf-8") as fh:
                fh.write(f"{code}\n")
            print(f"{name}: exit {code} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
