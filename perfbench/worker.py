"""One workload run in a fresh process: set-up, the commands, output checks.

``run.py`` starts this file once per sample with the BLAS thread count
already pinned in the environment, so the pin holds before numpy loads.
It prints one JSON object on its last stdout line; the CLI's own summary
lines go to the output directories instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    args = ap.parse_args(argv)

    commands = WORKLOADS[args.workload]
    cfg_paths = []
    os.makedirs(args.out, exist_ok=True)
    for cmd in commands:
        path = os.path.join(args.out, f"{cmd.name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cmd.config.format(seed=args.seed))
        cfg_paths.append(path)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import geocount
    from geocount import cli
    cli.load_config(cfg_paths[0], commands[0].subcommand)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Traced samples run without the speed probe, so that its passes stay
    # out of the spans; their times are measured, not scaled.
    tracer = probe = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(run_id=args.run_id)
        tracer.install(geocount)
    else:
        from speed_probe import SpeedProbe
        probe = SpeedProbe()

    results = []
    wall = cpu = 0.0
    try:
        for cmd, cfg_path in zip(commands, cfg_paths):
            out_dir = os.path.join(args.out, cmd.name)
            shutil.rmtree(out_dir, ignore_errors=True)
            p0 = (probe.spent_wall, probe.spent_cpu) if probe else (0.0, 0.0)
            w0, c0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(io.StringIO()), \
                    (probe or contextlib.nullcontext()):
                code = cli.main([cmd.subcommand, "--config", cfg_path,
                                 "--out", out_dir])
            w1, c1 = time.perf_counter(), time.process_time()
            if probe:  # the probe's passes are not the command's time
                w1 -= probe.spent_wall - p0[0]
                c1 -= probe.spent_cpu - p0[1]
            wall += w1 - w0
            cpu += c1 - c0
            problems = [f"exit code {code}"] if code != 0 else []
            if not problems:
                try:
                    problems = cmd.check(out_dir)
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problems = [f"output unreadable: {exc!r}"]
            results.append({"name": cmd.name, "code": code, "wall_s": w1 - w0,
                            "problems": problems})
    finally:
        if tracer is not None:
            tracer.restore()

    if probe and (probe.error or not probe.passes):
        results[-1]["problems"].append(
            f"speed probe failed: {probe.error or 'no pass was timed'}")
    record = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": results,
        "env": environment(),
    }
    if probe:
        record["probe_wall_s"] = [w for w, _ in probe.passes]
        record["probe_cpu_s"] = [c for _, c in probe.passes]
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans(), fh, separators=(",", ":"))
    print(json.dumps(record))
    return 0


def environment() -> dict:
    """Machine and library record that goes with every result."""
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
