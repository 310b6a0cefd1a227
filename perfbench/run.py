"""geocount benchmark: run one workload for a fixed time and report metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sphere-count --seed 1 --seconds 40 --trace 0

Each sample is one fresh process (``worker.py``) that imports geocount,
loads the first config and runs the workload's CLI commands back to back,
with no concurrency.  Samples repeat until the next one would overrun
``--seconds``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics (medians over samples); with ``--trace 1`` untraced and
traced samples alternate and it carries the per-layer metrics instead.
Every command's outputs are checked; a failed command counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import COUNTERS, LAYERS, span_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
# One BLAS thread: runs are single-process batch jobs, and one thread keeps
# the figures steady on a small shared machine.
BLAS_THREADS = min(1, os.cpu_count() or 1)
WORKER_TIMEOUT_S = 150.0
# An untraced run measures set-up at least this often: when too few samples
# fit the run, set-up-only processes make up the difference.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Times are reported in seconds at the reference speed: each is multiplied
# by REF_PASS_S over the mean pass of the speed probe (speed_probe.py) timed
# during the same commands, which cancels the shared host's speed of the
# moment.  The host switches between a fast and a slow state within a
# sample, and a sample's time is the mix of the two, so the mean pass fits
# it better than the median.  wall_s and cpu_s are scaled sample by sample;
# setup_s, which runs before the probe starts, by the run's mean pass.
REF_PASS_S = 0.016


def per_layer_units() -> dict:
    """Unit of every per-layer metric a traced run reports."""
    units = {}
    for module_name, path, extra in LAYERS:
        name = span_name(module_name, path)
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if "self_s" in extra:
            units[f"{name}.self_s"] = "s"
    for key in COUNTERS:
        units[key] = "B" if key == "cli.out_bytes" else "count"
    units["solver.refine.useful_ratio"] = "ratio"
    units["solver.refine.stalled_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_sample(workload: str, seed: int, traced: bool, index: int, timeout: float,
               setup_only: bool = False) -> dict:
    """Start one worker process and return its record (or a failure record)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    out_dir = os.path.join(OUT_ROOT, workload, "traced" if traced else "plain")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--out", out_dir,
           "--run-id", f"{workload}-{seed}-{index}"]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s",
                "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"worker exit {proc.returncode}: " + " | ".join(tail),
                "elapsed": elapsed}
    record = json.loads(lines[-1])
    record["elapsed"] = elapsed
    record["traced"] = traced
    return record


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Samples until the next would overrun the budget, then set-up probes."""
    start = time.perf_counter()
    samples = []
    while True:
        traced = trace and len(samples) % 2 == 1
        sample = run_sample(workload, seed, traced, len(samples), WORKER_TIMEOUT_S)
        samples.append(sample)
        if "error" in sample:
            break
        used = time.perf_counter() - start
        longest = max(s["elapsed"] for s in samples)
        enough = len(samples) >= (2 if trace else 1)
        if enough and used + longest > seconds:
            break
    n_probes = 0 if trace else max(0, SETUP_SAMPLES - len(samples))
    probes = [run_sample(workload, seed, False, i, WORKER_TIMEOUT_S, setup_only=True)
              for i in range(n_probes)]
    return probes, samples


def summarize(values: list) -> dict:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": qs[0], "q3": qs[2],
            "n": len(values)}


def end_to_end(plain: list, probes: list):
    """End-to-end metrics of a run's untraced samples and set-up probes,
    and the summaries of the measured values behind them.  A sample whose
    speed probe timed no pass cannot be scaled and is left out."""
    plain = [s for s in plain if s.get("probe_wall_s")]
    report = {}
    if not plain:
        return {}, report
    for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        values = [s[key] for s in plain]
        if key == "setup_s":
            values += [p["setup_s"] for p in probes if "error" not in p]
        report[key] = summarize(values)
    for key in ("probe_wall_s", "probe_cpu_s"):
        report[key] = summarize([t for s in plain for t in s[key]])
    scaled = {
        key: statistics.median(
            s[key] * REF_PASS_S / statistics.fmean(s[probe]) for s in plain)
        for key, probe in (("wall_s", "probe_wall_s"), ("cpu_s", "probe_cpu_s"))
    }
    all_passes = [t for s in plain for t in s["probe_wall_s"]]
    scaled["setup_s"] = (report["setup_s"]["median"] * REF_PASS_S
                         / statistics.fmean(all_passes))
    scaled["peak_rss_mb"] = report["peak_rss_mb"]["median"]
    return scaled, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must fit in an unsigned 64-bit integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "geocount", "cli.py")):
        print(f"perfbench: no geocount sources under {ROOT}/src", file=sys.stderr)
        return 2

    probes, samples = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = failed = 0
    for p in probes:
        if "error" in p:
            failed += 1
            attempted += 1
            print(f"FAILED set-up probe: {p['error']}")
    n_commands = len(WORKLOADS[args.workload])
    for s in samples:
        if "error" in s:
            attempted += n_commands
            failed += n_commands
            print(f"FAILED sample: {s['error']}")
            continue
        for c in s["commands"]:
            attempted += 1
            if c["problems"]:
                failed += 1
                print(f"FAILED {c['name']}: {'; '.join(c['problems'])}")
    good = [s for s in samples if "error" not in s]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]

    metrics = {}
    report = {}
    if args.trace:
        units = per_layer_units()
        if traced:
            layers = [s["layers"] for s in traced]
            for key in layers[0]:
                vals = [lay[key] for lay in layers]
                if units[key] in ("count", "B"):
                    if len(set(vals)) > 1:
                        print(f"NOTE {key} differs between traced samples: {vals}")
                    metrics[key] = vals[0]
                else:
                    metrics[key] = statistics.median(vals)
            metrics["trace.wall_s"] = statistics.median(s["wall_s"] for s in traced)
            if plain:
                metrics["trace.overhead_s"] = metrics["trace.wall_s"] - \
                    statistics.median(s["wall_s"] for s in plain)
        for key, value in metrics.items():
            print(f"{key:<42} {value:.6g} {units[key]}")
    else:
        units = END_TO_END_UNITS
        if plain:
            metrics, report = end_to_end(plain, probes)

    env = good[0]["env"] if good else {}
    env.update({"seed": args.seed, "git_commit": git_commit(),
                "workload": args.workload, "seconds": args.seconds,
                "trace": args.trace})
    fail_frac = failed / attempted if attempted else 1.0
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"samples {len(samples)} (plain {len(plain)}, traced {len(traced)}); "
          f"commands attempted {attempted}, failed {failed}, fail_frac {fail_frac:.3g}")
    if not args.trace:
        for key, value in metrics.items():
            print(f"{key:<12} {value:.6g} {units[key]}")
    # The measured values behind them, before scaling to the reference speed.
    for key, rec in report.items():
        print(f"measured {key:<12} {rec['median']:.6g} {units.get(key, 's')}  "
              f"(q1 {rec['q1']:.6g}, q3 {rec['q3']:.6g}, n {rec['n']})")

    os.makedirs(OUT_ROOT, exist_ok=True)
    record_path = os.path.join(
        OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "fail_frac": fail_frac, "summary": report,
                   "metrics": metrics, "setup_probes": probes,
                   "samples": samples}, fh, indent=1)

    result = {
        "correct": failed == 0 and bool(metrics) and len(metrics) == len(units),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units
                    if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
