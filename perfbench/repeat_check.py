"""Check that the traced counts repeat exactly across runs of one seed.

Usage, from the repository root:

    python3 perfbench/repeat_check.py --seeds 1,2 [--workload NAME ...]

For each workload and seed it starts two traced worker processes and
compares every per-layer metric whose unit is a count (``count`` or ``B``).
Exits 1 when any of them differs between the two runs.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import per_layer_units, run_sample  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    counted = [k for k, unit in per_layer_units().items()
               if unit in ("count", "B") and not k.startswith("trace.")]
    differing = set()
    for workload in args.workload or list(WORKLOADS):
        for seed in seeds:
            runs = [run_sample(workload, seed, True, i, timeout=170.0)
                    for i in range(2)]
            errors = [r["error"] for r in runs if "error" in r]
            if errors:
                print(f"{workload} seed {seed}: {errors}")
                return 1
            a, b = (r["layers"] for r in runs)
            bad = [k for k in counted if a[k] != b[k]]
            differing.update(bad)
            print(f"{workload} seed {seed}: {len(counted) - len(bad)}/{len(counted)} "
                  f"counts repeat" + (f"; differ: {bad}" if bad else ""), flush=True)
    print("all counts repeat exactly" if not differing
          else f"counts that differ: {sorted(differing)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
