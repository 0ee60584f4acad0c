"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage::

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed (``--trace 0``, ``run_seconds`` from
``BENCHMARK.json``) and prints, per end-to-end metric, the median of the
run values and the distance between their first and third quartiles as
a share of that median, next to the metric's bound.  A benchmark is
steady when every share, ``setup_s`` aside, is below a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect outputs ({result['failed']} failed)")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)
    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        share = (q3 - q1) / median
        ok = name == "setup_s" or share < bound / 3
        steady = steady and ok
        print(f"{name:16s} median={median:.5g} iqr/median={share:.4f} "
              f"bound={bound} {'ok' if ok else 'NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
