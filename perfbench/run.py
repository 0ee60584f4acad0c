"""The repository benchmark: end-to-end and per-layer, repeated.

Usage::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \\
        --trace 0|1 [--out FILE]

Measuring happens in a fresh process (``rep.py``) that repeats short
sessions, or service-mix session loops, until ``--seconds`` have passed,
each repetition from fresh pools and caches.  Every repetition's outputs
are checked outside the timed region: exact path counts, the branchy-par
HL-signature multiset against a serial run, and CPython replay of every
PyLite ``TestCaseFound``.

``--trace 0`` measures with tracing off and reports every end-to-end
metric.  ``--trace 1`` spends half the time untraced and half traced,
and reports the per-layer metrics of the traced repetitions plus
``obs.trace_overhead_frac`` (traced over untraced ``explore_s``).  The
metric names and units come from ``BENCHMARK.json``; ``--workload all``
runs every workload and prefixes the metric names with the workload.

The reference host (2 shared vCPUs) drifts in speed by up to 1.5x for
seconds to minutes at a time.  Two things keep the figures steady: the
sessions are short, so a run holds dozens and reports their median, and
every end-to-end time is in reference seconds: the wall time scaled by
a host-speed probe taken around each repetition (``calibrate.py``).
The raw wall time of the exploration is printed next to them.

Each metric is printed with its unit, median, quartiles and sample
count; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metric medians.  With
``--out`` the full result (medians, quartiles, per-layer table, run
provenance) is also written to FILE.  Nothing else is written outside
the run's scratch directory ``.bench_scratch/``, which is removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: all measuring processes of one workload must end well inside the
#: 180 s run limit.
RUN_TIMEOUT_S = 170.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(values) -> dict:
    """Median, quartiles and sample count; the median is the reported value."""
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def tail(sessions) -> dict:
    """The highest percentile, in steps of 5 and at most p75, with ten
    sessions beyond it.

    The cap keeps the percentile fixed while the session count of a run
    varies around 40-50.  With fewer than 20 sessions no percentile at
    or above the median qualifies, and the maximum is reported instead.
    """
    n = len(sessions)
    if n < 20:
        return {"median": max(sessions), "n": n, "note": f"maximum of {n} (fewer than 20)"}
    pct = min(75, 5 * math.floor(20 * (1 - 10 / n)))
    return {"median": percentile(sessions, pct), "n": n, "note": f"p{pct} of {n}"}


def end_to_end(reps) -> dict:
    """End-to-end metric rows from the untraced repetitions.

    Times are in reference seconds (see ``calibrate.py``): each
    repetition's wall times times its speed factor.  The raw wall time of
    the exploration and the factors themselves are reported alongside.
    """
    sessions = [x * r["speed"] for r in reps for x in r["sessions_s"]]
    return {
        "setup_s": summary(x * r["speed"] for r in reps for x in r["setup_s"]),
        "explore_s": summary(r["explore_s"] * r["speed"] for r in reps),
        "paths_per_s": summary(r["ll_paths"] / (r["explore_s"] * r["speed"]) for r in reps),
        "first_test_s": summary(x * r["speed"] for r in reps for x in r["first_test_s"]),
        "session_p50_s": summary(sessions),
        "session_tail_s": tail(sessions),
        "sessions_per_s": summary(r["sessions_per_s"] / r["speed"] for r in reps),
        "peak_rss_mb": summary(r["peak_rss_mb"] for r in reps),
        "explore_wall_s": summary(r["explore_s"] for r in reps),
        "host_speed_factor": summary(r["speed"] for r in reps),
    }


def per_layer(traced, untraced) -> dict:
    """Per-layer metric rows from the traced repetitions."""
    rows = {name: summary(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    overhead = (statistics.median(r["explore_s"] * r["speed"] for r in traced)
                / statistics.median(r["explore_s"] * r["speed"] for r in untraced))
    rows["obs.trace_overhead_frac"] = summary([overhead])
    return rows


def measuring_process(workload: str, seed: int, seconds: float, trace: int,
                      scratch: str, timeout: float) -> dict:
    """Run ``rep.py`` in a fresh process and return its result document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    work = os.path.join(scratch, f"trace{trace}")
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--seconds", str(seconds),
           "--scratch", work, "--result", result_path]
    # Its own process group: on a timeout the daemon and pool workers it
    # started are stopped with it.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    try:
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        result = {"error": f"exit code {proc.returncode}"}
    if "error" in result:
        raise RuntimeError(f"{workload} measuring process failed:\n{result['error']}\n"
                           f"{output}")
    return result


def measure(workload: str, seed: int, seconds: float, trace: int, scratch: str) -> dict:
    """``--trace 0``: one untraced process.  ``--trace 1``: an untraced
    and a traced process, each for half the time."""
    if trace:
        plain = measuring_process(workload, seed, seconds / 2, 0, scratch, RUN_TIMEOUT_S / 2)
        traced = measuring_process(workload, seed, seconds / 2, 1, scratch, RUN_TIMEOUT_S / 2)
        processes = [plain, traced]
    else:
        plain = measuring_process(workload, seed, seconds, 0, scratch, RUN_TIMEOUT_S)
        processes = [plain]
    attempted = sum(p["attempted"] for p in processes)
    failed = sum(p["failed"] for p in processes)
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": [x for p in processes for x in p["problems"]][:50],
        "repetitions": {"untraced": len(plain["repetitions"]),
                        "traced": len(traced["repetitions"]) if trace else 0},
        "end_to_end": end_to_end(plain["repetitions"]),
        "per_layer": (per_layer(traced["repetitions"], plain["repetitions"])
                      if trace else {}),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_factor")):
        return "frac"
    return "count"


def print_table(title: str, rows: dict, units: dict) -> None:
    print(title)
    for name, row in rows.items():
        unit = units.get(name) or unit_of(name)
        spread = (f"q1={row['q1']:.6g} q3={row['q3']:.6g}" if "q1" in row
                  else row["note"])
        print(f"  {name:32s} {unit:6s} median={row['median']:.6g} {spread} n={row['n']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the full result JSON here")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        print(f"error: unknown workload {args.workload!r} (one of {names} or all)",
              file=sys.stderr)
        return 2
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = layer_units if args.trace else e2e_units

    base = os.path.join(ROOT, ".bench_scratch")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        results = []
        for workload in workloads:
            run_dir = os.path.join(scratch, workload)
            os.makedirs(run_dir)
            try:
                results.append(measure(workload, args.seed, args.seconds, args.trace, run_dir))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    metrics = {}
    for result in results:
        reps = result["repetitions"]
        print(f"== {result['workload']}  seed={args.seed}  repetitions: "
              f"{reps['untraced']} untraced, {reps['traced']} traced  "
              f"nproc={len(os.sched_getaffinity(0))}")
        print_table("end to end (tracing off; times in reference seconds)",
                    result["end_to_end"], e2e_units)
        print(f"  failed_frac = {result['failed']}/{result['attempted']} "
              f"= {result['failed_frac']:.4g}")
        for problem in result["problems"]:
            print(f"  FAILED CHECK: {problem}")
        if args.trace:
            print_table("per layer (traced run; self seconds, counts, ratios)",
                        result["per_layer"], layer_units)
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        rows = result["per_layer"] if args.trace else result["end_to_end"]
        for name, unit in reported.items():
            metrics[prefix + name] = {"value": rows[name]["median"], "unit": unit}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.out:
        from repro.bench.perfjson import run_metadata

        document = {"meta": run_metadata(), "nproc": len(os.sched_getaffinity(0)),
                    "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                    "results": results}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    sys.exit(main())
