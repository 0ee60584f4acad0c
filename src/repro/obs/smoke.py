"""Traced-workload smoke check: ``python -m repro.obs.smoke``.

Runs the branchy Clay workload through a traced Chef session (serial or
parallel), asserts that the key metrics every dashboard depends on are
present and non-zero, and writes the three exporter artifacts into
``--out``:

- ``trace.json``   — Chrome trace-event JSON (chrome://tracing, Perfetto)
- ``events.jsonl`` — raw span events, one JSON object per line
- ``summary.txt``  — plain-text metric/span tables

CI's ``metrics-smoke`` job runs this at two worker counts and uploads
the artifacts, so every PR leaves behind an openable trace of the
parallel coordinator/worker lanes.  Exit status is non-zero when a
required metric is missing or zero, making the check usable as a
plain shell step.
"""

from __future__ import annotations

import argparse
import os
import sys

#: metrics that must be present and non-zero after any traced run.
REQUIRED_NONZERO = (
    "engine.paths_completed",
    "engine.forks",
    "engine.instrs_executed",
    "solver.queries",
    "solver.sat",
    "solver.cex_reuses",
    "span.solver.check",
    "span.engine.run_path",
)


def run_smoke(num_bytes: int, workers: int, out_dir: str) -> int:
    from repro.api.session import SymbolicSession
    from repro.bench.workloads import branchy_source
    from repro.chef.options import ChefConfig
    from repro.clay import compile_program
    from repro.obs.export import summary_table, write_chrome_trace, write_events_jsonl

    compiled = compile_program(branchy_source(num_bytes))
    config = ChefConfig(time_budget=120.0, workers=workers, trace=True)
    session = SymbolicSession.from_program(compiled.program, config)
    result = session.run()
    metrics = session.metrics()

    os.makedirs(out_dir, exist_ok=True)
    write_chrome_trace(os.path.join(out_dir, "trace.json"), session.telemetry)
    write_events_jsonl(os.path.join(out_dir, "events.jsonl"), session.telemetry)
    summary = summary_table(session.telemetry)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as handle:
        handle.write(summary + "\n")
    print(summary)

    failures = []
    expected_paths = 1 << num_bytes
    if result.ll_paths != expected_paths:
        failures.append(f"ll_paths: expected {expected_paths}, got {result.ll_paths}")
    for name in REQUIRED_NONZERO:
        value = metrics.get(name)
        if isinstance(value, dict):
            value = value.get("count", 0)
        if not value:
            failures.append(f"metric {name!r} missing or zero (got {value!r})")
    if result.solver_stats.get("queries") != metrics.get("solver.queries"):
        failures.append(
            "RunResult/metrics disagree on solver queries: "
            f"{result.solver_stats.get('queries')} vs {metrics.get('solver.queries')}"
        )
    if workers > 1:
        lanes = {event["lane"] for event in session.telemetry.events}
        if "coordinator" not in lanes or not any(
            lane.startswith("worker-") for lane in lanes
        ):
            failures.append(f"expected coordinator+worker trace lanes, got {sorted(lanes)}")

    print(
        f"\nsmoke: {result.ll_paths} paths, workers={workers}, "
        f"{metrics.get('solver.queries')} solver queries, "
        f"{len(session.telemetry.events)} trace events -> {out_dir}"
    )
    if failures:
        for failure in failures:
            print(f"smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print("smoke OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.smoke", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument("--bytes", type=int, default=4, dest="num_bytes",
                        help="symbolic input bytes (2**bytes feasible paths)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (1 = serial loop)")
    parser.add_argument("--out", default="obs-smoke",
                        help="artifact directory (created if missing)")
    args = parser.parse_args(argv)
    return run_smoke(args.num_bytes, args.workers, args.out)


if __name__ == "__main__":
    sys.exit(main())
