"""Telemetry quickstart: trace a run, read the metrics, export a trace.

Explores a branchy Clay guest twice — serially and across two worker
processes — with tracing on, then:

- prints the metric snapshot both RunResult and Session.metrics() are
  views of (one registry, no parallel bookkeeping paths),
- prints the plain-text span summary (slowest solver queries included),
- writes Chrome trace files you can open in chrome://tracing or
  https://ui.perfetto.dev — the parallel one shows the coordinator's
  ship/merge spans lined up against the worker lanes, which is the
  picture that explains sub-1x "speedups" on small workloads.

Run:  python examples/telemetry_quickstart.py
"""

from repro import ChefConfig, MetricsUpdated, Session
from repro.bench.workloads import branchy_source
from repro.clay import compile_program
from repro.obs.export import summary_table


def explore(workers: int) -> Session:
    compiled = compile_program(branchy_source(5))  # 32 feasible paths
    session = Session.from_program(
        compiled.program,
        ChefConfig(time_budget=30.0, workers=workers, trace=True),
    )
    updates = 0
    for event in session.events():
        if isinstance(event, MetricsUpdated):
            updates += 1
    result = session.result
    print(
        f"workers={workers}: {result.ll_paths} paths, "
        f"{result.solver_stats['queries']} solver queries, "
        f"{updates} MetricsUpdated events"
    )
    return session


def main() -> None:
    serial = explore(workers=1)
    parallel = explore(workers=2)

    metrics = serial.metrics()
    print("\nkey metrics (serial run):")
    for name in ("engine.paths_completed", "solver.queries",
                 "solver.cex_reuses", "solver.incremental_hits"):
        if name in metrics:
            print(f"  {name} = {metrics[name]}")

    print("\n" + summary_table(parallel.telemetry))

    serial.write_chrome_trace("trace_serial.json")
    parallel.write_chrome_trace("trace_parallel.json")
    lanes = sorted({e["lane"] for e in parallel.telemetry.events})
    print(f"\nwrote trace_serial.json and trace_parallel.json (lanes: {lanes})")
    print("open them at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
