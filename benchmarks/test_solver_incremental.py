"""Incremental-solving microbenchmark (no guest interpreter needed).

Exhaustively explores a branchy LVM guest whose path conditions are the
query stream the incremental constraint-set architecture targets:
sibling states share long path-condition prefixes, and most branch atoms
touch a single input byte, so independence slicing and counterexample
reuse of recent models should absorb nearly all of the solver work.

Asserts the architecture's observable effect — nonzero incremental hits,
sliced atoms and counterexample reuses — and reports the counters so
the perf trajectory is visible per change.
"""

from repro.bench.perfjson import update_bench_json
from repro.bench.reporting import render_table
from repro.bench.workloads import branchy_source
from repro.clay import compile_program
from repro.lowlevel.executor import ExecutorConfig, LowLevelEngine
from repro.solver.csp import CspSolver

_BYTES = 6



def _explore(engine: LowLevelEngine, max_states: int = 512) -> int:
    done = 0
    state = engine.new_state()
    queue = engine.run_path(state)
    done += 1
    while queue and done < max_states:
        candidate = queue.pop()
        if engine.activate(candidate) != "sat":
            continue
        queue.extend(engine.run_path(candidate))
        done += 1
    return done


def test_solver_incremental_reuse(benchmark, report):
    compiled = compile_program(branchy_source(_BYTES))

    def run():
        solver = CspSolver()
        engine = LowLevelEngine(
            compiled.program, solver=solver, config=ExecutorConfig()
        )
        paths = _explore(engine)
        return paths, solver.stats.as_dict()

    paths, stats = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [[k, v] for k, v in stats.items()]
    report(
        f"Incremental solving on a {_BYTES}-byte branchy guest "
        f"({paths} paths explored)",
        render_table(["counter", "value"], rows),
    )
    update_bench_json(
        "solver_incremental",
        {
            "workload": {"kind": "branchy", "bytes": _BYTES, "paths": paths},
            "solver_stats": stats,
        },
    )

    assert paths == 1 << _BYTES, f"expected full exploration, got {paths}"
    # The architecture's acceptance bar: real reuse, not just plumbing.
    assert stats["incremental_hits"] > 0, stats
    assert stats["atoms_sliced"] > 0, stats
    assert stats["cex_reuses"] > 0, stats
    # Slicing must leave search effort sub-linear in the query volume:
    # every activation re-solving its full path condition would cost
    # ~|pc| steps per query; slicing and reuse keep it near one fresh
    # component per activation.
    assert stats["search_steps"] < stats["queries"] * _BYTES, stats
