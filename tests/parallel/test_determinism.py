"""Determinism: sharded exploration covers the identical path set.

Exhaustive exploration of a branchy guest must produce the same set of
(inputs, status, output) paths at every worker count — parallelism may
reorder discovery but never change what is discovered.
"""

from __future__ import annotations

import pytest

from repro.chef.engine import Chef
from repro.bench.workloads import branchy_source, traced_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.lowlevel.executor import ExecutorConfig, LowLevelEngine
from repro.parallel import ParallelExplorer, path_set
from repro.solver.csp import CspSolver

_BYTES = 5  # 32 feasible paths: big enough to shard, fast enough for CI




def _serial_result(program):
    engine = LowLevelEngine(
        program, solver=CspSolver(), config=ExecutorConfig()
    )
    return engine.explore(max_states=512)


class TestLowLevelDeterminism:
    def test_workers_1_matches_manual_loop(self):
        """workers=1 is the classic in-process loop: same paths, same
        engine counters as driving run_path/activate by hand."""
        compiled = compile_program(branchy_source(_BYTES))
        result = _serial_result(compiled.program)

        manual_engine = LowLevelEngine(
            compiled.program, solver=CspSolver(), config=ExecutorConfig()
        )
        state = manual_engine.new_state()
        queue = manual_engine.run_path(state)
        while queue:
            candidate = queue.pop()
            if manual_engine.activate(candidate) != "sat":
                continue
            queue.extend(manual_engine.run_path(candidate))
        assert result.engine_stats["paths_completed"] == manual_engine.stats.paths_completed
        assert result.engine_stats["forks"] == manual_engine.stats.forks
        assert len(result.records) == 1 << _BYTES

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_explores_identical_path_set(self, workers):
        compiled = compile_program(branchy_source(_BYTES))
        serial = _serial_result(compiled.program)
        explorer = ParallelExplorer(
            compiled.program, workers=workers, config=ExecutorConfig(), batch_size=4
        )
        parallel = explorer.explore(max_states=512)
        assert len(parallel.records) == 1 << _BYTES
        assert parallel.path_set() == serial.path_set()
        # Identical solver workload, just sharded: same query count.
        assert parallel.solver_stats["queries"] == serial.solver_stats["queries"]


class TestChefDeterminism:
    def _run(self, program, workers):
        config = ChefConfig(
            strategy="cupa-path", seed=0, time_budget=60.0, workers=workers
        )
        return Chef(program, config).run()

    @staticmethod
    def _case_set(suite):
        return frozenset(
            (
                tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
                case.status,
                tuple(case.output),
            )
            for case in suite
        )

    def test_chef_parallel_matches_serial(self):
        compiled = compile_program(traced_source(4))
        serial = self._run(compiled.program, workers=1)
        parallel = self._run(compiled.program, workers=2)
        assert serial.ll_paths == parallel.ll_paths == 16
        assert serial.hl_paths == parallel.hl_paths
        assert self._case_set(serial.suite) == self._case_set(parallel.suite)
        # The replayed traces rebuild the same high-level structures.
        assert serial.cfg_nodes == parallel.cfg_nodes
        assert serial.cfg_edges == parallel.cfg_edges
        assert serial.tree_nodes == parallel.tree_nodes

    def test_chef_parallel_coverage_strategy(self):
        compiled = compile_program(traced_source(3))
        config = ChefConfig(
            strategy="cupa-cov", seed=1, time_budget=60.0, workers=2
        )
        result = Chef(compiled.program, config).run()
        assert result.ll_paths == 8
        assert result.hl_paths == 8
