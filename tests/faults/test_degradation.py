"""Solver graceful degradation: wedged queries become ``unknown``.

A per-query deadline turns a wedged backend into counted ``unknown``
verdicts instead of a hung campaign; the executor's ``unknown_policy``
decides whether the affected state is pruned (sound default) or adopts
its seed assignment and keeps exploring (optimistic).
"""

from __future__ import annotations

import logging

from repro.api.events import RunFinished
from repro.api.session import SymbolicSession
from repro.bench.workloads import branchy_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.faults import FaultPlan

_DEPTH = 3
_PATHS = 2 ** _DEPTH


def _run(fault_plan, *, workers=1, depth=_DEPTH, **overrides):
    program = compile_program(branchy_source(depth)).program
    config = ChefConfig(
        time_budget=60.0, workers=workers, fault_plan=fault_plan, **overrides
    )
    session = SymbolicSession.from_program(program, config)
    events = list(session.events())
    return session, events


class TestDeadlineDegradation:
    def test_wedged_solver_degrades_to_unknown_serial(self):
        """Every query past #2 stalls longer than the deadline allows."""
        session, events = _run(
            FaultPlan(wedge_from_query=2, wedge_seconds=0.05),
            solver_deadline_s=0.01,
        )
        assert isinstance(events[-1], RunFinished), "wedged run must terminate"
        metrics = session.metrics()
        assert metrics.get("solver.deadline_unknowns", 0) > 0
        # Unknown activations are pruned under the default policy.
        assert session.result.engine_stats.get("states_timeout", 0) > 0
        assert session.result.ll_paths < _PATHS
        assert session.result.duration < 60.0

    def test_wedged_workers_degrade_in_parallel(self):
        """The deadline and the wedge both ship through pool configure."""
        session, events = _run(
            FaultPlan(wedge_from_query=2, wedge_seconds=0.05),
            workers=2,
            solver_deadline_s=0.01,
        )
        assert isinstance(events[-1], RunFinished)
        assert session.metrics().get("solver.deadline_unknowns", 0) > 0

    def test_no_deadline_means_no_deadline_unknowns(self):
        session, _events = _run(None)
        assert session.metrics().get("solver.deadline_unknowns", 0) == 0
        assert session.result.ll_paths == _PATHS


class TestDeadlineStormLogging:
    def test_a_storm_logs_one_query_and_one_summary(self, caplog):
        """Every unknown is counted; only the first and the total are logged."""
        caplog.set_level(logging.WARNING, logger="repro.solver")
        session, events = _run(
            FaultPlan(wedge_from_query=2, wedge_seconds=0.05),
            depth=5,
            solver_deadline_s=0.01,
        )
        assert isinstance(events[-1], RunFinished)
        metrics = session.metrics()
        unknowns = metrics.get("solver.deadline_unknowns", 0)
        assert unknowns >= 3
        assert session.result.engine_stats.get("states_timeout", 0) == unknowns
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.solver"]
        assert len(messages) == 2, messages
        first, summary = messages
        assert first.startswith("solver query over ")
        assert "solver deadline (0.01s) exceeded" in first
        given_up = unknowns + metrics.get("solver.timeouts", 0)
        assert summary == (f"{given_up} solver queries gave up in this run "
                           "(budget 12000 steps, deadline 0.01s)")

    def test_a_single_give_up_logs_no_summary(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.solver")
        session, _events = _run(FaultPlan(fail_query_every=1), depth=1)
        assert session.metrics().get("solver.timeouts", 0) == 1
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.solver"]
        assert len(messages) == 1 and messages[0].startswith("solver query over ")


class TestInjectedSolverFailures:
    def test_injected_timeouts_are_counted_and_survived(self):
        session, events = _run(FaultPlan(fail_query_every=3))
        assert isinstance(events[-1], RunFinished)
        assert session.metrics().get("solver.timeouts", 0) > 0
        assert session.result.ll_paths <= _PATHS


class TestUnknownPolicy:
    def test_prune_policy_drops_every_unknown_activation(self):
        """With every query failing, only the boot path survives."""
        session, _events = _run(FaultPlan(fail_query_every=1))
        assert session.result.ll_paths == 1
        assert session.result.engine_stats.get("states_unknown_adopted", 0) == 0

    def test_feasible_policy_adopts_seed_and_keeps_exploring(self):
        session, _events = _run(
            FaultPlan(fail_query_every=1), unknown_policy="feasible"
        )
        assert session.result.engine_stats.get("states_unknown_adopted", 0) > 0
        assert session.result.ll_paths > 1
