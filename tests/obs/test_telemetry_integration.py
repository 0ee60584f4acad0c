"""Engine-wide telemetry integration: one registry, every worker count.

The claims under test are the PR's acceptance criteria:

- tracing does not perturb exploration: the path-event multiset of a
  traced run equals the untraced one, at workers 1 and 2;
- per-worker metric aggregation equals the serial totals on an
  exhaustive run (solver queries, sat/unsat verdicts, engine paths);
- parallel traces carry distinct coordinator and worker lanes with the
  per-phase spans (snapshot codec, merge, solver);
- ``Session.metrics()`` agrees with the ``RunResult`` stat dicts — the
  dicts are prefix views of the same registry, not parallel bookkeeping.
"""

from __future__ import annotations

from collections import Counter as Multiset

import pytest

from repro.api.events import MetricsUpdated, PathCompleted, RunFinished
from repro.api.session import SymbolicSession
from repro.bench.workloads import branchy_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.obs.telemetry import Telemetry

_BYTES = 4  # 16 feasible paths: exhaustive in well under a second


def _path_multiset(events):
    return Multiset(
        (e.case.status, tuple(sorted((k, tuple(v)) for k, v in e.case.inputs.items())))
        for e in events
        if isinstance(e, PathCompleted)
    )


def _run_session(workers: int, trace: bool):
    compiled = compile_program(branchy_source(_BYTES))
    config = ChefConfig(time_budget=60.0, workers=workers, trace=trace)
    session = SymbolicSession.from_program(compiled.program, config)
    events = list(session.events())
    return session, events


class TestTracedDeterminism:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tracing_does_not_change_the_path_multiset(self, workers):
        _plain_session, plain_events = _run_session(workers, trace=False)
        _traced_session, traced_events = _run_session(workers, trace=True)
        # MetricsUpdated is progress telemetry (timing-dependent count);
        # determinism is judged on the path events only.
        assert _path_multiset(traced_events) == _path_multiset(plain_events)
        assert len(_path_multiset(traced_events)) == 1 << _BYTES

    def test_metrics_updated_events_are_emitted_and_final_one_precedes_finish(self):
        _session, events = _run_session(1, trace=False)
        kinds = [type(e) for e in events]
        assert MetricsUpdated in kinds
        assert kinds[-1] is RunFinished
        assert kinds[-2] is MetricsUpdated
        final = [e for e in events if isinstance(e, MetricsUpdated)][-1]
        assert final.metrics.get("solver.queries", 0) > 0


class TestParallelAggregation:
    def test_worker_aggregation_equals_serial_totals(self):
        serial_session, _ = _run_session(1, trace=False)
        parallel_session, _ = _run_session(2, trace=False)
        serial = serial_session.result
        parallel = parallel_session.result
        for key in ("queries", "sat", "unsat"):
            assert parallel.solver_stats[key] == serial.solver_stats[key], key
        assert (
            parallel.engine_stats["paths_completed"]
            == serial.engine_stats["paths_completed"]
        )
        # Same totals through the metrics surface: one registry per side.
        sm, pm = serial_session.metrics(), parallel_session.metrics()
        assert pm["solver.queries"] == sm["solver.queries"]
        assert pm["engine.paths_completed"] == sm["engine.paths_completed"]

    def test_parallel_trace_has_coordinator_and_worker_lanes_with_phase_spans(self):
        session, _ = _run_session(2, trace=True)
        events = session.telemetry.events
        lanes = {event["lane"] for event in events}
        assert "coordinator" in lanes
        worker_lanes = {lane for lane in lanes if lane.startswith("worker-")}
        assert worker_lanes, lanes
        spans_by_lane = {
            lane: {e["name"] for e in events if e["lane"] == lane} for lane in lanes
        }
        assert {"parallel.ship", "parallel.merge"} <= spans_by_lane["coordinator"]
        worker_spans = set().union(*(spans_by_lane[lane] for lane in worker_lanes))
        assert {
            "snapshot.decode",
            "snapshot.encode",
            "solver.check",
            "engine.run_path",
        } <= worker_spans


class TestSessionMetricsSurface:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_session_metrics_match_run_result_stats(self, workers):
        session, _ = _run_session(workers, trace=False)
        result = session.result
        metrics = session.metrics()
        assert metrics["solver.queries"] == result.solver_stats["queries"]
        assert metrics["solver.sat"] == result.solver_stats["sat"]
        assert metrics["solver.cex_reuses"] == result.solver_stats["cex_reuses"]
        assert metrics["engine.forks"] == result.engine_stats["forks"]

    def test_disabled_trace_still_counts_metrics(self):
        session, _ = _run_session(1, trace=False)
        assert session.telemetry.events == []
        assert session.metrics()["solver.queries"] > 0


class TestStandaloneTelemetryContexts:
    def test_contexts_are_isolated(self):
        a, b = Telemetry(), Telemetry()
        a.registry.counter("solver.queries").inc()
        assert b.registry.snapshot() == {}
