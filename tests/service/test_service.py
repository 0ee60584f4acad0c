"""End-to-end service-daemon tests: multi-tenant sessions over one pool.

The acceptance contract, all counter-gated (no wall-clock assertions):

- two *concurrent* daemon sessions of the same target produce exactly
  the per-session path-event multiset of a standalone in-process
  ``Session.run()``, and the Program image ships once across all of
  them (``pool.program_ships == 1`` in ``stats``);
- a warm second run of the same target produces the cold run's path
  multiset without shipping the program again;
- budgets are clamped server-side and surface as ``BudgetExhausted``.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.session import SymbolicSession
from repro.bench.workloads import branchy_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.parallel.pool import shared_worker_pool
from repro.service import ChefService, ServiceConfig, ServiceError
from repro.service import protocol


def _in_process_multiset(source: str):
    """Wire-event multiset of a standalone in-process session."""
    program = compile_program(source).program
    session = SymbolicSession.from_program(
        program, ChefConfig(time_budget=120.0, max_ll_paths=10_000, workers=2)
    )
    wire_events = [protocol.event_to_wire(event) for event in session.events()]
    return protocol.path_event_multiset(wire_events), session.result


class TestControlOps:
    def test_ping(self, daemon_factory):
        _service, client = daemon_factory()
        reply = client.ping()
        assert reply["ok"] is True

    def test_stats_shape(self, daemon_factory):
        _service, client = daemon_factory()
        stats = client.stats()
        assert stats["ok"] is True
        assert "metrics" in stats
        assert stats["pool"]["workers"] == 2

    def test_unknown_op_is_an_error_line(self, daemon_factory):
        _service, client = daemon_factory()
        with pytest.raises(ServiceError, match="unknown op"):
            client._simple({"op": "frobnicate"})

    def test_run_without_target_is_rejected(self, daemon_factory):
        service, client = daemon_factory()
        with pytest.raises(ServiceError):
            client.run(clay=None, language=None, source=None)
        rejected = service.registry.counter("service.sessions.rejected").value
        assert rejected == 1


class TestConcurrentSessions:
    def test_two_concurrent_sessions_match_in_process_run(self, daemon_factory):
        source = branchy_source(4)
        expected, baseline = _in_process_multiset(source)
        assert baseline.ll_paths == 16
        service, client = daemon_factory()
        outcomes = {}

        def drive(tag):
            try:
                outcomes[tag] = client.run(clay=source)
            except BaseException as exc:
                outcomes[tag] = exc

        threads = [
            threading.Thread(target=drive, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        for tag in ("a", "b"):
            assert not isinstance(outcomes[tag], BaseException), outcomes[tag]
            events, result = outcomes[tag]
            assert result["ll_paths"] == 16
            assert protocol.path_event_multiset(events) == expected
        stats = client.stats()
        # One pool, one spawn set, ONE program ship across the baseline
        # in-process run and both daemon tenants (content-digest dedup).
        assert stats["pool"]["spawns"] == 2
        assert stats["pool"]["program_ships"] == 1
        metrics = stats["metrics"]
        assert metrics["service.sessions.started"] == 2
        assert metrics["service.sessions.finished"] == 2
        assert metrics["service.sessions.active"] == 0


class TestWarmRun:
    def test_warm_second_run_matches_cold_run(self, daemon_factory):
        source = branchy_source(4)
        _service, client = daemon_factory()
        first_events, first_result = client.run(clay=source)
        second_events, second_result = client.run(clay=source)
        assert first_result["ll_paths"] == second_result["ll_paths"] == 16
        assert protocol.path_event_multiset(
            second_events
        ) == protocol.path_event_multiset(first_events)
        stats = client.stats()
        assert stats["pool"]["program_ships"] == 1
        assert stats["metrics"]["service.sessions.finished"] == 2


class TestBudgets:
    def test_ll_path_budget_surfaces_as_budget_exhausted(self, daemon_factory):
        source = branchy_source(4)
        _service, client = daemon_factory()
        events, result = client.run(clay=source, config={"max_ll_paths": 4})
        names = [event["event"] for event in events]
        assert "BudgetExhausted" in names
        assert names[-1] == "RunFinished"
        assert result["ll_paths"] < 16

    def test_clamps_are_service_policy(self):
        service = ChefService(
            ServiceConfig(
                socket_path="unused.sock",
                workers=3,
                max_time_budget=7.0,
                max_ll_paths=50,
            )
        )
        config = service._clamp_config(
            {
                "time_budget": 10_000.0,
                "max_ll_paths": 0,
                "workers": 64,  # ignored: worker count is service policy
                "strategy": "cupa",
                "seed": 11,
            }
        )
        assert config.time_budget == 7.0
        assert config.max_ll_paths == 50
        assert config.workers == 3
        assert config.strategy == "cupa"
        assert config.seed == 11
        capped = service._clamp_config({"max_ll_paths": 9_999})
        assert capped.max_ll_paths == 50
        inside = service._clamp_config({"time_budget": 2.5, "max_ll_paths": 12})
        assert inside.time_budget == 2.5
        assert inside.max_ll_paths == 12


class TestSolverDeadlinePolicy:
    def test_deadline_clamps_to_service_cap(self):
        service = ChefService(
            ServiceConfig(socket_path="unused.sock", max_solver_deadline_s=0.5)
        )
        assert service._clamp_config({"solver_deadline_s": 10.0}).solver_deadline_s == 0.5
        assert service._clamp_config({"solver_deadline_s": 0.1}).solver_deadline_s == 0.1
        # The cap is a floor against wedged sessions: it applies even to
        # requests that asked for no deadline at all.
        assert service._clamp_config({}).solver_deadline_s == 0.5

    def test_no_cap_leaves_deadline_requests_alone(self):
        service = ChefService(ServiceConfig(socket_path="unused.sock"))
        assert service._clamp_config({}).solver_deadline_s is None
        assert service._clamp_config({"solver_deadline_s": 3.0}).solver_deadline_s == 3.0


class TestCheckpointedSessions:
    def test_run_then_resume_through_the_daemon(self, daemon_factory, tmp_path):
        source = branchy_source(4)
        ckpt_dir = str(tmp_path / "svc-ckpt")
        _service, client = daemon_factory()
        first_events, first_result = client.run(
            clay=source, config={"checkpoint_dir": ckpt_dir, "checkpoint_every": 1}
        )
        assert first_result["ll_paths"] == 16
        assert "CheckpointSaved" in [event["event"] for event in first_events]

        resumed_events, resumed_result = client.run(resume=ckpt_dir)
        assert resumed_result["ll_paths"] == 16
        assert protocol.path_event_multiset(
            resumed_events
        ) == protocol.path_event_multiset(first_events)
        metrics = client.stats()["metrics"]
        assert metrics.get("service.checkpoint.saves", 0) > 0
        assert metrics.get("service.checkpoint.resumes", 0) == 1
