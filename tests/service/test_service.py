"""End-to-end service-daemon tests: concurrent sessions inside the daemon.

The acceptance contract, all counter- or multiset-gated (no wall-clock
assertions):

- two *concurrent* daemon sessions of the same target produce exactly
  the per-session path-event multiset of a standalone in-process
  ``Session.run()``, and the daemon spawns no worker process for them;
- a warm second run of the same target produces the cold run's path
  multiset;
- a checkpoint written at ``workers=2`` resumes serially in the daemon;
- the daemon clears the process-global symbolic tables when it goes
  idle;
- budgets are clamped server-side and surface as ``BudgetExhausted``.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.api.events import CheckpointSaved
from repro.api.session import SymbolicSession
from repro.bench.workloads import branchy_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.lowlevel import expr
from repro.parallel import pool as pool_module
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


def _run_concurrently(client, source, tags=("a", "b")):
    """Run one session per tag at once; ``{tag: (events, result)}``."""
    outcomes = {}

    def drive(tag):
        try:
            outcomes[tag] = client.run(clay=source)
        except BaseException as exc:
            outcomes[tag] = exc

    threads = [threading.Thread(target=drive, args=(tag,)) for tag in tags]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    for tag in tags:
        assert not isinstance(outcomes[tag], BaseException), outcomes[tag]
    return outcomes


class TestConcurrentSessions:
    def test_two_concurrent_sessions_match_in_process_run(self, daemon_factory):
        source = branchy_source(4)
        expected, baseline = _in_process_multiset(source)
        assert baseline.ll_paths == 16
        service, client = daemon_factory()
        outcomes = _run_concurrently(client, source)
        for events, result in outcomes.values():
            assert result["ll_paths"] == 16
            assert protocol.path_event_multiset(events) == expected
        stats = client.stats()
        metrics = stats["metrics"]
        assert metrics["service.sessions.started"] == 2
        assert metrics["service.sessions.finished"] == 2
        assert metrics["service.sessions.active"] == 0

    def test_daemon_sessions_spawn_no_worker_processes(self, daemon_factory):
        _service, client = daemon_factory()
        outcomes = _run_concurrently(client, branchy_source(4))
        for _events, result in outcomes.values():
            assert result["ll_paths"] == 16
        assert multiprocessing.active_children() == []
        assert pool_module._SHARED_POOLS == {}


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
        assert stats["metrics"]["service.sessions.finished"] == 2

    def test_idle_daemon_clears_process_global_tables(self, daemon_factory):
        """Sessions run in the daemon, so its intern table and ``Sym``
        registry would grow with every session; going idle clears both."""
        source = branchy_source(4)
        _service, client = daemon_factory()
        multisets = []
        for _ in range(3):
            events, result = client.run(clay=source)
            assert result["ll_paths"] == 16
            assert expr._intern == {}
            assert expr.Sym._registry == {}
            multisets.append(protocol.path_event_multiset(events))
        assert multisets[0] == multisets[1] == multisets[2]


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
                max_time_budget=7.0,
                max_ll_paths=50,
            )
        )
        config = service._clamp_config(
            {
                "time_budget": 10_000.0,
                "max_ll_paths": 0,
                "workers": 64,  # ignored: sessions always run serially
                "strategy": "cupa",
                "seed": 11,
            }
        )
        assert config.time_budget == 7.0
        assert config.max_ll_paths == 50
        assert config.workers == 1
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

    def test_parallel_checkpoint_resumes_serially_in_the_daemon(
        self, daemon_factory, tmp_path
    ):
        """A campaign checkpointed in-process at workers=2 and abandoned
        finishes in the daemon, serially, with the uninterrupted run's
        path-event multiset."""
        source = branchy_source(4)
        expected, _baseline = _in_process_multiset(source)
        ckpt_dir = str(tmp_path / "par-ckpt")
        session = SymbolicSession.from_program(
            compile_program(source).program,
            ChefConfig(
                time_budget=120.0, workers=2,
                checkpoint_dir=ckpt_dir, checkpoint_every=1,
            ),
        )
        stream = session.events()
        for event in stream:
            if isinstance(event, CheckpointSaved):
                break
        stream.close()  # abandon the campaign mid-run
        pool_module.close_shared_pools()

        _service, client = daemon_factory()
        events, result = client.run(resume=ckpt_dir)
        assert result["ll_paths"] == 16
        assert protocol.path_event_multiset(events) == expected
        assert multiprocessing.active_children() == []
        assert pool_module._SHARED_POOLS == {}
