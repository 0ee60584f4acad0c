"""Unit tests for the deterministic fault-injection harness itself.

The chaos scenarios (worker kills, wedged solvers, torn checkpoints)
only prove anything if the harness is exactly reproducible and exactly
free when disabled — both are pinned here.
"""

from __future__ import annotations

import pytest

from repro.errors import SolverTimeout
from repro.faults import FaultInjector, FaultPlan, make_injector


class TestFaultPlan:
    def test_from_seed_is_deterministic(self):
        assert FaultPlan.from_seed(7) == FaultPlan.from_seed(7)
        assert FaultPlan.from_seed(7).kill_chunk is not None

    def test_from_seed_overrides_win(self):
        plan = FaultPlan.from_seed(7, kill_chunk=(1, 2), kill_attempts=5)
        assert plan.kill_chunk == (1, 2)
        assert plan.kill_attempts == 5
        assert plan.seed == 7

    def test_seeds_sweep_distinct_schedules(self):
        kills = {FaultPlan.from_seed(s).kill_chunk for s in range(16)}
        assert len(kills) > 1

    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop
        assert not FaultPlan(kill_chunk=(0, 0)).is_noop
        assert not FaultPlan(wedge_from_query=0).is_noop
        assert not FaultPlan(fail_query_every=3).is_noop
        assert not FaultPlan(truncate_tail_bytes=1).is_noop
        assert not FaultPlan(drop_connection_after_events=0).is_noop

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan.from_seed(3, fail_query_every=2)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestMakeInjector:
    def test_none_and_noop_plans_yield_no_injector(self):
        assert make_injector(None) is None
        assert make_injector(FaultPlan()) is None

    def test_real_plan_yields_injector(self):
        plan = FaultPlan(kill_chunk=(0, 1))
        injector = make_injector(plan)
        assert isinstance(injector, FaultInjector)


class TestKillHook:
    def test_kill_matches_original_coordinates_and_attempt(self):
        injector = make_injector(FaultPlan(kill_chunk=(1, 2)))
        assert injector.should_kill_task((1, 2, 0))
        assert not injector.should_kill_task((1, 2, 1)), "requeue must be spared"
        assert not injector.should_kill_task((1, 3, 0))
        assert not injector.should_kill_task((0, 2, 0))
        assert not injector.should_kill_task(None)

    def test_kill_attempts_keeps_killing_requeues(self):
        injector = make_injector(FaultPlan(kill_chunk=(0, 0), kill_attempts=3))
        assert injector.should_kill_task((0, 0, 0))
        assert injector.should_kill_task((0, 0, 2))
        assert not injector.should_kill_task((0, 0, 3))


class TestSolverHook:
    def test_fail_query_every_nth(self):
        injector = make_injector(FaultPlan(fail_query_every=3))
        injector.on_solver_query()  # 1
        injector.on_solver_query()  # 2
        with pytest.raises(SolverTimeout):
            injector.on_solver_query()  # 3
        injector.on_solver_query()  # 4
        injector.on_solver_query()  # 5
        with pytest.raises(SolverTimeout):
            injector.on_solver_query()  # 6

    def test_wedge_only_from_ordinal(self, monkeypatch):
        import repro.faults as faults_mod

        sleeps = []
        monkeypatch.setattr(faults_mod.time, "sleep", sleeps.append)
        injector = make_injector(
            FaultPlan(wedge_from_query=2, wedge_seconds=0.5)
        )
        injector.on_solver_query()  # ordinal 0: clean
        injector.on_solver_query()  # ordinal 1: clean
        assert sleeps == []
        injector.on_solver_query()  # ordinal 2: wedged
        injector.on_solver_query()  # ordinal 3: wedged
        assert sleeps == [0.5, 0.5]


class TestTruncateHook:
    def test_truncation_burns_out(self, tmp_path):
        injector = make_injector(
            FaultPlan(truncate_tail_bytes=3, truncate_writes=2)
        )
        path = tmp_path / "victim.bin"
        path.write_bytes(b"0123456789")
        assert injector.maybe_truncate(str(path))
        assert path.read_bytes() == b"0123456"
        assert injector.maybe_truncate(str(path))
        assert path.read_bytes() == b"0123"
        # Burned out: third write survives untouched.
        assert not injector.maybe_truncate(str(path))
        assert path.read_bytes() == b"0123"

    def test_truncation_never_goes_negative(self, tmp_path):
        injector = make_injector(FaultPlan(truncate_tail_bytes=100))
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"xy")
        assert injector.maybe_truncate(str(path))
        assert path.read_bytes() == b""

    def test_missing_file_is_not_torn(self, tmp_path):
        injector = make_injector(FaultPlan(truncate_tail_bytes=1))
        assert not injector.maybe_truncate(str(tmp_path / "absent"))


class TestConnectionHook:
    def test_drops_burn_out(self):
        injector = make_injector(
            FaultPlan(drop_connection_after_events=1, drop_connections=2)
        )
        assert not injector.should_drop_connection(0)
        assert injector.should_drop_connection(1)
        assert injector.should_drop_connection(5)
        assert not injector.should_drop_connection(5), "budget exhausted"
