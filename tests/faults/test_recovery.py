"""Lost-chunk recovery: a SIGKILLed worker must not change the run.

The acceptance bar for the fault-tolerance layer: with a seeded
:class:`FaultPlan` killing a worker mid-run at ``workers=2``, the path
multiset is identical to an uninjected run, ``recovery.*`` counters
tell the story, metrics fold exactly once (no double-counted
``solver.*``), and no zombie children outlive the pool.  Repeat-offender
states are quarantined instead of wedging the run in a crash loop.
"""

from __future__ import annotations

import logging
import multiprocessing
from collections import Counter

from repro.api.events import PathCompleted, StateQuarantined, TestCaseFound
from repro.api.session import SymbolicSession
from repro.bench.workloads import branchy_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.faults import FaultPlan
from repro.parallel.pool import close_shared_pools

#: branchy_source(4) explores exactly 2**4 low-level paths.
_DEPTH = 4
_PATHS = 2 ** _DEPTH

#: Round 1 holds the boot path's 4 pending children as 4 singleton
#: chunks (workers * steal_factor = 8 > 4), so (round=1, chunk=1) is a
#: deterministic mid-run kill point at workers=2.
_KILL = (1, 1)


def _case_key(case):
    return (
        tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
        case.status,
        case.hl_path_signature,
        tuple(case.output),
    )


def _run_campaign(fault_plan=None, **config_overrides):
    """One workers=2 campaign; returns (session, events list)."""
    program = compile_program(branchy_source(_DEPTH)).program
    config = ChefConfig(
        time_budget=120.0,
        workers=2,
        fault_plan=fault_plan,
        **config_overrides,
    )
    session = SymbolicSession.from_program(program, config)
    events = list(session.events())
    return session, events


class TestKillRecovery:
    def test_worker_kill_preserves_path_multiset(self, caplog):
        baseline, base_events = _run_campaign()
        close_shared_pools()  # injected run gets its own pool lifecycle
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            injected, inj_events = _run_campaign(
                fault_plan=FaultPlan.from_seed(9, kill_chunk=_KILL)
            )

        def multiset(events):
            return Counter(
                _case_key(e.case) for e in events if isinstance(e, PathCompleted)
            )

        assert baseline.result.ll_paths == _PATHS
        assert injected.result.ll_paths == _PATHS
        assert multiset(inj_events) == multiset(base_events)

        metrics = injected.metrics()
        assert metrics.get("recovery.worker_crashes", 0) >= 1
        assert metrics.get("recovery.requeued_chunks", 0) > 0
        assert metrics.get("recovery.quarantined_states", 0) == 0
        assert baseline.metrics().get("recovery.worker_crashes", 0) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.parallel"]
        assert messages and all("requeued" in m for m in messages), messages

    def test_worker_kill_leaves_no_zombie_children(self):
        _session, _events = _run_campaign(
            fault_plan=FaultPlan(kill_chunk=_KILL)
        )
        # The replacement pool's workers are the only children left...
        children = multiprocessing.active_children()  # reaps exited ones
        assert all(child.is_alive() for child in children)
        assert len(children) == 2
        # ...and closing the registry leaves zero.
        close_shared_pools()
        assert multiprocessing.active_children() == []

    def test_crash_recovery_never_double_counts_solver_metrics(self):
        """Satellite: the dead worker's slice folds exactly once.

        ``solver.queries`` increments once per feasibility check before
        any cache lookup, so the injected run must land on *exactly*
        the uninjected count: the kill fires at task pickup (no queries
        for the fatal chunk), in-flight results of the dead worker are
        never folded, and requeued singletons run exactly once.
        """
        baseline, _ = _run_campaign()
        base_metrics = baseline.metrics()
        close_shared_pools()
        injected, _ = _run_campaign(fault_plan=FaultPlan(kill_chunk=_KILL))
        inj_metrics = injected.metrics()

        assert injected.result.ll_paths == baseline.result.ll_paths == _PATHS
        assert inj_metrics.get("recovery.worker_crashes", 0) >= 1
        for name in (
            "solver.queries",
            "solver.sat",
            "solver.unsat",
            "engine.paths_completed",
        ):
            assert inj_metrics.get(name) == base_metrics.get(name), name


class TestQuarantine:
    def test_repeat_offender_state_is_quarantined(self, caplog):
        """A state that keeps killing workers is dropped, not retried forever."""
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            session, events = _run_campaign(
                fault_plan=FaultPlan(kill_chunk=(1, 0), kill_attempts=99),
                quarantine_threshold=2,
            )
        quarantined = [e for e in events if isinstance(e, StateQuarantined)]
        assert len(quarantined) == 1
        assert quarantined[0].crashes == 2

        metrics = session.metrics()
        assert metrics.get("recovery.quarantined_states") == 1
        assert metrics.get("recovery.worker_crashes") == 2
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.parallel"]
        assert [m for m in messages if "quarantined" in m] == [
            "quarantined a state after 2 worker crashes"
        ]
        # The rest of the frontier still completes; only the offender's
        # subtree is lost.
        assert 0 < session.result.ll_paths < _PATHS
        assert session.result.ll_paths == len(
            [e for e in events if isinstance(e, PathCompleted)]
        )

    def test_spared_requeue_avoids_quarantine(self):
        """Default kill_attempts=1 spares the requeue: nothing quarantined."""
        session, events = _run_campaign(fault_plan=FaultPlan(kill_chunk=(1, 0)))
        assert not [e for e in events if isinstance(e, StateQuarantined)]
        assert session.result.ll_paths == _PATHS
        assert session.metrics().get("recovery.quarantined_states", 0) == 0

    def test_quarantine_keeps_test_suite_consistent(self):
        session, events = _run_campaign(
            fault_plan=FaultPlan(kill_chunk=(1, 0), kill_attempts=99),
            quarantine_threshold=2,
        )
        found = [e.case for e in events if isinstance(e, TestCaseFound)]
        assert len(found) == session.result.hl_paths
        assert all(case.new_hl_path for case in found)
