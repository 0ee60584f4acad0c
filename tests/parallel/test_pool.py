"""Persistent worker-pool lifecycle and the O(suffix) classification gate.

Covers the PR's counter-gated acceptance criteria, which are core-count
independent (no wall-clock assertions anywhere):

- warm reuse: two ``Session.run()`` calls share one pool — workers are
  spawned once (``pool.spawns == workers``) and the Program image ships
  once per pool (``pool.program_ships == 1``), even though the second
  session compiled its own (content-identical) Program object;
- explicit ``close()`` is idempotent, and a dead worker surfaces a
  clear :class:`WorkerCrashError` instead of a hang (fail-fast with
  liveness polling);
- pending classification is O(since-restore suffix), not O(path-depth):
  ``coordinator.classify_steps`` must undercut the honest full-replay
  equivalent (``coordinator.classify_full_trace``) by ≥10× on the
  deep-traced workload.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.api.session import SymbolicSession
from repro.bench.workloads import branchy_source, deep_traced_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.parallel.coordinator import ParallelExplorer
from repro.parallel.pool import (
    WorkerCrashError,
    WorkerPool,
    close_shared_pools,
    shared_worker_pool,
)


@pytest.fixture(autouse=True)
def _fresh_shared_pools():
    """Isolate the process-wide pool registry per test."""
    close_shared_pools()
    yield
    close_shared_pools()


def _run_once(source: str, workers: int = 2) -> SymbolicSession:
    program = compile_program(source).program
    session = SymbolicSession.from_program(
        program, ChefConfig(time_budget=120.0, workers=workers)
    )
    session.run()
    return session


class TestWarmReuse:
    def test_two_session_runs_share_one_pool_and_one_program_ship(self):
        first = _run_once(branchy_source(4))
        pool = shared_worker_pool(2)
        assert pool.spawns == 2
        assert pool.program_ships == 1
        assert pool.configures == 1
        # A second session compiles its own Program object; the pool
        # dedupes by content hash and reuses the warm workers.
        second = _run_once(branchy_source(4))
        assert shared_worker_pool(2) is pool
        assert pool.spawns == 2, "warm reuse must not respawn workers"
        assert pool.program_ships == 1, "Program must ship once per pool, not per run"
        assert pool.configures == 2
        assert first.result.ll_paths == second.result.ll_paths == 16

    def test_distinct_programs_ship_separately_but_reuse_workers(self):
        _run_once(branchy_source(3))
        _run_once(branchy_source(4))
        pool = shared_worker_pool(2)
        assert pool.spawns == 2
        assert pool.program_ships == 2

    def test_program_ship_metric_lands_in_session_metrics(self):
        session = _run_once(branchy_source(4))
        metrics = session.metrics()
        assert metrics["parallel.program_ships"] == 1
        assert metrics["parallel.pool_spawns"] == 2


class TestLifecycle:
    def test_close_is_idempotent(self):
        program = compile_program(branchy_source(3)).program
        pool = WorkerPool(2)
        pool.configure(program, None, "t", 10_000)
        assert pool.spawns == 2
        pool.close()
        assert pool.closed
        pool.close()  # second close is a no-op, not an error
        assert pool.closed and not pool._procs

    def test_close_shared_pools_is_idempotent(self):
        _run_once(branchy_source(3))
        close_shared_pools()
        close_shared_pools()
        # The registry replaces closed pools transparently.
        assert not shared_worker_pool(2).closed

    def test_explorer_release_keeps_shared_pool_warm(self):
        program = compile_program(branchy_source(4)).program
        explorer = ParallelExplorer(program, workers=2)
        result = explorer.explore(max_states=512)
        assert len(result.records) == 16
        pool = shared_worker_pool(2)
        assert not pool.closed
        assert not pool._leased, "explore() must release its lease"
        # The next explorer leases the same warm pool.
        again = ParallelExplorer(program, workers=2).explore(max_states=512)
        assert again.path_set() == result.path_set()
        assert shared_worker_pool(2) is pool
        assert pool.spawns == 2


class TestCrashHandling:
    def test_dead_worker_fails_configure_fast(self):
        program = compile_program(branchy_source(3)).program
        pool = WorkerPool(2)
        pool.configure(program, None, "t", 10_000)
        victim = pool._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        start = time.monotonic()
        with pytest.raises(WorkerCrashError):
            pool.configure(program, None, "t", 10_000)
        assert time.monotonic() - start < 30.0, "fail-fast, not a hang"
        assert pool.broken
        pool.close()

    def test_all_workers_dead_fails_round_fast(self):
        program = compile_program(branchy_source(3)).program
        pool = WorkerPool(2)
        explorer = ParallelExplorer(program, workers=2, pool=pool)
        explorer.start()
        for proc in pool._procs:
            os.kill(proc.pid, signal.SIGKILL)
        for proc in pool._procs:
            proc.join(timeout=10.0)
        from repro.parallel.snapshot import boot_snapshot

        with pytest.raises(WorkerCrashError):
            explorer.submit([boot_snapshot(program)])
        assert pool.broken
        explorer.close()
        pool.close()

    def test_broken_shared_pool_is_replaced(self):
        _run_once(branchy_source(3))
        pool = shared_worker_pool(2)
        pool.broken = True
        replacement = shared_worker_pool(2)
        assert replacement is not pool
        # Exploration still works through the replacement.
        session = _run_once(branchy_source(3))
        assert session.result.ll_paths == 8


class TestSuffixClassification:
    def test_classify_steps_scale_with_suffix_not_path_depth(self):
        """Regression gate: classification is O(since-restore suffix).

        ``classify_full_trace`` accumulates each classified state's
        whole high-level instruction count — exactly what the pre-pool
        coordinator walked per pending.  On a workload with a long
        shared trace prefix (interpreter-startup shape), suffix
        grafting must undercut it by an order of magnitude.
        """
        session = _run_once(deep_traced_source(8), workers=2)
        metrics = session.metrics()
        steps = metrics["coordinator.classify_steps"]
        full = metrics["coordinator.classify_full_trace"]
        assert metrics["coordinator.classify_states"] > 0
        assert steps > 0
        assert full >= 10 * steps, (
            f"classification walked {steps} tree steps where full-trace "
            f"replay would walk {full}; expected >= 10x reduction"
        )

    def test_suffix_grafting_matches_serial_high_level_structures(self):
        serial = _run_once(deep_traced_source(6), workers=1).result
        parallel = _run_once(deep_traced_source(6), workers=2).result
        assert parallel.hl_paths == serial.hl_paths
        assert parallel.tree_nodes == serial.tree_nodes
        assert parallel.cfg_nodes == serial.cfg_nodes
        assert parallel.cfg_edges == serial.cfg_edges
        serial_sigs = {c.hl_path_signature for c in serial.suite.cases}
        parallel_sigs = {c.hl_path_signature for c in parallel.suite.cases}
        assert parallel_sigs == serial_sigs


class TestLeaseQueueing:
    def test_acquire_waits_fifo(self):
        import threading

        pool = WorkerPool(2)
        assert pool.try_acquire()
        order = []

        def waiter(tag):
            assert pool.acquire(timeout=30.0)
            order.append(tag)
            pool.release()

        first = threading.Thread(target=waiter, args=("a",))
        first.start()
        time.sleep(0.1)
        second = threading.Thread(target=waiter, args=("b",))
        second.start()
        time.sleep(0.1)
        pool.release()
        first.join(timeout=10.0)
        second.join(timeout=10.0)
        assert order == ["a", "b"], "lease hand-off must be first-come-first-served"
        pool.close()

    def test_try_acquire_defers_to_waiters(self):
        import threading

        pool = WorkerPool(2)
        assert pool.try_acquire()
        acquired = threading.Event()

        def waiter():
            assert pool.acquire(timeout=30.0)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        # Queue-jumping past a blocked waiter would starve it.
        assert not pool.try_acquire()
        pool.release()
        thread.join(timeout=10.0)
        assert acquired.is_set()
        pool.release()
        pool.close()

    def test_acquire_times_out(self):
        pool = WorkerPool(2)
        assert pool.try_acquire()
        assert pool.acquire(timeout=0.1) is False
        pool.release()
        pool.close()

    def test_close_releases_waiters(self):
        import threading

        pool = WorkerPool(2)
        assert pool.try_acquire()
        outcome = {}

        def waiter():
            outcome["acquired"] = pool.acquire(timeout=30.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        pool.close()
        thread.join(timeout=10.0)
        assert outcome["acquired"] is False


class TestConcurrentSessions:
    def test_two_concurrent_sessions_share_pool_and_ship_once(self):
        """The daemon's common case: interleaved sessions, one warm pool.

        The old ``shared_worker_pool`` fell back to a *transient* pool
        whenever the shared one was leased, so two interleaved sessions
        paid full spawn + program-ship cost each; FIFO lease queueing
        plus round-scoped explorer leases make them alternate rounds on
        the one pool instead.
        """
        import threading

        source = branchy_source(4)
        sessions = [
            SymbolicSession.from_program(
                compile_program(source).program,
                ChefConfig(time_budget=120.0, workers=2),
            )
            for _ in range(2)
        ]
        errors = []

        def drive(session):
            try:
                session.run()
            except BaseException as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(s,)) for s in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors
        pool = shared_worker_pool(2)
        assert pool.spawns == 2, "concurrent sessions must not spawn private pools"
        assert pool.program_ships == 1, "ship-once must hold across sessions"
        assert not pool._leased
        first, second = (session.result for session in sessions)
        assert first.ll_paths == second.ll_paths == 16
        first_ids = {
            (tuple(sorted((k, tuple(v)) for k, v in c.inputs.items())), c.status)
            for c in first.suite.cases
        }
        second_ids = {
            (tuple(sorted((k, tuple(v)) for k, v in c.inputs.items())), c.status)
            for c in second.suite.cases
        }
        assert first_ids == second_ids


class TestCloseEscalation:
    def test_close_leaves_no_live_children(self):
        program = compile_program(branchy_source(3)).program
        pool = WorkerPool(2)
        pool.configure(program, None, "t", 10_000)
        procs = list(pool._procs)
        pool.close()
        assert all(not proc.is_alive() for proc in procs)
        assert pool.kills == 0  # polite stop sufficed

    def test_close_escalates_to_kill_for_wedged_worker(self):
        """A SIGSTOPped worker ignores both the stop message and SIGTERM
        (it stays pending while the process is stopped); only SIGKILL
        reaps it.  The old best-effort close left it as a zombie child.
        """
        program = compile_program(branchy_source(3)).program
        pool = WorkerPool(2)
        pool.configure(program, None, "t", 10_000)
        procs = list(pool._procs)
        os.kill(procs[0].pid, signal.SIGSTOP)
        pool.close(join_timeout=0.5)
        assert pool.kills >= 1
        assert all(not proc.is_alive() for proc in procs), (
            "close() must leave no live children, even wedged ones"
        )


class TestEpochKeyedJournals:
    def test_crash_mid_run_retries_on_replacement_pool(self):
        """A worker crash mid-run replaces the pool and retries the round.

        The completed path set must be the full exhaustive one — the
        failed round merged nothing, the retry re-runs it verbatim, and
        (epoch, pid) keying keeps the new pool's metric slices apart
        from the dead pool's.
        """
        from repro.parallel.coordinator import path_set
        from repro.parallel.snapshot import boot_snapshot

        program = compile_program(branchy_source(4)).program
        explorer = ParallelExplorer(program, workers=2)
        explorer.start()
        first_pool = shared_worker_pool(2)
        first_epoch = first_pool.epoch
        first_procs = list(first_pool._procs)
        frontier = [boot_snapshot(program)]
        records = []
        killed = False
        while frontier:
            batch = [frontier.pop() for _ in range(min(len(frontier), 16))]
            for result in explorer.submit(batch):
                records.extend(result.records)
                frontier.extend(result.pending)
            if not killed:
                for proc in first_procs:
                    os.kill(proc.pid, signal.SIGKILL)
                for proc in first_procs:
                    proc.join(timeout=10.0)
                killed = True
        explorer.close()
        assert killed
        replacement = shared_worker_pool(2)
        assert replacement.epoch != first_epoch
        assert first_pool.closed or first_pool.broken
        assert len(records) == 16
        # All live metric slices belong to the replacement epoch.
        assert {epoch for (epoch, _pid) in explorer._latest_by_pid} <= {replacement.epoch}
        # Identical identities on an undisturbed run.
        baseline = ParallelExplorer(program, workers=2).explore(max_states=512)
        assert path_set(records) == baseline.path_set()


class TestSessionStreamLifecycle:
    def test_abandoned_stream_unwinds_and_pool_is_reacquirable(self):
        """Regression: walking away from ``Session.events()`` mid-stream
        must deterministically unwind the Chef loop — no lingering pool
        lease, and the shared pool immediately serves the next session.
        """
        from repro.errors import ReproError

        program = compile_program(branchy_source(4)).program
        session = SymbolicSession.from_program(
            program, ChefConfig(time_budget=120.0, workers=2)
        )
        stream = session.events()
        next(stream)  # exploration has started (first round merged)
        stream.close()  # consumer abandons mid-stream
        pool = shared_worker_pool(2)
        assert not pool.broken
        assert pool.try_acquire(), "abandoned stream leaked the pool lease"
        pool.release()
        with pytest.raises(ReproError):
            session.events()  # half-explored session is poisoned
        follow_up = SymbolicSession.from_program(
            compile_program(branchy_source(4)).program,
            ChefConfig(time_budget=120.0, workers=2),
        )
        assert follow_up.run().ll_paths == 16
        assert shared_worker_pool(2) is pool
        assert pool.spawns == 2, "abandonment must not cost a respawn"
