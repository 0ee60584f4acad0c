"""Persistent worker pools for parallel exploration.

A :class:`WorkerPool` owns ``workers`` long-lived processes that survive
across ``explore()`` / ``Session.run()`` calls, killing the two constant
costs PR 4 paid per run: pool spin-up (fork + interpreter warm-up per
``multiprocessing.Pool``) and :class:`~repro.lowlevel.program.Program`
shipping.  The pool spawns lazily on first :meth:`configure`; idle
workers block on their queues (keep-alive is free); :meth:`close` is
explicit and idempotent.

Wire protocol (all queues are ``multiprocessing`` fork-context queues):

- one private **control queue per worker** — ``("configure", spec)`` and
  ``("stop",)`` messages.  :meth:`configure` broadcasts a run spec and
  blocks for one ack per worker, so a round never starts on a stale
  engine.
- one **shared task queue** — this is the work-stealing deque.  A round
  enqueues more chunks than workers (see the coordinator's
  ``steal_factor``); whichever worker drains its current chunk first
  takes the next, so one deep path no longer serializes the round.
- one **shared result queue** — chunk results tagged with
  ``(run_id, chunk_index)``; the coordinator reassembles deterministic
  chunk order regardless of which worker ran what.

The Program image ships **once per pool** per distinct program: the pool
content-hashes the pickled image and broadcasts the bytes only for a
digest the pool has not seen (``program_ships`` counts broadcasts);
workers keep a digest-keyed image cache, so reconfiguring for the same
program — even a different object compiled from the same source — ships
only the small spec.  Every task and ack carries the configure's
``run_id``; workers drop tasks from a stale configuration, which makes
pool reuse safe after an abandoned round.

Crash handling is fail-fast: result collection polls worker liveness,
and a dead process (or a worker-reported exception) raises
:class:`WorkerCrashError` immediately and marks the pool broken —
no hang, no partial merge.  Broken pools are replaced on the next
:func:`acquire_pool`.

:func:`acquire_pool` / :func:`release_pool` manage a process-wide shared
registry keyed by worker count — consecutive explorations reuse the warm
pool.  Acquisition **waits in FIFO order** when the pool is leased:
concurrent explorers (daemon sessions, threads) queue for the one warm
pool instead of silently paying full spawn + program-ship cost on a
private transient pool, and since the coordinator leases per *round*,
FIFO hand-off is exactly round-robin fair scheduling across sessions.
All shared pools are closed at interpreter exit.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing
import pickle
import queue as _queue
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.lowlevel.program import Program

__all__ = [
    "WorkerCrashError",
    "WorkerPool",
    "acquire_pool",
    "close_shared_pools",
    "release_pool",
    "shared_worker_pool",
]

#: Liveness-poll interval while waiting on the result queue (seconds).
_POLL = 0.1

#: Distinct program images a pool remembers digests for (FIFO evicted).
_DIGEST_MEMO = 8

#: Pool identity generator: every WorkerPool instance gets a unique
#: epoch, so metric slices keyed by (epoch, pid) can never confuse a
#: replacement pool's recycled pids with the crashed pool's.
_EPOCH_COUNTER = itertools.count(1)

#: Run identity generator — process-wide, not per pool, so a session
#: that restores its run onto a *replacement* pool (after a crash)
#: keeps an id no other session can ever be assigned.
_RUN_ID_COUNTER = itertools.count(1)


class WorkerCrashError(RuntimeError):
    """A worker process died or raised; the pool is broken (fail-fast).

    ``partial`` maps task position → already-collected
    :class:`~repro.parallel.worker.WorkerResult` for the round that
    crashed — everything the pool received before noticing the death.
    Lost-chunk recovery folds these exactly once and requeues only the
    positions that are missing.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.partial: Dict[int, object] = {}


class WorkerPool:
    """``workers`` persistent processes + the queues to drive them."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: unique pool identity; (epoch, pid) keys metric slices so a
        #: replacement pool's recycled pids stay distinct.
        self.epoch = next(_EPOCH_COUNTER)
        #: worker processes ever spawned by this pool (lifecycle tests
        #: assert warm reuse keeps this at ``workers``).
        self.spawns = 0
        #: program-image broadcasts (once per distinct program, not per run).
        self.program_ships = 0
        #: completed :meth:`configure` calls (one per explorer run).
        self.configures = 0
        #: workers that had to be terminated/killed by :meth:`close`.
        self.kills = 0
        #: the run the workers are currently configured for (None before
        #: the first configure); interleaved sessions use this to decide
        #: whether a freshly acquired pool needs reconfiguring.
        self.active_run_id: Optional[int] = None
        self.closed = False
        self.broken = False
        self._procs: List = []
        self._ctrl_qs: List = []
        self._task_q = None
        self._result_q = None
        #: id(program) -> (program ref, digest): skips re-pickling when
        #: the same object is configured again (ref keeps the id stable).
        self._digest_memo: Dict[int, Tuple[Program, str]] = {}
        #: digests whose image bytes the workers already hold.
        self._shipped: set = set()
        self._lease_cond = threading.Condition()
        self._lease_owner: Optional[object] = None
        self._lease_waiters: "deque" = deque()

    # -- leasing (shared-registry bookkeeping) --------------------------------

    @property
    def _leased(self) -> bool:
        return self._lease_owner is not None

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Lease the pool, waiting in FIFO order if it is already leased.

        Waiters are served strictly first-come-first-served, which is
        the fairness primitive concurrent sessions are scheduled by:
        with per-round leases, N waiting sessions alternate rounds
        round-robin.  Returns False if the pool closes or breaks while
        waiting, or the timeout elapses.
        """
        token = object()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lease_cond:
            self._lease_waiters.append(token)
            try:
                while True:
                    if self.closed or self.broken:
                        return False
                    if self._lease_owner is None and self._lease_waiters[0] is token:
                        self._lease_owner = token
                        return True
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                    self._lease_cond.wait(remaining)
            finally:
                try:
                    self._lease_waiters.remove(token)
                except ValueError:
                    pass
                self._lease_cond.notify_all()

    def try_acquire(self) -> bool:
        """Lease the pool without waiting; False if leased or waited on."""
        with self._lease_cond:
            if (
                self._lease_owner is not None
                or self._lease_waiters
                or self.closed
                or self.broken
            ):
                return False
            self._lease_owner = object()
            return True

    def release(self) -> None:
        with self._lease_cond:
            self._lease_owner = None
            self._lease_cond.notify_all()

    # -- lifecycle ------------------------------------------------------------

    def _ensure_started(self) -> None:
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        if self.broken:
            raise WorkerCrashError("WorkerPool is broken (a worker died)")
        if self._procs:
            return
        from repro.parallel.worker import _pool_worker_main

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        for index in range(self.workers):
            ctrl_q = ctx.Queue()
            proc = ctx.Process(
                target=_pool_worker_main,
                args=(index, ctrl_q, self._task_q, self._result_q),
                daemon=True,
            )
            proc.start()
            self.spawns += 1
            self._ctrl_qs.append(ctrl_q)
            self._procs.append(proc)

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop the workers and reap every child; safe to call repeatedly.

        Shutdown escalates: a polite ``("stop",)`` plus ``join`` with a
        timeout, then ``terminate()`` (SIGTERM), then ``kill()``
        (SIGKILL, which reaps even a SIGSTOPped or wedged worker).  A
        broken control queue must not leave zombie children behind — the
        old best-effort close could, when a worker never drained its
        queue.  After close, no child of this pool is alive
        (``kills`` counts the ones that needed force).
        """
        if self.closed:
            return
        self.closed = True
        with self._lease_cond:
            self._lease_cond.notify_all()  # waiters see closed and bail
        # Polite phase; at interpreter exit multiprocessing's own atexit
        # cleanup may already have torn down queue feeder threads, so a
        # failed put just skips straight to the escalation below.
        for ctrl_q in self._ctrl_qs:
            try:
                ctrl_q.put(("stop",))
            except Exception:
                pass
        survivors = []
        for proc in self._procs:
            try:
                proc.join(timeout=join_timeout)
            except Exception:
                pass
            if proc.is_alive():
                survivors.append(proc)
        for proc in survivors:
            self.kills += 1
            try:
                proc.terminate()
                proc.join(timeout=join_timeout)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=join_timeout)
            except Exception:
                pass
        # Release queue feeder threads so interpreter exit never blocks
        # on a queue whose reader was just killed.
        for q in [self._task_q, self._result_q, *self._ctrl_qs]:
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        self._procs = []
        self._ctrl_qs = []
        self._task_q = None
        self._result_q = None
        self.active_run_id = None

    # -- program shipping ------------------------------------------------------

    def _program_digest(self, program: Program) -> Tuple[str, Optional[bytes]]:
        """Content hash of the pickled image; ``(digest, blob-to-ship)``.

        ``blob`` is None when the workers already hold this digest.
        Pickling is memoized per program *object*; the content hash
        additionally dedupes distinct objects with identical images
        (recompiling the same source yields byte-identical pickles).
        """
        memo = self._digest_memo.get(id(program))
        if memo is not None and memo[0] is program:
            digest = memo[1]
            if digest in self._shipped:
                return digest, None
            blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
            return digest, blob
        blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.blake2b(blob, digest_size=16).hexdigest()
        if len(self._digest_memo) >= _DIGEST_MEMO:
            self._digest_memo.pop(next(iter(self._digest_memo)))
        self._digest_memo[id(program)] = (program, digest)
        return digest, (None if digest in self._shipped else blob)

    # -- rounds ----------------------------------------------------------------

    def configure(
        self,
        program: Program,
        exec_config,
        namespace: str,
        solver_budget: int,
        trace_hlpc: bool = False,
        trace: bool = False,
        run_id: Optional[int] = None,
        solver_deadline_s: Optional[float] = None,
        fault_plan=None,
    ) -> int:
        """Broadcast a run spec to every worker and wait for the acks.

        Returns the ``run_id`` tagging this configuration; tasks and
        results of other run ids are mutually ignored.  Each worker
        rebuilds its engine (fresh solver, cache, telemetry lane, intern
        tables) so a reused pool behaves exactly like fresh processes.
        Passing an explicit ``run_id`` (one previously returned by this
        pool) *re*-configures the workers for that run — how interleaved
        sessions restore their configuration after another session used
        the pool, without invalidating their in-flight run identity.
        """
        self._ensure_started()
        digest, blob = self._program_digest(program)
        if blob is not None:
            self.program_ships += 1
        if run_id is None:
            run_id = next(_RUN_ID_COUNTER)
        spec = {
            "run_id": run_id,
            "program_digest": digest,
            "program_blob": blob,
            "exec_config": exec_config,
            "namespace": namespace,
            "solver_budget": solver_budget,
            "trace_hlpc": trace_hlpc,
            "trace": trace,
            "solver_deadline_s": solver_deadline_s,
            "fault_plan": fault_plan,
        }
        for ctrl_q in self._ctrl_qs:
            ctrl_q.put(("configure", spec))
        self._collect(run_id, "configured", self.workers)
        self._shipped.add(digest)
        self.configures += 1
        self.active_run_id = run_id
        return run_id

    def run_round(
        self,
        run_id: int,
        chunks: List,
        positions: Optional[List[int]] = None,
        fault_keys: Optional[List] = None,
    ) -> List:
        """Run one round of chunks across the pool; results in chunk order.

        Chunks go through the one shared task queue (work stealing).
        Raises :class:`WorkerCrashError` if any worker dies or reports
        an exception mid-round; the error carries the already-collected
        results as ``partial`` (position → result) so the coordinator
        can recover the lost positions only.

        ``positions`` relabels the chunks (defaults to 0..n-1) — lost-
        chunk recovery uses it to requeue survivors under their original
        coordinates; ``fault_keys`` rides one opaque key per chunk to
        the chaos-test injector in the workers.
        """
        if not self._procs:
            raise RuntimeError("WorkerPool is not started (configure first)")
        if positions is None:
            positions = list(range(len(chunks)))
        if fault_keys is None:
            fault_keys = [None] * len(chunks)
        for position, chunk, fault_key in zip(positions, chunks, fault_keys):
            self._task_q.put(("chunk", run_id, position, chunk, fault_key))
        messages = self._collect(run_id, "result", len(chunks))
        messages.sort(key=lambda msg: msg[2])  # (kind, run_id, position, result)
        return [msg[3] for msg in messages]

    def _collect(self, run_id: int, want: str, count: int) -> List:
        """Gather ``count`` tagged messages, polling worker liveness.

        Messages from other run ids (abandoned rounds on a reused pool)
        are discarded; a worker-reported error or a dead process raises
        :class:`WorkerCrashError` and marks the pool broken.  The raised
        error carries every already-collected ``result`` message as
        ``partial`` (position → result) so lost-chunk recovery can fold
        the survivors exactly once and requeue only what is missing.
        """
        messages: List = []

        def crash(description: str) -> WorkerCrashError:
            self.broken = True
            error = WorkerCrashError(description)
            if want == "result":
                # Salvage stragglers already sitting in the queue —
                # completed chunks a surviving worker delivered between
                # the death and our noticing it.
                while True:
                    try:
                        msg = self._result_q.get_nowait()
                    except _queue.Empty:
                        break
                    if msg[0] == want and msg[1] == run_id:
                        messages.append(msg)
                error.partial = {msg[2]: msg[3] for msg in messages}
            return error

        while len(messages) < count:
            try:
                msg = self._result_q.get(timeout=_POLL)
            except _queue.Empty:
                dead = [proc.pid for proc in self._procs if not proc.is_alive()]
                if dead:
                    raise crash(
                        f"worker process(es) {dead} died while the pool waited "
                        f"for {want!r} messages ({len(messages)}/{count} received)"
                    )
                continue
            kind = msg[0]
            if kind == "error" and msg[1] == run_id:
                raise crash(f"worker {msg[2]} raised during {want!r}:\n{msg[3]}")
            if kind != want or msg[1] != run_id:
                continue  # stale message from an earlier configuration
            messages.append(msg)
        return messages

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "broken" if self.broken else "live"
        return (
            f"WorkerPool(workers={self.workers}, {state}, spawns={self.spawns}, "
            f"program_ships={self.program_ships})"
        )


# -- process-wide shared registry ---------------------------------------------

_SHARED_POOLS: Dict[int, WorkerPool] = {}


def shared_worker_pool(workers: int) -> WorkerPool:
    """The process-wide pool for this worker count (created/replaced lazily).

    Closed or broken registry entries are replaced transparently, so a
    crashed run never wedges later explorations.
    """
    pool = _SHARED_POOLS.get(workers)
    if pool is None or pool.closed or pool.broken:
        pool = _SHARED_POOLS[workers] = WorkerPool(workers)
    return pool


def acquire_pool(workers: int, timeout: Optional[float] = None) -> Tuple[WorkerPool, bool]:
    """Lease the shared pool for this worker count; ``(pool, transient)``.

    When the pool is already leased — concurrent explorers in one
    process, the common case under a service daemon — acquisition
    **waits in FIFO order** instead of falling back to a private
    transient pool: the old fallback silently paid full spawn +
    program-ship cost per concurrent session and broke the
    ``program_ships`` ship-once invariant.  ``transient`` is always
    False now and remains in the signature only for
    :func:`release_pool` symmetry.  A pool that closes or breaks while
    being waited on is replaced transparently; ``timeout`` bounds the
    total wait (:class:`TimeoutError` on expiry).
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pool = shared_worker_pool(workers)
        remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
        if pool.acquire(timeout=remaining):
            return pool, False
        if not (pool.closed or pool.broken):
            raise TimeoutError(
                f"timed out after {timeout}s waiting for the shared "
                f"{workers}-worker pool lease"
            )
        # Closed/broken while we waited: loop — the registry hands out
        # a replacement.


def release_pool(pool: WorkerPool, transient: bool = False) -> None:
    """Return a lease; transient and broken pools are closed outright."""
    pool.release()
    if transient or pool.broken:
        pool.close()


def close_shared_pools() -> None:
    """Close every registry pool (also runs at interpreter exit)."""
    for pool in list(_SHARED_POOLS.values()):
        pool.close()
    _SHARED_POOLS.clear()


atexit.register(close_shared_pools)
