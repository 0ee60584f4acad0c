"""Deterministic fault injection for chaos-testing the engine.

A :class:`FaultPlan` is a small frozen (picklable) description of the
faults one run should suffer: kill the worker that picks up a given
chunk, wedge or fail solver queries, tear the tail off checkpoint
writes, drop service connections mid-stream.  Plans travel inside the
worker-pool configure spec, so every process of a run injects from the
same schedule — the faults fire at deterministic points in the *work
stream* (task keys, query ordinals, write ordinals), never from timers,
which is what lets the chaos suite assert exact counter values and
path-multiset equality against uninjected runs.

Runtime state (how many queries seen, truncations left, connections
dropped) lives in a per-process :class:`FaultInjector` built from the
plan by :func:`make_injector`.  Every hook site in the engine is
guarded by ``if injector is not None`` — with no plan configured the
hooks cost one attribute check and nothing rides the wire.

``from_seed`` derives a plan pseudo-randomly from an integer seed so
chaos tests can sweep schedules while staying reproducible.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SolverTimeout

__all__ = ["FaultInjector", "FaultPlan", "make_injector"]


@dataclass(frozen=True)
class FaultPlan:
    """One run's deterministic fault schedule (picklable, immutable).

    All fields default to "no fault"; a default-constructed plan is
    indistinguishable from running without one.
    """

    #: seed the plan was derived from (provenance only; the schedule
    #: below is what actually fires).
    seed: int = 0

    # -- worker kills ---------------------------------------------------------
    #: SIGKILL the worker that picks up task ``(round_no, chunk_index)``
    #: — the *original* round/chunk key, stable across requeues.
    kill_chunk: Optional[Tuple[int, int]] = None
    #: kill while the task's requeue attempt is below this count, so a
    #: state can crash its worker repeatedly (quarantine testing).
    kill_attempts: int = 1

    # -- solver ---------------------------------------------------------------
    #: from this per-process query ordinal on (0-based), every query
    #: sleeps ``wedge_seconds`` before solving — a wedged backend.
    wedge_from_query: Optional[int] = None
    #: how long a wedged query stalls (pair with a per-query deadline
    #: shorter than this to exercise graceful degradation).
    wedge_seconds: float = 0.25
    #: raise an injected :class:`~repro.errors.SolverTimeout` on every
    #: Nth query (1-based modulus; None = never).
    fail_query_every: Optional[int] = None

    # -- torn writes ----------------------------------------------------------
    #: chop this many bytes off the end of a checkpoint file
    #: right after it is written (0 = no tearing).
    truncate_tail_bytes: int = 0
    #: how many writes to tear before the fault burns out.
    truncate_writes: int = 1

    # -- service --------------------------------------------------------------
    #: drop the client connection after streaming this many event lines.
    drop_connection_after_events: Optional[int] = None
    #: how many connections to drop before the fault burns out.
    drop_connections: int = 1

    @classmethod
    def from_seed(cls, seed: int, **overrides) -> "FaultPlan":
        """Pseudo-random plan derived from ``seed`` (reproducible).

        Picks a kill point in the first few rounds/chunks; explicit
        keyword overrides win over the derived values.
        """
        rng = random.Random(seed)
        derived = dict(
            seed=seed,
            kill_chunk=(rng.randrange(0, 2), rng.randrange(0, 4)),
        )
        derived.update(overrides)
        return cls(**derived)

    @property
    def is_noop(self) -> bool:
        return (
            self.kill_chunk is None
            and self.wedge_from_query is None
            and self.fail_query_every is None
            and self.truncate_tail_bytes == 0
            and self.drop_connection_after_events is None
        )


class FaultInjector:
    """Per-process mutable runtime of a :class:`FaultPlan`.

    One injector per process per configure; counters (queries seen,
    truncations left, connections dropped) reset when the worker is
    reconfigured, matching the fresh-engine-per-run contract.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._queries = 0
        self._truncations_left = plan.truncate_writes
        self._drops_left = plan.drop_connections

    # -- worker kills ---------------------------------------------------------

    def should_kill_task(self, fault_key: Optional[Tuple[int, int, int]]) -> bool:
        """True when the worker picking up ``fault_key`` must die.

        ``fault_key`` is ``(original_round, original_chunk, attempt)``;
        requeued work keeps its original round/chunk coordinates so the
        kill point is stable under recovery, and ``attempt`` lets the
        plan spare (or keep killing) the requeue.
        """
        plan = self.plan
        if plan.kill_chunk is None or fault_key is None:
            return False
        round_no, chunk_index, attempt = fault_key
        return (
            (round_no, chunk_index) == plan.kill_chunk
            and attempt < plan.kill_attempts
        )

    def kill_self(self) -> None:
        """SIGKILL the current process — an abrupt, unhandlable crash."""
        os.kill(os.getpid(), signal.SIGKILL)

    # -- solver ---------------------------------------------------------------

    def on_solver_query(self) -> None:
        """Hook at the head of every solver query; may stall or raise.

        A wedge stalls the query (the caller's per-query deadline is
        what turns the stall into a graceful ``unknown``); an injected
        failure raises :class:`~repro.errors.SolverTimeout`, which the
        backend already maps to ``unknown``.
        """
        plan = self.plan
        ordinal = self._queries
        self._queries += 1
        if (
            plan.fail_query_every is not None
            and plan.fail_query_every > 0
            and (ordinal + 1) % plan.fail_query_every == 0
        ):
            raise SolverTimeout(
                f"injected solver failure (query #{ordinal}, plan seed {plan.seed})"
            )
        if plan.wedge_from_query is not None and ordinal >= plan.wedge_from_query:
            time.sleep(plan.wedge_seconds)

    # -- torn writes ----------------------------------------------------------

    def maybe_truncate(self, path: str) -> bool:
        """Tear ``truncate_tail_bytes`` off the end of ``path``.

        Returns True when the file was torn; the fault burns out after
        ``truncate_writes`` applications.
        """
        plan = self.plan
        if plan.truncate_tail_bytes <= 0 or self._truncations_left <= 0:
            return False
        try:
            size = os.path.getsize(path)
        except OSError:
            return False
        self._truncations_left -= 1
        with open(path, "r+b") as handle:
            handle.truncate(max(0, size - plan.truncate_tail_bytes))
        return True

    # -- service --------------------------------------------------------------

    def should_drop_connection(self, events_sent: int) -> bool:
        """True when the daemon must drop the client after this event."""
        plan = self.plan
        if plan.drop_connection_after_events is None or self._drops_left <= 0:
            return False
        if events_sent >= plan.drop_connection_after_events:
            self._drops_left -= 1
            return True
        return False


def make_injector(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Injector for ``plan``; None for no plan or a no-op plan.

    Returning None is what makes every hook site zero-cost in the
    common case — the engine checks ``injector is not None`` and never
    touches the plan.
    """
    if plan is None or plan.is_noop:
        return None
    return FaultInjector(plan)
