"""Coordinator half of parallel exploration.

:class:`ParallelExplorer` drives a persistent :class:`WorkerPool`
(acquired from the process-wide shared registry, or passed in by a
bench harness).  Each round it pops a batch from the frontier, splits
it into **more chunks than workers** (``steal_factor``) feeding one
shared task queue — workers steal the next chunk as they drain their
current one, so a single deep path no longer serializes the round — and
merges the results **in chunk order**: the merged record stream and the
frontier contents are a deterministic function of the frontier
sequence, independent of which worker ran which chunk.  Each worker's
solver keeps its own recent models; nothing is shipped between them.

The pool outlives the explorer, and since the service daemon landed the
lease is **round-scoped**: ``start()`` acquires the pool just long
enough to configure it (a small spec broadcast; the Program image ships
only the first time the pool sees its content hash), and every round
re-acquires it FIFO — so concurrent explorers in one process interleave
rounds round-robin over one warm pool instead of spawning private
pools.  If another session configured the pool in between, the next
round detects it (``pool.active_run_id``) and re-broadcasts its own
spec under its original run id: worker engines were rebuilt, so the
explorer folds its cumulative per-worker metric slices into a base
accumulator and continues.

Crash handling is **lost-chunk recovery**, not round abort: a dead
worker raises :class:`~repro.parallel.pool.WorkerCrashError` carrying
the chunk results the pool had already collected; those are folded
exactly once (keyed by the dead pool's epoch, *before* the replacement
pool reconfigures, so ``merged_metrics`` never double-counts a slice),
and only the chunks still outstanding are requeued on the replacement
pool — as singleton per-state work items, so a state that keeps
killing workers can only take down the chunk it is alone in.  States
that crash ``quarantine_threshold`` workers are quarantined (surfaced
through ``on_quarantine`` and the ``recovery.quarantined_states``
counter) instead of killing the run; ``recovery.worker_crashes`` and
``recovery.requeued_chunks`` count the rest of the story.  Results are
reassembled per *original* chunk in original chunk order before
``on_merge`` fires, so the merged record stream — and therefore the
session's path-event multiset — is identical to an uninjected run.
Caller-owned pools still fail through to the caller.

Metric slices are keyed by **(pool epoch, pid)**, never bare pid: pids
are recycled by the OS, and a replacement pool after a
:class:`WorkerCrashError` can reuse a dead worker's pid — a bare-pid
key would then overwrite the dead worker's slice with the new one.

Observability: the explorer takes the engine's
:class:`~repro.obs.telemetry.Telemetry` context and records its
ship/merge spans on a ``coordinator`` lane of the same event log; each
:class:`WorkerResult` carries the worker's cumulative metrics-registry
snapshot and its trace-event slice, so the Chrome-trace export shows
one swimlane per worker process next to the coordinator's.  Metric
aggregation keeps only the *latest* snapshot per worker pid (snapshots
are cumulative, and the shared FIFO task queue means one pid's chunk
results arrive in chronological order) and merges them on demand; the
legacy ``engine_stats`` / ``solver_stats`` dicts are
prefix-split views of the one merged snapshot.

For exhaustive runs the set of explored paths is identical to a serial
run: feasibility verdicts do not depend on which models a solver has
seen, only the order of discovery does.  One caveat on *witness
inputs*: when a branch atom admits several models and the parent's
inherited model does not already satisfy it, the concrete model a state
ends up with can come from counterexample reuse of a recent model — and
a worker's recent models depend on which chunks it happened to steal.
The path *structure* (`path_key`, status) is always
scheduling-independent; input-level identity additionally holds when
suffix atoms are either satisfied by inherited models or uniquely
determined (as in the CI workloads, which assert full
`PathRecord.identity()` equality).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lowlevel.executor import ExecutorConfig
from repro.lowlevel.program import Program
from repro.obs.metrics import merge_snapshots, split_prefixed
from repro.obs.telemetry import Telemetry
from repro.parallel.pool import (
    WorkerCrashError,
    WorkerPool,
    acquire_pool,
    release_pool,
)
from repro.parallel.snapshot import StateSnapshot, boot_snapshot
from repro.parallel.worker import WorkerResult
from repro.solver.constraints import ConstraintSet
from repro.solver.csp import DEFAULT_BUDGET

_log = logging.getLogger("repro.parallel")

#: legacy stat-dict name → metric-name prefix in the merged snapshot.
_STAT_PREFIXES = {
    "engine_stats": "engine",
    "solver_stats": "solver",
}


@dataclass(frozen=True)
class _WorkerSlice:
    """The slice of a :class:`WorkerResult` kept for stat aggregation.

    Retaining the whole result would pin the last round's path records
    and pending snapshots for as long as the explorer lives.
    ``metrics`` is the worker's *cumulative* registry snapshot.
    """

    metrics: Dict
    states_created: int


def warn_if_custom_backend(solver) -> None:
    """Warn when a non-default solver backend meets ``workers > 1``.

    Workers rebuild a fresh :class:`~repro.solver.csp.CspSolver` each;
    only the budget of a custom backend survives the trip.
    """
    from repro.solver.csp import CspSolver

    if type(solver) is not CspSolver:
        import warnings

        warnings.warn(
            "parallel exploration rebuilds a CspSolver in each worker "
            f"process; the custom {type(solver).__name__} backend "
            "is not shipped (only its budget is)",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class PathRecord:
    """One terminated exploration path, condensed for the coordinator.

    ``identity()`` is the cross-run comparison key: the concrete inputs,
    the terminal status and the observable output.  ``path_key`` is the
    stable structural fingerprint sequence of the path condition —
    process-independent within one run (workers share a namespace).

    The high-level trace travels as a **suffix**: ``hl_suffix`` covers
    only the transitions executed since the state was last restored
    from a snapshot, anchored at coordinator tree node ``start_node``
    (with ``start_hlpc``/``start_opcode`` the location just before the
    suffix, for the first CFG edge).  ``hl_sig`` is the whole-path
    signature, maintained incrementally worker-side — identical to the
    serial engine's.
    """

    status: str
    halt_code: Optional[int]
    fault_message: Optional[str]
    inputs: Tuple[Tuple[str, Tuple[int, ...]], ...]
    output: Tuple
    events: Tuple[Tuple[int, int, int], ...]
    instr_count: int
    hl_instr_count: int
    depth: int
    path_key: Tuple[int, ...]
    start_node: int = 0
    start_hlpc: Optional[int] = None
    start_opcode: Optional[int] = None
    hl_suffix: Tuple[Tuple[int, int], ...] = ()
    hl_sig: int = 0
    path_constraints: Optional[ConstraintSet] = None

    def identity(self) -> Tuple:
        return (self.inputs, self.status, self.output)


def path_set(records) -> FrozenSet[Tuple]:
    """Comparison set over a record collection (order-insensitive)."""
    return frozenset(r.identity() for r in records)


@dataclass
class ExploreResult:
    """Outcome of one (serial or parallel) frontier exploration."""

    records: List[PathRecord] = field(default_factory=list)
    engine_stats: Dict[str, int] = field(default_factory=dict)
    solver_stats: Dict[str, int] = field(default_factory=dict)
    #: merged dotted-name metrics snapshot across all workers (the
    #: ``*_stats`` dicts above are prefix-split views of this).
    metrics: Dict = field(default_factory=dict)
    workers: int = 1
    batches: int = 0
    states_run: int = 0
    pending_left: int = 0
    wall_time: float = 0.0

    def path_set(self) -> FrozenSet[Tuple]:
        return path_set(self.records)


class ParallelExplorer:
    """Shards frontier exploration across a persistent worker pool."""

    def __init__(
        self,
        program: Program,
        workers: int = 2,
        config: Optional[ExecutorConfig] = None,
        solver_budget: int = DEFAULT_BUDGET,
        namespace: Optional[str] = None,
        batch_size: int = 8,
        trace_hlpc: bool = False,
        telemetry: Optional[Telemetry] = None,
        pool: Optional[WorkerPool] = None,
        steal_factor: int = 4,
        solver_deadline_s: Optional[float] = None,
        fault_plan=None,
        quarantine_threshold: int = 3,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if pool is not None and pool.workers != workers:
            raise ValueError(
                f"pool has {pool.workers} workers, explorer wants {workers}"
            )
        if not program.finalized:
            program.finalize()
        self.program = program
        self.workers = workers
        self.exec_config = config if config is not None else ExecutorConfig()
        self.solver_budget = solver_budget
        if namespace is None:
            from repro.lowlevel.executor import fresh_namespace

            namespace = fresh_namespace("p")
        self.namespace = namespace
        self.batch_size = batch_size
        #: rounds are split into ``workers * steal_factor`` chunks so a
        #: worker that drains its chunk steals the next from the shared
        #: queue instead of idling behind one deep path.
        self.steal_factor = max(1, steal_factor)
        self.trace_hlpc = trace_hlpc
        if telemetry is None:
            telemetry = Telemetry()
        #: the caller's telemetry context; worker trace events are folded
        #: into its log, and coordinator spans are recorded via a
        #: same-log child under the "coordinator" lane.
        self.telemetry = telemetry
        self._tele = telemetry.child("coordinator")
        #: externally-owned pool (bench harness); never closed/replaced here.
        self._external_pool = pool
        self._run_id: Optional[int] = None
        #: epoch of the pool our run_id was last configured on; a
        #: different epoch on acquisition means a replacement pool.
        self._pool_epoch: Optional[int] = None
        self._started = False
        self._latest_by_pid: Dict[Tuple[int, int], _WorkerSlice] = {}
        #: metric snapshots folded in from worker generations that were
        #: since reconfigured away (another session took the pool, or a
        #: crash replaced it) — merged_metrics() sums these bases with
        #: the live _latest_by_pid slices.
        self._metric_bases: List[Dict] = []
        self._states_base = 0
        #: per-query wall-clock deadline shipped to worker solvers.
        self.solver_deadline_s = solver_deadline_s
        #: chaos-test fault schedule shipped in the configure spec
        #: (workers rebuild their injector from it); None in production.
        self.fault_plan = fault_plan
        #: crashes a single state may cause before it is quarantined.
        self.quarantine_threshold = max(1, quarantine_threshold)
        #: hook ``(snapshot, crash_count) -> None`` fired when a state is
        #: quarantined; the Chef engine surfaces it as a typed event.
        self.on_quarantine = None
        self.batches = 0
        #: optional merge hook ``(chunk_index, WorkerResult) -> None``,
        #: invoked per chunk in deterministic chunk order.  The Chef
        #: engine subscribes here to ingest records, classify pending
        #: snapshots and emit session events; ``self.batches`` is the
        #: current round index while the hook runs.
        self.on_merge = None

    # -- pool lifecycle -------------------------------------------------------

    def start(self) -> "ParallelExplorer":
        """Begin a run: warm-configure the pool.

        The configure lease is released immediately — leases are
        round-scoped, so between rounds the pool is free for other
        sessions (this is what makes concurrent sessions round-robin
        instead of serializing whole runs).
        """
        if self._started:
            return self
        # A new run means freshly-reset worker engines: drop any
        # previous run's cumulative per-worker counters (aggregation
        # would double-count them).
        self._latest_by_pid.clear()
        self._metric_bases = []
        self._states_base = 0
        self._run_id = None
        self._pool_epoch = None
        self.batches = 0
        self._started = True
        try:
            pool = self._acquire_round()
        except BaseException:
            self._started = False
            raise
        self._release_round(pool)
        return self

    def close(self) -> None:
        """End the run.

        With round-scoped leases there is no held lease to release — the
        pool was already free (and warm) the moment the last round's
        results were collected.
        """
        if not self._started:
            return
        self._started = False
        self._run_id = None
        self._pool_epoch = None

    # -- round-scoped leasing --------------------------------------------------

    def _acquire_round(self) -> WorkerPool:
        """Lease the pool for one round, (re)configuring it when needed."""
        if self._external_pool is not None:
            pool = self._external_pool
            if not pool.acquire():
                if pool.broken:
                    raise WorkerCrashError("WorkerPool is broken (a worker died)")
                raise RuntimeError("WorkerPool is closed")
        else:
            pool, _ = acquire_pool(self.workers)
        try:
            self._ensure_configured(pool)
        except BaseException:
            self._release_round(pool)
            raise
        return pool

    def _release_round(self, pool: WorkerPool) -> None:
        if pool is self._external_pool:
            pool.release()
        else:
            release_pool(pool)

    def _ensure_configured(self, pool: WorkerPool) -> None:
        """Re-broadcast our spec unless the pool is still configured for us.

        Reconfiguring resets the worker engines, so whatever cumulative
        metric slices we hold describe worker generations that no longer
        exist: fold them into the base accumulator.
        """
        if (
            self._run_id is not None
            and pool.active_run_id == self._run_id
            and pool.epoch == self._pool_epoch
        ):
            return
        self._fold_metric_slices()
        self._run_id = pool.configure(
            self.program,
            self.exec_config,
            self.namespace,
            self.solver_budget,
            trace_hlpc=self.trace_hlpc,
            trace=self.telemetry.enabled,
            run_id=self._run_id,
            solver_deadline_s=self.solver_deadline_s,
            fault_plan=self.fault_plan,
        )
        self._pool_epoch = pool.epoch
        registry = self.telemetry.registry
        registry.gauge("parallel.pool_spawns").set(pool.spawns)
        registry.gauge("parallel.program_ships").set(pool.program_ships)

    def _fold_metric_slices(self) -> None:
        if not self._latest_by_pid:
            return
        self._metric_bases.append(
            merge_snapshots([s.metrics for s in self._latest_by_pid.values()])
        )
        self._states_base += sum(
            s.states_created for s in self._latest_by_pid.values()
        )
        self._latest_by_pid.clear()

    def __enter__(self) -> "ParallelExplorer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- batched execution ----------------------------------------------------

    def submit(self, snapshots: List[StateSnapshot]) -> List[WorkerResult]:
        """Run one round across the pool; deterministic merge order.

        The batch splits into contiguous chunks fed through the shared
        task queue (work stealing); results come back in chunk order
        regardless of which worker ran which chunk.  A worker crash
        does not abort the round: the already-collected chunk results
        are folded exactly once, the lost positions are requeued on the
        replacement pool as singleton per-state items, repeat-offender
        states are quarantined, and the surviving results are
        reassembled per *original* chunk — so ``on_merge`` still fires
        in original chunk order and the merged stream matches an
        uninjected run.
        """
        if not self._started:
            raise RuntimeError("ParallelExplorer pool is not started")
        if not snapshots:
            return []
        round_no = self.batches
        chunk_count = min(len(snapshots), self.workers * self.steal_factor)
        base, extra = divmod(len(snapshots), chunk_count)
        chunks = []
        start = 0
        for index in range(chunk_count):
            size = base + (1 if index < extra else 0)
            chunks.append(snapshots[start : start + size])
            start += size
        # Work items, keyed by a never-reused wire position:
        # (original chunk, state offset inside it, requeue attempt, states).
        outstanding: Dict[int, Tuple[int, int, int, List[StateSnapshot]]] = {}
        item_of: Dict[int, Tuple[int, int, int, List[StateSnapshot]]] = {}
        next_position = 0
        for orig, chunk in enumerate(chunks):
            outstanding[next_position] = item_of[next_position] = (orig, 0, 0, chunk)
            next_position += 1
        collected: Dict[int, WorkerResult] = {}
        #: crashes blamed on each in-flight state (by snapshot identity,
        #: scoped to this round — snapshots live until the round merges).
        crash_counts: Dict[int, int] = {}
        registry = self.telemetry.registry
        configure_failures = 0
        while outstanding:
            # Lease per round: the pool is free for other sessions the
            # moment our results are collected, and FIFO acquisition
            # makes the interleaving round-robin fair.
            try:
                pool = self._acquire_round()
            except WorkerCrashError:
                if self._external_pool is not None:
                    raise
                configure_failures += 1
                if configure_failures > 4:
                    raise  # replacement pools keep dying at configure
                continue  # registry hands out a replacement pool
            configure_failures = 0
            epoch = pool.epoch
            crashed: Optional[WorkerCrashError] = None
            positions = sorted(outstanding)
            try:
                with self._tele.span(
                    "parallel.ship",
                    round=round_no,
                    states=sum(len(outstanding[p][3]) for p in positions),
                    chunks=len(positions),
                ):
                    results = pool.run_round(
                        self._run_id,
                        [outstanding[p][3] for p in positions],
                        positions=positions,
                        fault_keys=[
                            (round_no, outstanding[p][0], outstanding[p][2])
                            for p in positions
                        ],
                    )
            except WorkerCrashError as exc:
                crashed = exc
            finally:
                self._release_round(pool)
            if crashed is None:
                for position, result in zip(positions, results):
                    self._fold_result(epoch, result)
                    collected[position] = result
                    del outstanding[position]
                continue
            # -- lost-chunk recovery ------------------------------------
            # Fold whatever the dead pool delivered before breaking,
            # keyed by the *dead* epoch and before the replacement pool
            # reconfigures (which folds these slices into the metric
            # bases exactly once).
            for position, result in sorted(crashed.partial.items()):
                if position not in outstanding:
                    continue
                self._fold_result(epoch, result)
                collected[position] = result
                del outstanding[position]
            if self._external_pool is not None:
                raise crashed
            registry.counter("recovery.worker_crashes").inc()
            if not outstanding:
                continue
            # Blame every state of every lost chunk, quarantine repeat
            # offenders, and requeue the survivors as singleton items
            # under their original (round, chunk) coordinates — a state
            # that keeps killing workers only ever takes itself down.
            requeued = 0
            for position in sorted(outstanding):
                orig, offset, attempt, snaps = outstanding.pop(position)
                for j, snap in enumerate(snaps):
                    count = crash_counts.get(id(snap), 0) + 1
                    crash_counts[id(snap)] = count
                    if count >= self.quarantine_threshold:
                        registry.counter("recovery.quarantined_states").inc()
                        _log.warning(
                            "quarantined a state after %d worker crashes", count
                        )
                        if self.on_quarantine is not None:
                            self.on_quarantine(snap, count)
                        continue
                    item = (orig, offset + j, attempt + 1, [snap])
                    outstanding[next_position] = item_of[next_position] = item
                    next_position += 1
                    requeued += 1
            registry.counter("recovery.requeued_chunks").inc(requeued)
            if requeued:
                _log.warning(
                    "worker pool crashed (%s); requeued %d states", crashed, requeued
                )
        # -- deterministic reassembly & merge ------------------------------
        by_orig: Dict[int, List[Tuple[int, WorkerResult]]] = {}
        for position, result in collected.items():
            orig, offset, _attempt, _snaps = item_of[position]
            by_orig.setdefault(orig, []).append((offset, result))
        merged_results: List[WorkerResult] = []
        for orig in range(chunk_count):
            parts = sorted(by_orig.get(orig, ()), key=lambda part: part[0])
            if len(parts) == 1:
                combined = parts[0][1]
            elif not parts:
                combined = WorkerResult(pid=0)  # every state quarantined
            else:
                combined = WorkerResult(
                    pid=parts[-1][1].pid,
                    records=[r for _, res in parts for r in res.records],
                    pending=[s for _, res in parts for s in res.pending],
                    verdicts=tuple(
                        v for _, res in parts for v in res.verdicts
                    ),
                )
            with self._tele.span(
                "parallel.merge",
                round=round_no,
                chunk=orig,
                records=len(combined.records),
                pending=len(combined.pending),
            ):
                if self.on_merge is not None:
                    self.on_merge(orig, combined)
            merged_results.append(combined)
        self.batches += 1
        return merged_results

    def _fold_result(self, epoch: int, result: WorkerResult) -> None:
        """Fold one collected chunk result into coordinator state.

        Exactly-once by construction: each wire position is collected at
        most once, cumulative metric slices overwrite by (epoch, pid)
        with the newest snapshot, and slices of epochs that died are
        moved to the base accumulator only when the replacement pool is
        configured (``_fold_metric_slices``).
        """
        self._latest_by_pid[(epoch, result.pid)] = _WorkerSlice(
            metrics=result.metrics,
            states_created=result.states_created,
        )
        self.telemetry.extend_events(result.trace_events)

    # -- high-level exhaustive exploration ------------------------------------

    def explore(self, max_states: int = 512) -> ExploreResult:
        """Explore from boot until the frontier drains or ``max_states``.

        ``max_states`` bounds activated (sat) states, checked between
        rounds — a round may overshoot by at most one batch.
        """
        start_time = time.monotonic()
        own_session = not self._started
        if own_session:
            self.start()
        frontier: List[StateSnapshot] = [boot_snapshot(self.program)]
        records: List[PathRecord] = []
        states_run = 0
        try:
            while frontier and states_run < max_states:
                take = min(
                    len(frontier),
                    self.workers * self.batch_size,
                    max_states - states_run,
                )
                batch = [frontier.pop() for _ in range(take)]
                for result in self.submit(batch):
                    records.extend(result.records)
                    frontier.extend(result.pending)
                    states_run += sum(1 for v in result.verdicts if v == "sat")
        finally:
            if own_session:
                self.close()
        merged = self.merged_metrics()
        return ExploreResult(
            records=records,
            engine_stats=split_prefixed(merged, "engine"),
            solver_stats=split_prefixed(merged, "solver"),
            metrics=merged,
            workers=self.workers,
            batches=self.batches,
            states_run=states_run,
            pending_left=len(frontier),
            wall_time=time.monotonic() - start_time,
        )

    # -- statistics -----------------------------------------------------------

    def merged_metrics(self) -> Dict:
        """Pool-wide metrics: folded bases + latest cumulative snapshots.

        ``_metric_bases`` holds the totals of worker generations that
        were reconfigured away mid-run (another session took the pool,
        or a crash replaced it); ``_latest_by_pid`` holds the live
        generation's cumulative snapshots, one per (epoch, pid).
        """
        return merge_snapshots(
            self._metric_bases
            + [worker.metrics for worker in self._latest_by_pid.values()]
        )

    def aggregate(self, kind: str) -> Dict[str, int]:
        """Legacy counter-dict view of :meth:`merged_metrics`.

        ``kind`` is ``engine_stats`` or ``solver_stats`` — the
        prefix-split slice of the merged snapshot.
        """
        return split_prefixed(self.merged_metrics(), _STAT_PREFIXES[kind])

    def states_created(self) -> int:
        """Distinct states ever created across the pool, boot included.

        Matches the serial engine's ``_next_sid`` semantics: workers
        report only the forks they created (restores are excluded on the
        worker side), and the boot state is counted once here.
        """
        if not self._latest_by_pid and not self._metric_bases:
            return 0
        return (
            1
            + self._states_base
            + sum(r.states_created for r in self._latest_by_pid.values())
        )
