"""The Chef engine loop: drive the LVM, trace HLPCs, select with CUPA.

This is the architecture of Fig. 4: the low-level engine executes the
interpreter; ``log_pc`` hypercalls stream high-level locations into the
high-level execution tree and CFG; a state-selection strategy (random or
CUPA) picks the next pending alternate state; each completed low-level
path yields a concrete test case, and the first path to exercise a new
high-level path yields a *high-level* test case.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api.events import (
    BatchMerged,
    BudgetExhausted,
    CheckpointSaved,
    MetricsUpdated,
    PathCompleted,
    RunFinished,
    SessionEvent,
    StateQuarantined,
    TestCaseFound,
)
from repro.faults import make_injector
from repro.chef.hltree import HighLevelCfg, HighLevelTree
from repro.chef.options import ChefConfig
from repro.chef.strategies import make_strategy
from repro.chef.testcase import TestCase, TestSuite
from repro.lowlevel import api
from repro.lowlevel.executor import (
    DISCARDED_STATUSES as _DISCARDED_STATUSES,
    ExecutorConfig,
    LowLevelEngine,
    State,
)
from repro.lowlevel.machine import Status
from repro.lowlevel.program import Program
from repro.obs.metrics import split_prefixed
from repro.obs.telemetry import Telemetry
from repro.solver.backend import SolverBackend
from repro.solver.csp import make_default_solver

_log = logging.getLogger("repro.checkpoint")
_solver_log = logging.getLogger("repro.solver")


@dataclass
class RunResult:
    """Everything a benchmark needs from one Chef run."""

    suite: TestSuite
    hl_paths: int
    ll_paths: int
    duration: float
    #: (seconds, hl_paths_so_far, ll_paths_so_far) samples (Fig. 10).
    timeline: List[Tuple[float, int, int]] = field(default_factory=list)
    engine_stats: Dict[str, int] = field(default_factory=dict)
    solver_stats: Dict[str, int] = field(default_factory=dict)
    cfg_nodes: int = 0
    cfg_edges: int = 0
    tree_nodes: int = 0
    pending_left: int = 0
    states_created: int = 0
    tags: Dict[str, str] = field(default_factory=dict)

    @property
    def hl_test_cases(self) -> List[TestCase]:
        return self.suite.high_level_tests()

    def hl_to_ll_ratio(self) -> float:
        return self.hl_paths / self.ll_paths if self.ll_paths else 0.0


class _PendingHandle:
    """Strategy-facing stand-in for a pending state held as a snapshot.

    Exposes exactly the attributes the CUPA classifiers and weight
    functions read (``meta``, ``fork_ll_pc``, ``fork_group``,
    ``fork_index``, ``depth``); the snapshot itself is what gets shipped
    to a worker when the strategy selects this handle.
    """

    __slots__ = ("snapshot", "meta", "fork_ll_pc", "fork_group", "fork_index", "depth")

    def __init__(self, snapshot, meta, fork_group):
        self.snapshot = snapshot
        self.meta = meta
        self.fork_ll_pc = snapshot.fork_ll_pc
        self.fork_group = fork_group
        self.fork_index = snapshot.fork_index
        self.depth = snapshot.depth


class Chef:
    """Language-agnostic Chef engine over a prepared interpreter program.

    ``program`` must be a finalized LIR program whose static data already
    contains the interpreter's high-level program image and build-option
    flag words (the interpreter engines in
    :mod:`repro.interpreters` take care of that).
    """

    def __init__(
        self,
        program: Program,
        config: Optional[ChefConfig] = None,
        solver: Optional[SolverBackend] = None,
        telemetry: Optional[Telemetry] = None,
        worker_pool=None,
    ):
        self.config = config if config is not None else ChefConfig()
        #: optional externally-owned :class:`~repro.parallel.pool.WorkerPool`
        #: for parallel mode; by default the process-wide shared pool is
        #: leased per run (and kept warm between runs).
        self.worker_pool = worker_pool
        #: the engine-wide observability context, threaded through the
        #: solver, the low-level engine and (in parallel mode) the
        #: worker pool.  ``config.trace`` turns the span tracer on.
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(enabled=self.config.trace)
        )
        self._faults = make_injector(self.config.fault_plan)
        self.solver: SolverBackend = solver if solver is not None else make_default_solver(
            budget=self.config.solver_budget,
            telemetry=self.telemetry,
            deadline_s=self.config.solver_deadline_s,
            faults=self._faults,
        )
        self.tree = HighLevelTree()
        self.cfg = HighLevelCfg()
        self.ll = LowLevelEngine(
            program,
            solver=self.solver,
            config=ExecutorConfig(
                max_instrs_per_path=self.config.path_instr_budget,
                unknown_policy=self.config.unknown_policy,
            ),
            telemetry=self.telemetry,
        )
        self.ll.on_log_pc = self._on_log_pc
        self.ll.on_fork = self._on_fork
        self.ll.on_path_end = self._on_path_end
        self._rng = random.Random(self.config.seed)
        self.strategy = make_strategy(
            self.config.strategy, self._rng, self.cfg, self.config.fork_weight_p
        )
        self.suite = TestSuite()
        self._timeline: List[Tuple[float, int, int]] = []
        self._start_time = 0.0
        self._ll_paths = 0
        #: session events accumulated since the last stream() flush.
        self._event_buffer: List[SessionEvent] = []
        #: pending frontier restored from a checkpoint (None = fresh run).
        self._resume_frontier: Optional[List] = None
        self._program_blob_cache: Optional[bytes] = None

    # -- checkpoint / resume ----------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        telemetry: Optional[Telemetry] = None,
        worker_pool=None,
        **config_overrides,
    ) -> "Chef":
        """Rebuild an interrupted campaign from ``<dir>/campaign.ckpt``.

        The resumed engine re-emits the checkpointed path events at the
        head of its stream, so for exhaustive runs the resumed stream's
        path-event multiset equals the uninterrupted run's.
        ``config_overrides`` patch the persisted :class:`ChefConfig`
        (e.g. a fresh ``time_budget``).
        """
        import dataclasses as _dc
        import pickle as _pickle

        from repro.chef.checkpoint import load_checkpoint

        ckpt = load_checkpoint(path)
        config = ckpt.config
        if config_overrides:
            config = _dc.replace(config, **config_overrides)
        program = _pickle.loads(ckpt.program_blob)
        chef = cls(program, config=config, telemetry=telemetry, worker_pool=worker_pool)
        chef._seed_from_checkpoint(ckpt)
        return chef

    def _seed_from_checkpoint(self, ckpt) -> None:
        """Adopt a loaded :class:`~repro.chef.checkpoint.Checkpoint`."""
        if ckpt.tree is not None:
            self.tree = ckpt.tree
        if ckpt.cfg is not None:
            self.cfg = ckpt.cfg
        try:
            self._rng.setstate(ckpt.rng_state)
        except (TypeError, ValueError):
            pass  # fresh seed; selection order shifts, the path set doesn't
        # The strategy was built against the pre-resume cfg/rng objects.
        self.strategy = make_strategy(
            self.config.strategy, self._rng, self.cfg, self.config.fork_weight_p
        )
        self.ll.namespace = ckpt.namespace
        self._ll_paths = ckpt.ll_paths
        self._timeline = list(ckpt.timeline)
        self.suite = TestSuite()
        for case in ckpt.cases:
            self.suite.add(case)
            if ckpt.tree is None:
                # Tree frame was torn off: re-derive recorded-path state
                # so post-resume new_hl verdicts stay correct.
                self.tree.record_path(case.hl_path_signature)
            self._event_buffer.append(PathCompleted(case=case))
            if case.new_hl_path:
                self._event_buffer.append(TestCaseFound(case=case))
        self._resume_frontier = list(ckpt.frontier)
        registry = self.telemetry.registry
        registry.counter("checkpoint.resumes").inc()
        if ckpt.corrupt_frames_skipped:
            registry.counter("checkpoint.corrupt_frames_skipped").inc(
                ckpt.corrupt_frames_skipped
            )
            _log.warning(
                "resumed past %d torn checkpoint frame(s)", ckpt.corrupt_frames_skipped
            )

    def _program_blob(self) -> bytes:
        if self._program_blob_cache is None:
            import pickle as _pickle

            self._program_blob_cache = _pickle.dumps(self.ll.program)
        return self._program_blob_cache

    def _save_checkpoint(self, frontier_snaps: List) -> None:
        """Write one crash-consistent checkpoint and emit its event."""
        from repro.chef.checkpoint import save_checkpoint

        with self.telemetry.span(
            "chef.checkpoint", frontier=len(frontier_snaps), cases=len(self.suite.cases)
        ):
            path = save_checkpoint(
                self.config.checkpoint_dir,
                config=self.config,
                namespace=self.ll.namespace,
                program_blob=self._program_blob(),
                rng_state=self._rng.getstate(),
                ll_paths=self._ll_paths,
                tree=self.tree,
                cfg=self.cfg,
                timeline=self._timeline,
                cases=self.suite.cases,
                frontier=frontier_snaps,
                faults=self._faults,
            )
        registry = self.telemetry.registry
        registry.counter("checkpoint.saves").inc()
        registry.counter("checkpoint.frontier_states").inc(len(frontier_snaps))
        self._event_buffer.append(
            CheckpointSaved(
                path=path, frontier=len(frontier_snaps), cases=len(self.suite.cases)
            )
        )

    # -- listener hooks -------------------------------------------------------

    def _on_log_pc(self, state: State, pc: int, opcode: int) -> None:
        meta = state.meta
        prev = meta.get("static_hlpc")
        prev_op = meta.get("hl_opcode")
        self.cfg.observe(prev, prev_op, pc, opcode)
        meta["static_hlpc"] = pc
        meta["hl_opcode"] = opcode
        meta["dyn_node"] = self.tree.advance(meta.get("dyn_node", HighLevelTree.ROOT), pc)
        meta["hl_sig"] = HighLevelTree.extend_signature(meta.get("hl_sig", 0), pc)

    def _on_fork(self, parent: State, child: State) -> None:
        child.meta = dict(parent.meta)

    def _on_path_end(self, state: State) -> None:
        if state.machine.status in _DISCARDED_STATUSES:
            return  # don't build inputs/output copies just to drop them
        self._emit_test_case(
            status=state.machine.status,
            inputs=state.input_values(),
            events=((e.kind, e.a, e.b) for e in state.events),
            output=list(state.machine.output),
            hl_instr_count=state.hl_instr_count,
            ll_instr_count=state.instr_count,
            signature=state.meta.get("hl_sig", 0),
            path_constraints=state.path_condition,
        )

    def _emit_test_case(
        self,
        status: str,
        inputs,
        events,
        output,
        hl_instr_count: int,
        ll_instr_count: int,
        signature: int,
        path_constraints,
    ) -> None:
        """Terminal-path processing shared by serial and parallel modes.

        Applies the terminal-status filter, builds the :class:`TestCase`
        and samples the timeline; ``events`` is ``(kind, a, b)`` tuples.
        Keeping this in one place is what keeps ``workers=1`` and
        ``workers=N`` test suites equivalent.
        """
        if status in _DISCARDED_STATUSES:
            return
        self._ll_paths += 1
        new_hl = self.tree.record_path(signature)
        exception_type = None
        for kind, a, _b in events:
            if kind == api.EVENT_UNCAUGHT_EXCEPTION:
                exception_type = a
        case = TestCase(
            test_id=len(self.suite.cases),
            inputs=inputs,
            status=status,
            hl_path_signature=signature,
            new_hl_path=new_hl,
            exception_type=exception_type,
            hang=status == Status.BUDGET_EXCEEDED,
            interpreter_crash=status == Status.FAULT,
            output=output,
            hl_instr_count=hl_instr_count,
            ll_instr_count=ll_instr_count,
            wall_time=time.monotonic() - self._start_time,
            path_constraints=path_constraints,
        )
        self.suite.add(case)
        self._event_buffer.append(PathCompleted(case=case))
        if new_hl:
            self._event_buffer.append(TestCaseFound(case=case))
        if self._ll_paths % max(self.config.sample_every, 1) == 0:
            self._timeline.append(
                (case.wall_time, self.tree.distinct_paths(), self._ll_paths)
            )

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        """Explore until the time/path budget is exhausted."""
        result: Optional[RunResult] = None
        for event in self.stream():
            if isinstance(event, RunFinished):
                result = event.result
        assert result is not None  # stream() always ends with RunFinished
        return result

    def stream(self) -> Iterator[SessionEvent]:
        """Incremental twin of :meth:`run`: yield typed session events.

        Events flush after every completed low-level path (serial mode)
        or after each merged *round* of worker chunks (parallel mode —
        the pool blocks until a round completes, so per-chunk events
        arrive together, in deterministic chunk order); the stream
        always ends with a :class:`RunFinished` carrying the full
        :class:`RunResult`.  The event *multiset* is deterministic
        across worker counts for exhaustive runs — see
        :mod:`repro.api.events`.
        """
        if self.config.workers > 1:
            yield from self._stream_parallel()
            return
        config = self.config
        telemetry = self.telemetry
        self._start_time = time.monotonic()
        self.ll.config.deadline = self._start_time + config.time_budget
        if self._resume_frontier is not None:
            from repro.chef.hltree import HighLevelTree as _Tree
            from repro.parallel.snapshot import SnapshotDecoder, restore_state

            decoder = SnapshotDecoder()
            for snap in self._resume_frontier:
                restored = restore_state(
                    snap, self.ll.program, self.ll._fresh_sid(), decoder=decoder
                )
                restored.meta["dyn_node"] = restored.meta.get(
                    "tree_node", _Tree.ROOT
                )
                self.strategy.add(restored)
            self._resume_frontier = None
        else:
            state = self.ll.new_state()
            for child in self.ll.run_path(state):
                self.strategy.add(child)
        yield from self._flush_events()
        exhausted: Optional[str] = None
        metrics_emitted = 0
        ckpt_last = self._ll_paths
        ckpt_every = max(config.checkpoint_every, 1)
        sample_every = max(config.sample_every, 1)
        while True:
            exhausted = self._budget_reason()
            if exhausted is not None:
                break
            with telemetry.span("chef.select", pending=len(self.strategy)):
                candidate = self.strategy.select()
            if candidate is None:
                break
            if self.ll.activate(candidate) != "sat":
                continue
            for child in self.ll.run_path(candidate):
                self.strategy.add(child)
            yield from self._flush_events()
            if self._ll_paths - metrics_emitted >= sample_every:
                metrics_emitted = self._ll_paths
                yield MetricsUpdated(metrics=telemetry.metrics())
            if config.checkpoint_dir and self._ll_paths - ckpt_last >= ckpt_every:
                ckpt_last = self._ll_paths
                yield from self._checkpoint_serial()
        if exhausted is not None:
            yield BudgetExhausted(reason=exhausted)
        duration = time.monotonic() - self._start_time
        self._timeline.append((duration, self.tree.distinct_paths(), self._ll_paths))
        metrics = telemetry.metrics()
        self._log_give_ups(metrics)
        yield MetricsUpdated(metrics=metrics)
        yield RunFinished(
            result=RunResult(
                suite=self.suite,
                hl_paths=self.tree.distinct_paths(),
                ll_paths=self._ll_paths,
                duration=duration,
                timeline=list(self._timeline),
                engine_stats=self.ll.stats.as_dict(),
                solver_stats=self.solver.stats.as_dict(),
                cfg_nodes=self.cfg.node_count(),
                cfg_edges=self.cfg.edge_count(),
                tree_nodes=self.tree.node_count(),
                pending_left=len(self.strategy),
                states_created=self.ll._next_sid,
                tags=dict(config.tags or {}),
            )
        )

    def _log_give_ups(self, metrics: Dict[str, float]) -> None:
        """One line for the run's solver give-ups past each solver's first."""
        count = metrics.get("solver.timeouts", 0) + metrics.get(
            "solver.deadline_unknowns", 0)
        if count > 1:
            _solver_log.warning(
                "%d solver queries gave up in this run (budget %d steps, "
                "deadline %ss)", count, self.config.solver_budget,
                self.config.solver_deadline_s,
            )

    def _flush_events(self) -> List[SessionEvent]:
        events, self._event_buffer = self._event_buffer, []
        return events

    def _checkpoint_serial(self):
        """Serial-mode checkpoint: snapshot the live frontier and persist.

        The strategy is drained and re-fed (selection RNG advances, so
        post-checkpoint exploration *order* can differ from a
        checkpoint-free run; exhaustive path sets do not).
        """
        from repro.chef.hltree import HighLevelTree as _Tree
        from repro.parallel.snapshot import snapshot_states

        states = self.strategy.drain()
        for live in states:
            live.meta["tree_node"] = live.meta.get("dyn_node", _Tree.ROOT)
        snaps = snapshot_states(states) if states else []
        self._save_checkpoint(snaps)
        for live in states:
            self.strategy.add(live)
        return self._flush_events()

    # -- parallel mode ---------------------------------------------------------

    def _stream_parallel(self) -> Iterator[SessionEvent]:
        """Shard the pending-state frontier across pool worker processes.

        Workers run low-level paths and stream back (a) terminated-path
        records carrying their since-restore HLPC *suffixes* and (b)
        snapshots of new pending states.  The coordinator grafts the
        suffixes onto the high-level tree/CFG (the same transitions the
        serial loop feeds incrementally — each transition arrives in
        exactly one suffix), generates test cases, classifies pending
        snapshots for the CUPA/strategy layer in O(suffix) per state —
        all through the coordinator's ``on_merge`` hook, which fires per
        chunk in deterministic chunk order (each merge also emits a
        :class:`BatchMerged` event).
        Exploration *order* differs from serial (batching), so
        time-budgeted runs may cover different prefixes; exhaustive
        runs produce the identical path set, hence the identical
        path-event multiset.
        """
        from repro.parallel.coordinator import ParallelExplorer, warn_if_custom_backend
        from repro.parallel.snapshot import boot_snapshot

        warn_if_custom_backend(self.ll.solver)
        config = self.config
        self._start_time = time.monotonic()
        deadline = self._start_time + config.time_budget
        exec_config = ExecutorConfig(
            max_instrs_per_path=config.path_instr_budget,
            deadline=deadline,
            unknown_policy=config.unknown_policy,
        )
        solver_budget = getattr(self.ll.solver, "budget", None)
        if solver_budget is None:
            solver_budget = config.solver_budget
        explorer = ParallelExplorer(
            self.ll.program,
            workers=config.workers,
            config=exec_config,
            solver_budget=solver_budget,
            namespace=self.ll.namespace,
            batch_size=config.worker_batch,
            trace_hlpc=True,
            telemetry=self.telemetry,
            pool=self.worker_pool,
            solver_deadline_s=config.solver_deadline_s,
            fault_plan=config.fault_plan,
            quarantine_threshold=config.quarantine_threshold,
        )
        explorer.on_merge = lambda chunk_index, result: self._merge_chunk(
            explorer.batches, chunk_index, result
        )
        explorer.on_quarantine = lambda snap, crashes: self._event_buffer.append(
            StateQuarantined(
                hlpc=snap.meta.get("static_hlpc", -1), crashes=crashes
            )
        )
        exhausted: Optional[str] = None
        ckpt_every = max(config.checkpoint_every, 1)
        rounds = 0
        with explorer:
            if self._resume_frontier is not None:
                batch = list(self._resume_frontier)
                self._resume_frontier = None
            else:
                batch = [boot_snapshot(self.ll.program)]
            while batch:
                explorer.submit(batch)
                rounds += 1
                yield from self._flush_events()
                yield MetricsUpdated(metrics=explorer.merged_metrics())
                if config.checkpoint_dir and rounds % ckpt_every == 0:
                    handles = self.strategy.drain()
                    self._save_checkpoint([h.snapshot for h in handles])
                    for handle in handles:
                        self.strategy.add(handle)
                    yield from self._flush_events()
                exhausted = self._budget_reason()
                if exhausted is not None:
                    break
                batch = self._pop_pending_batch(config.workers * config.worker_batch)
        yield from self._flush_events()
        if exhausted is not None:
            yield BudgetExhausted(reason=exhausted)
        duration = time.monotonic() - self._start_time
        self._timeline.append((duration, self.tree.distinct_paths(), self._ll_paths))
        merged = explorer.merged_metrics()
        # Fold the pool-wide totals into the engine context: from here on
        # Chef.telemetry.metrics() answers for the whole run, and the
        # legacy RunResult dicts below are prefix views of that snapshot.
        self.telemetry.adopt_snapshot(merged)
        metrics = self.telemetry.metrics()
        self._log_give_ups(metrics)
        yield MetricsUpdated(metrics=metrics)
        yield RunFinished(
            result=RunResult(
                suite=self.suite,
                hl_paths=self.tree.distinct_paths(),
                ll_paths=self._ll_paths,
                duration=duration,
                timeline=list(self._timeline),
                engine_stats=split_prefixed(merged, "engine"),
                solver_stats=split_prefixed(merged, "solver"),
                cfg_nodes=self.cfg.node_count(),
                cfg_edges=self.cfg.edge_count(),
                tree_nodes=self.tree.node_count(),
                pending_left=len(self.strategy),
                states_created=explorer.states_created(),
                tags=dict(config.tags or {}),
            )
        )

    def _merge_chunk(self, round_no: int, chunk_index: int, result) -> None:
        """Coordinator ``on_merge`` hook: fold one worker chunk in.

        Runs in deterministic chunk order within each round; ingests the
        chunk's terminated-path records (emitting their path events),
        classifies its pending snapshots for the strategy layer, and
        closes the chunk with a :class:`BatchMerged` event.
        """
        for record in result.records:
            self._ingest_record(record)
        with self.telemetry.span("chef.classify", states=len(result.pending)):
            for snap in result.pending:
                self.strategy.add(self._pending_handle(snap, round_no, chunk_index))
        self._event_buffer.append(
            BatchMerged(
                round_no=round_no,
                chunk_index=chunk_index,
                records=len(result.records),
                pending=len(result.pending),
            )
        )

    def _ingest_record(self, record) -> None:
        """Parallel-mode twin of :meth:`_on_path_end`, fed by suffix replay.

        The replay mirrors what :meth:`_on_log_pc` does live in serial
        mode — CFG edges *and* dynamic-tree unfolding — but only over
        the record's since-restore suffix, grafted at ``start_node``:
        the prefix transitions were already ingested when the state that
        executed them terminated (every executed transition belongs to
        exactly one record's suffix, because forked children never
        re-execute their inherited prefix).  The path signature arrives
        precomputed (workers extend it with the serial recurrence), so
        the high-level structures and test suite end up identical; only
        then does the serial status filter decide whether the path
        yields a test case.
        """
        prev = record.start_hlpc
        prev_op = record.start_opcode
        node = record.start_node
        for pc, opcode in record.hl_suffix:
            self.cfg.observe(prev, prev_op, pc, opcode)
            node = self.tree.advance(node, pc)
            prev, prev_op = pc, opcode
        self.telemetry.registry.counter("coordinator.ingest_steps").inc(
            len(record.hl_suffix)
        )
        self._emit_test_case(
            status=record.status,
            inputs={name: list(values) for name, values in record.inputs},
            events=record.events,
            output=list(record.output),
            hl_instr_count=record.hl_instr_count,
            ll_instr_count=record.instr_count,
            signature=record.hl_sig,
            path_constraints=record.path_constraints,
        )

    def _pending_handle(self, snap, round_no: int, chunk_index: int) -> "_PendingHandle":
        """Classify a pending snapshot for the strategy layer.

        Grafts the snapshot's since-restore HLPC suffix onto the
        coordinator's high-level tree starting at the anchor node the
        snapshot was restored under (``meta["tree_node"]``, ROOT for
        boot descendants) — O(suffix length), not O(path depth).  The
        resulting node is stamped back into the snapshot meta as the
        anchor for the *next* hop, and the consumed suffix is dropped,
        so a ship → run → classify cycle never re-walks old transitions.
        ``coordinator.classify_steps`` counts the advances actually
        taken; ``coordinator.classify_full_trace`` counts what a
        full-trace replay would have cost (the state's whole high-level
        instruction count) — the regression gate asserts their ratio.
        Fork groups are remapped with the (round, chunk) origin because
        worker-local parent sids collide across processes.
        """
        meta = dict(snap.meta)
        suffix = meta.pop("hl_suffix", None) or ()
        node = meta.get("tree_node", HighLevelTree.ROOT)
        for pc, _opcode in suffix:
            node = self.tree.advance(node, pc)
        meta["dyn_node"] = node
        registry = self.telemetry.registry
        registry.counter("coordinator.classify_states").inc()
        registry.counter("coordinator.classify_steps").inc(len(suffix))
        registry.counter("coordinator.classify_full_trace").inc(snap.hl_instr_count)
        # Anchor the snapshot for its next restore: the worker will
        # start a fresh suffix from exactly this tree node.
        snap.meta.pop("hl_suffix", None)
        snap.meta["tree_node"] = node
        fork_group = snap.fork_group
        if fork_group is not None:
            fork_group = (round_no, chunk_index) + tuple(fork_group)
        return _PendingHandle(snap, meta, fork_group)

    def _pop_pending_batch(self, limit: int) -> List:
        with self.telemetry.span("chef.select", pending=len(self.strategy), limit=limit):
            batch = []
            while len(batch) < limit:
                handle = self.strategy.select()
                if handle is None:
                    break
                batch.append(handle.snapshot)
        return batch

    def _budget_reason(self) -> Optional[str]:
        """Which budget stopped exploration, or None while in budget."""
        config = self.config
        if time.monotonic() - self._start_time >= config.time_budget:
            return "time"
        if config.max_ll_paths and self._ll_paths >= config.max_ll_paths:
            return "ll-paths"
        if config.max_hl_paths and self.tree.distinct_paths() >= config.max_hl_paths:
            return "hl-paths"
        return None
