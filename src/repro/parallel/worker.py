"""Worker-process half of parallel exploration.

Each pool worker is a persistent process (see
:mod:`repro.parallel.pool`) driven by a small message loop
(:func:`_pool_worker_main`): ``configure`` messages rebuild the
per-process engine for a new run, chunk tasks from the shared
work-stealing queue execute batches of snapshots.  A configured worker
owns a private :class:`LowLevelEngine` (same program image — cached by
content digest across configures — same symbolic-variable namespace as
the coordinator, and a solver with its own recent models) and one
:class:`~repro.obs.telemetry.Telemetry` context whose lane is
``worker-<pid>``.

Per chunk it activates and runs every state in the chunk, and returns
terminated-path records, batch-encoded snapshots of the new pending
alternates, a cumulative snapshot of its metrics registry and the trace
events recorded during the chunk.

With high-level tracing on, states carry only the **suffix** of their
(hlpc, opcode) stream since they were last restored (plus the running
path signature); the coordinator grafts suffixes onto its tree instead
of replaying whole traces — see :mod:`repro.parallel.snapshot`.

Metrics snapshots are cumulative per worker process *per configure*;
the coordinator keeps the latest snapshot per pid and merges at the
end, so chunk boundaries do not double-count.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Tuple

from repro.lowlevel.executor import LowLevelEngine
from repro.lowlevel.program import Program
from repro.obs.telemetry import Telemetry
from repro.parallel.snapshot import (
    SnapshotDecoder,
    StateSnapshot,
    path_record_of,
    restore_state,
    snapshot_states,
)
from repro.solver.csp import CspSolver

_ENGINE: Optional[LowLevelEngine] = None

#: Cumulative count of snapshots this worker has restored since the last
#: configure.  Restoring consumes a fresh sid for a state that was
#: already counted (as a fork, or as the boot state) wherever it was
#: created, so it is subtracted from the reported states_created to keep
#: the coordinator's total comparable to a serial run.
_RESTORED = 0

#: run_id this worker is configured for; tasks tagged otherwise are
#: stale (from an abandoned round on a reused pool) and are dropped.
_RUN_ID: Optional[int] = None

#: program images resident in this process, keyed by content digest —
#: what makes the Program ship once per pool instead of once per run.
_PROGRAM_CACHE: Dict[str, Program] = {}

#: per-process chaos-test injector (None in production); rebuilt per
#: configure from the spec's fault plan so injection state resets with
#: the engine.
_FAULTS = None


@dataclass
class WorkerResult:
    """Everything one worker returns for one chunk."""

    pid: int
    records: List = field(default_factory=list)
    pending: List[StateSnapshot] = field(default_factory=list)
    #: verdicts of activation per input state ("sat"/"unsat"/"timeout").
    verdicts: Tuple[str, ...] = ()
    #: cumulative metrics-registry snapshot for this worker process
    #: (``engine.*`` / ``solver.*`` / ``cache.*`` names — one registry).
    metrics: Dict = field(default_factory=dict)
    #: span events recorded during this chunk (worker-lane trace slice).
    trace_events: List = field(default_factory=list)
    #: states this worker has *created* (forks), excluding snapshots it
    #: merely restored — those are counted where they were first created.
    states_created: int = 0


def configure_worker(spec: Dict) -> None:
    """Rebuild this process's engine for a new run.

    Resets the expression intern tables and symbolic-variable registry
    (a persistent worker must behave exactly like a fresh process —
    leaked interning across runs would corrupt structural identity) and
    builds a fresh engine/solver/cache/telemetry stack.  The program
    comes from the digest cache; a ``program_blob`` in the spec
    populates it first.
    """
    global _ENGINE, _RESTORED, _RUN_ID, _FAULTS
    from repro.faults import make_injector
    from repro.lowlevel.expr import Sym, clear_intern_cache

    clear_intern_cache()
    Sym.reset_registry()
    _FAULTS = make_injector(spec.get("fault_plan"))
    digest = spec["program_digest"]
    blob = spec["program_blob"]
    if blob is not None:
        _PROGRAM_CACHE[digest] = pickle.loads(blob)
    program = _PROGRAM_CACHE[digest]
    telemetry = Telemetry(enabled=spec["trace"], lane=f"worker-{os.getpid()}")
    engine = LowLevelEngine(
        program,
        solver=CspSolver(
            budget=spec["solver_budget"],
            telemetry=telemetry,
            deadline_s=spec.get("solver_deadline_s"),
            faults=_FAULTS,
        ),
        config=spec["exec_config"],
        telemetry=telemetry,
    )
    # All workers and the coordinator must agree on symbolic variable
    # names; override the per-process engine counter namespace.
    engine.namespace = spec["namespace"]
    if spec["trace_hlpc"]:
        _attach_hlpc_tracing(engine)
    _ENGINE = engine
    _RESTORED = 0
    _RUN_ID = spec["run_id"]


def _attach_hlpc_tracing(engine: LowLevelEngine) -> None:
    """Maintain the since-restore HLPC suffix and path signature per state.

    Mirrors the coordinator's serial ``_on_log_pc`` for the pieces that
    must travel: ``hl_suffix`` is the (hlpc, opcode) stream since this
    state was last restored (the coordinator grafts it onto its tree),
    ``static_hlpc``/``hl_opcode`` track the current location for the
    CUPA classifiers, and ``hl_sig`` is the running whole-path signature
    (extended identically to serial mode, so high-level path identity is
    exact without ever shipping the full trace).
    """
    from repro.chef.hltree import HighLevelTree

    extend_signature = HighLevelTree.extend_signature

    def on_log_pc(state, pc: int, opcode: int) -> None:
        meta = state.meta
        suffix = meta.get("hl_suffix")
        if suffix is None:
            suffix = meta["hl_suffix"] = []
        suffix.append((pc, opcode))
        meta["static_hlpc"] = pc
        meta["hl_opcode"] = opcode
        meta["hl_sig"] = extend_signature(meta.get("hl_sig", 0), pc)

    def on_fork(parent, child) -> None:
        child.meta = dict(parent.meta)
        suffix = child.meta.get("hl_suffix")
        if suffix is not None:
            child.meta["hl_suffix"] = list(suffix)

    engine.on_log_pc = on_log_pc
    engine.on_fork = on_fork


def run_chunk(snapshots: List[StateSnapshot]) -> WorkerResult:
    """Run one chunk of snapshots; see module docstring for the protocol."""
    global _RESTORED
    engine = _ENGINE
    assert engine is not None, "worker used before configure_worker ran"
    telemetry = engine.telemetry
    _RESTORED += len(snapshots)

    records: List = []
    children: List = []
    verdicts: List[str] = []
    decoder = SnapshotDecoder()
    with telemetry.span("worker.batch", states=len(snapshots)):
        for snap in snapshots:
            with telemetry.span("snapshot.decode"):
                state = restore_state(
                    snap, engine.program, engine._fresh_sid(), decoder=decoder
                )
            verdict = engine.activate(state)
            verdicts.append(verdict)
            if verdict != "sat":
                continue
            children.extend(engine.run_path(state))
            if state.terminated():
                records.append(path_record_of(state))
    with telemetry.span("snapshot.encode", children=len(children)):
        pending = snapshot_states(children) if children else []

    return WorkerResult(
        pid=os.getpid(),
        records=records,
        pending=pending,
        verdicts=tuple(verdicts),
        metrics=telemetry.registry.snapshot(),
        trace_events=telemetry.drain_events(),
        states_created=engine._next_sid - _RESTORED,
    )


def _pool_worker_main(worker_index: int, ctrl_q, task_q, result_q) -> None:
    """Persistent worker loop: control messages first, then stolen chunks.

    Control messages (configure/stop) are only ever sent between rounds,
    so checking the private control queue before each task is enough —
    no cross-queue ordering is assumed anywhere.  The worker sleeps until
    either queue has a message, so a configure is served at once.
    Exceptions during a chunk are reported as ``("error", ...)`` messages
    (the pool converts them to :class:`WorkerCrashError`); the loop keeps
    running so one bad chunk cannot also hang the round after it.
    """
    while True:
        try:
            msg = ctrl_q.get_nowait()
        except _queue.Empty:
            msg = None
        if msg is not None:
            if msg[0] == "stop":
                return
            if msg[0] == "configure":
                spec = msg[1]
                try:
                    configure_worker(spec)
                    result_q.put(("configured", spec["run_id"], worker_index, os.getpid()))
                except Exception:
                    result_q.put(
                        ("error", spec["run_id"], worker_index, traceback.format_exc())
                    )
            continue
        if ctrl_q._reader in wait([ctrl_q._reader, task_q._reader]):
            continue
        try:
            # Another worker may steal the chunk that woke this one; the
            # timeout bounds how long that leaves a control message unread.
            task = task_q.get(timeout=0.05)
        except _queue.Empty:
            continue
        _kind, run_id, position, snapshots, fault_key = task
        if run_id != _RUN_ID:
            continue  # stale task from an abandoned round
        if _FAULTS is not None and _FAULTS.should_kill_task(fault_key):
            _FAULTS.kill_self()  # SIGKILL: no cleanup, no goodbye
        try:
            result = run_chunk(snapshots)
            result_q.put(("result", run_id, position, result))
        except Exception:
            result_q.put(("error", run_id, worker_index, traceback.format_exc()))
