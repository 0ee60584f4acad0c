"""Portable state snapshots: ship execution states between processes.

A :class:`StateSnapshot` is everything a worker needs to resume a state
except the (immutable, shipped-once) :class:`~repro.lowlevel.program.Program`:
frames by function *name*, memory as a compact delta against the
program's static data, the path condition split KLEE-style into
(prefix atoms, nearest known model, suffix atoms), and the concolic
assignment/seed bookkeeping.  ``restore_state`` rebuilds a live
:class:`~repro.lowlevel.executor.State` against the receiving process's
copy of the program.

Snapshots are encoded in *batches*: :func:`snapshot_states` flattens the
expressions of a whole chunk of states — register values, memory deltas
**and path-condition atoms** — through one shared
:func:`~repro.lowlevel.expr.flatten_values` call.  Sibling states share
their constraint-set prefix by construction (share-structure chains), so
the batch encodes each shared atom once instead of once per state; on
the receiving side a :class:`SnapshotDecoder` rebuilds the shared table
once per chunk and rebuilds shared constraint prefixes into shared
chain nodes, restoring the sibling structure a serial run would have.

High-level trace bookkeeping rides in ``meta``: ``hl_suffix`` is the
(hlpc, opcode) stream *since this state was last restored* (not since
boot), and ``tree_node`` is the coordinator-stamped high-level tree node
of the restore point — together they are what makes pending
classification O(suffix) instead of O(path-depth).

:func:`path_record_of` condenses a terminated state into the
coordinator-facing :class:`~repro.parallel.coordinator.PathRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lowlevel.expr import (
    Expr,
    fingerprint,
    flatten_values,
    rebuild_values_cached,
)
from repro.lowlevel.machine import Frame, MachineState, Status
from repro.lowlevel.program import Program
from repro.solver.constraints import ConstraintSet


@dataclass
class StateSnapshot:
    """Picklable image of one execution state (program shipped separately)."""

    frames: Tuple[Tuple[str, int, Tuple, Optional[int]], ...]
    mem_changed: Dict
    mem_deleted: Tuple
    status: str
    halt_code: Optional[int]
    output: Tuple
    #: path condition, split at the nearest known model: prefix atoms
    #: (satisfied by ``pc_model``), the model, and the atoms appended
    #: since.  Entries are ints or ``("x", i)`` markers into the shared
    #: expression table.
    pc_prefix: Tuple
    pc_model: Optional[Dict[str, int]]
    pc_suffix: Tuple
    assignment: Optional[Dict[str, int]]
    seed_assignment: Dict[str, int]
    pending: bool
    fork_ll_pc: Optional[int]
    fork_group: Optional[Tuple]
    fork_index: int
    depth: int
    instr_count: int
    hl_instr_count: int
    events: Tuple[Tuple[int, int, int], ...]
    sym_buffers: Tuple[Tuple[str, int, int, int, int], ...]
    meta: Dict
    #: shared flat encoding of every Expr in frames/mem_changed/path
    #: condition (one :func:`flatten_values` call per *batch*, so
    #: subgraphs shared between values and between sibling states are
    #: emitted once); values reference it as ``("x", i)`` markers.
    #: Sibling snapshots from one batch share these tuples by reference.
    expr_instrs: Tuple = ()
    expr_refs: Tuple = ()


def snapshot_states(states) -> List[StateSnapshot]:
    """Encode a batch of states into snapshots sharing one expression table.

    Memory ships as its delta against the program's static data, found
    in one pass over the state's flat word dict.  Every expression in the
    batch — register values, memory deltas and path-condition atoms —
    goes through one shared :func:`flatten_values` call, so structure
    shared between values *and between sibling states* (common
    constraint-set prefixes, loop-accumulator spines) is emitted once for
    the whole batch.
    """
    exprs: list = []
    indexes: Dict[int, int] = {}

    def encode(v):
        if not isinstance(v, Expr):
            return v
        idx = indexes.get(id(v))
        if idx is None:
            idx = indexes[id(v)] = len(exprs)
            exprs.append(v)
        return ("x", idx)

    prepared = []
    for state in states:
        machine = state.machine
        changed, deleted = _memory_delta(machine.memory, machine.program.static_data)
        frames = tuple(
            (f.func.name, f.pc, tuple(encode(r) for r in f.regs), f.ret_dst)
            for f in machine.frames
        )
        changed = {key: encode(value) for key, value in changed.items()}
        model, prefix, suffix = state.path_condition.split_at_model()
        prepared.append(
            (
                state,
                frames,
                changed,
                deleted,
                tuple(encode(a) for a in prefix),
                None if model is None else dict(model),
                tuple(encode(a) for a in suffix),
            )
        )
    instrs, refs = flatten_values(exprs)
    return [
        StateSnapshot(
            frames=frames,
            mem_changed=changed,
            mem_deleted=deleted,
            status=state.machine.status,
            halt_code=state.machine.halt_code,
            output=tuple(state.machine.output),
            pc_prefix=pc_prefix,
            pc_model=pc_model,
            pc_suffix=pc_suffix,
            assignment=None if state.assignment is None else dict(state.assignment),
            seed_assignment=dict(state.seed_assignment),
            pending=state.pending,
            fork_ll_pc=state.fork_ll_pc,
            fork_group=state.fork_group,
            fork_index=state.fork_index,
            depth=state.depth,
            instr_count=state.instr_count,
            hl_instr_count=state.hl_instr_count,
            events=tuple((e.kind, e.a, e.b) for e in state.events),
            sym_buffers=tuple(state.sym_buffers),
            meta=_portable_meta(state.meta),
            expr_instrs=instrs,
            expr_refs=refs,
        )
        for state, frames, changed, deleted, pc_prefix, pc_model, pc_suffix in prepared
    ]


def _memory_delta(memory: Dict, static: Dict) -> Tuple[Dict, Tuple]:
    """``(changed, deleted)`` such that ``static`` + delta == ``memory``."""
    absent = object()
    changed = {
        key: value for key, value in memory.items() if static.get(key, absent) != value
    }
    deleted = tuple(key for key in static if key not in memory)
    return changed, deleted


def snapshot_state(state) -> StateSnapshot:
    """Encode one state (a batch of one); see :func:`snapshot_states`."""
    return snapshot_states([state])[0]


def boot_snapshot(program: Program) -> StateSnapshot:
    """Snapshot of a freshly booted (never executed) state."""
    entry = program.get_function(program.entry)
    return StateSnapshot(
        frames=((entry.name, 0, (0,) * entry.n_regs, None),),
        mem_changed={},
        mem_deleted=(),
        status=Status.RUNNING,
        halt_code=None,
        output=(),
        pc_prefix=(),
        pc_model=None,
        pc_suffix=(),
        assignment={},
        seed_assignment={},
        pending=False,
        fork_ll_pc=None,
        fork_group=None,
        fork_index=0,
        depth=0,
        instr_count=0,
        hl_instr_count=0,
        events=(),
        sym_buffers=(),
        meta={},
    )


class SnapshotDecoder:
    """Per-chunk decode context: shared tables rebuild once, not per state.

    ``values`` memoizes :func:`rebuild_values_cached` per shared
    instruction table; ``prefixes`` memoizes restored constraint-set
    *prefix chains* keyed by (encoded atoms, model items), so sibling
    states restored in one chunk share the same prefix node — the same
    structure they had in the sending process, which keeps
    ``note_model`` reuse flowing between siblings worker-side.
    """

    __slots__ = ("values", "prefixes")

    def __init__(self):
        self.values: Dict[int, list] = {}
        self.prefixes: Dict[Tuple, ConstraintSet] = {}


def restore_state(snap: StateSnapshot, program: Program, sid: int, *, decoder: Optional[SnapshotDecoder] = None):
    """Rebuild a live :class:`State` from a snapshot in this process.

    Pass one :class:`SnapshotDecoder` across the states of a batch to
    rebuild their shared expression table (and shared constraint-set
    prefixes) once instead of once per state.
    """
    from repro.lowlevel.executor import PathEvent, State

    values = rebuild_values_cached(
        snap.expr_instrs, decoder.values if decoder is not None else None
    )
    refs = snap.expr_refs

    def decode(v):
        if type(v) is tuple and len(v) == 2 and v[0] == "x":
            return values[refs[v[1]]]
        return v

    machine = MachineState.__new__(MachineState)
    machine.program = program
    machine.frames = []
    for name, pc, regs, ret_dst in snap.frames:
        frame = Frame.__new__(Frame)
        frame.func = program.get_function(name)
        frame.pc = pc
        frame.regs = [decode(r) for r in regs]
        frame.ret_dst = ret_dst
        machine.frames.append(frame)
    memory = dict(program.static_data)
    for key in snap.mem_deleted:
        del memory[key]
    for key, value in snap.mem_changed.items():
        memory[key] = decode(value)
    machine.memory = memory
    machine.status = snap.status
    machine.halt_code = snap.halt_code
    machine.output = list(snap.output)

    state = State(sid, machine)
    state.path_condition = _restore_constraints(snap, decode, decoder)
    state.assignment = None if snap.assignment is None else dict(snap.assignment)
    state.seed_assignment = dict(snap.seed_assignment)
    state.pending = snap.pending
    state.fork_ll_pc = snap.fork_ll_pc
    state.fork_group = snap.fork_group
    state.fork_index = snap.fork_index
    state.depth = snap.depth
    state.instr_count = snap.instr_count
    state.hl_instr_count = snap.hl_instr_count
    state.events = [PathEvent(kind=k, a=a, b=b) for k, a, b in snap.events]
    state.sym_buffers = list(snap.sym_buffers)
    meta = dict(snap.meta)
    if "hl_suffix" in meta or "tree_node" in meta:
        # High-level tracing is on: this restore point becomes the new
        # suffix anchor.  The record/classification consumers need the
        # anchor's tree node and the (hlpc, opcode) just before the
        # suffix starts (for the first CFG edge of the new segment).
        meta["hl_suffix"] = []
        meta["start_node"] = meta.get("tree_node", 0)
        meta["suffix_prev"] = (meta.get("static_hlpc"), meta.get("hl_opcode"))
    state.meta = meta
    return state


def _restore_constraints(snap: StateSnapshot, decode, decoder: Optional[SnapshotDecoder]) -> ConstraintSet:
    """Rebuild the path condition; prefix chains shared across a batch."""
    if decoder is not None and snap.pc_prefix:
        key = (
            snap.pc_prefix,
            None
            if snap.pc_model is None
            else tuple(sorted(snap.pc_model.items())),
        )
        prefix = decoder.prefixes.get(key)
        if prefix is None:
            prefix = ConstraintSet.from_atoms(decode(a) for a in snap.pc_prefix)
            if snap.pc_model is not None:
                prefix.note_model(dict(snap.pc_model))
            decoder.prefixes[key] = prefix
    else:
        prefix = ConstraintSet.from_atoms(decode(a) for a in snap.pc_prefix)
        if snap.pc_model is not None and snap.pc_prefix:
            prefix.note_model(dict(snap.pc_model))
    return prefix.extend(decode(a) for a in snap.pc_suffix)


def _portable_meta(meta: Dict) -> Dict:
    """Copy the scratch meta dict, materialising the HLPC suffix."""
    out = dict(meta)
    suffix = out.get("hl_suffix")
    if suffix is not None:
        out["hl_suffix"] = tuple(suffix)
    # Restore-time bookkeeping of *this* process — recomputed by the
    # receiver; meaningless (start_node/suffix_prev) or coordinator-local
    # (dyn_node) across the wire.
    out.pop("dyn_node", None)
    out.pop("start_node", None)
    out.pop("suffix_prev", None)
    return out


def path_record_of(state):
    """Condense a terminated state into a :class:`PathRecord`."""
    from repro.parallel.coordinator import PathRecord

    meta = state.meta
    start_hlpc, start_opcode = meta.get("suffix_prev", (None, None))
    return PathRecord(
        status=state.machine.status,
        halt_code=state.machine.halt_code,
        fault_message=state.fault_message,
        inputs=tuple(
            (name, tuple(values)) for name, values in sorted(state.input_values().items())
        ),
        output=tuple(state.machine.output),
        events=tuple((e.kind, e.a, e.b) for e in state.events),
        instr_count=state.instr_count,
        hl_instr_count=state.hl_instr_count,
        depth=state.depth,
        path_key=tuple(
            fingerprint(a) for a in state.path_condition.atoms() if isinstance(a, Expr)
        ),
        start_node=meta.get("start_node", 0),
        start_hlpc=start_hlpc,
        start_opcode=start_opcode,
        hl_suffix=tuple(meta.get("hl_suffix", ())),
        hl_sig=meta.get("hl_sig", 0),
        path_constraints=state.path_condition,
    )
