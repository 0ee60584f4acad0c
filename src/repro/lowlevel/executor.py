"""Concolic low-level symbolic execution engine (the S2E stand-in).

The engine executes one LVM state at a time along its concrete path (the
bold line of Fig. 1 in the paper), forking *pending* alternate states at
symbolic branches.  Pending states have no input assignment; they are
activated lazily when a search strategy selects them, at which point the
solver either produces an assignment (a new test input) or proves the
alternate infeasible.

Symbolic memory addresses are handled by bounded forking over feasible
concrete values — the behaviour the paper attributes to low-level engines
("fork the execution state for each possible concrete value", §4.2), which
is what makes un-neutralised hash functions explode.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuestFault
from repro.lowlevel import api
from repro.lowlevel.expr import (
    BINOP_FUNCS,
    UNOP_FUNCS,
    Expr,
    Sym,
    evaluate,
    is_symbolic,
    mk_binop,
    mk_unop,
    negate_condition,
    truth_condition,
)
from repro.lowlevel.machine import Frame, MachineState, Status
from repro.lowlevel.program import Function, Instr, Opcode, Program
from repro.obs.metrics import MetricsRegistry, counter_property
from repro.obs.telemetry import Telemetry
from repro.solver.backend import SolverBackend
from repro.solver.constraints import ConstraintSet
from repro.solver.csp import make_default_solver

_MAX_SHIFT = 512

#: Binary operators that can fault on concrete operands.  The block
#: decoder leaves them to the stepper, so a fault lands on an exact
#: instruction count.
_FAULTING = frozenset(("div", "mod", "shl", "shr"))

#: Comparison operators a compare fused with its BR runs as a C-level
#: compare instead of the Python lambda in :data:`BINOP_FUNCS` (it
#: stores ints, never bools).
_COMPARES = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

#: Opcodes that end a block (they set the pc or leave the frame).
_TRANSFERS = frozenset(
    (Opcode.JMP, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HYPER)
)

#: Terminal statuses that represent exploration artifacts rather than
#: guest behaviours (unsat alternates, solver timeouts, deadline cuts).
#: Higher layers — the Chef test-case hooks, the session event bus —
#: filter these up front so discarded paths cost nothing.
DISCARDED_STATUSES = frozenset(
    (Status.ASSUME_FAILED, Status.INFEASIBLE, Status.SOLVER_TIMEOUT, Status.DEADLINE)
)

#: atomic under the GIL — engines are built from concurrent session
#: threads under the service daemon, and a read-increment-write race
#: here would hand two engines the same namespace.
_ENGINE_COUNTER = itertools.count(1)


def fresh_namespace(prefix: str = "e") -> str:
    """Process-unique symbolic-variable namespace (e.g. ``"e3:"``).

    Engines namespace their variables so several (with different input
    domains) can coexist in one process despite the global Sym registry;
    a parallel run pins one namespace across its whole worker pool.
    """
    return f"{prefix}{next(_ENGINE_COUNTER)}:"


def _concrete_bin(op: str, a: int, b: int) -> int:
    """A binary operator on concrete operands, with the LVM's guest faults."""
    if op in ("div", "mod") and b == 0:
        raise GuestFault("division by zero" if op == "div" else "modulo by zero")
    if op in ("shl", "shr") and (b < 0 or b > _MAX_SHIFT):
        raise GuestFault(f"shift amount {b} out of range")
    func = BINOP_FUNCS.get(op)
    if func is None:
        raise GuestFault(f"unknown binary operator {op!r}")
    return func(a, b)


# -- superinstructions ----------------------------------------------------------


def _fast_bin(ins: Instr) -> bool:
    """A BIN whose concrete fast path cannot fault."""
    return ins.op == Opcode.BIN and ins.extra in BINOP_FUNCS and ins.extra not in _FAULTING


def _superinstruction(instrs: List[Instr], pc: int):
    """``(run, width, ends_block)`` of the fused shape at ``pc``, or None.

    With ``k`` a ``CONST`` of an int that the next ``BIN`` reads as ``b``,
    the shapes are the LINE sequence (as one transfer), ``[k;] BIN cmp;
    BR``, ``[k;] BIN add; LOAD`` and ``k; BIN``.  A fused op writes every
    register and word its instructions write, in their order.  Only its
    ``BIN`` can miss the fast path, and then it returns the ``BIN``'s pc
    with the ``CONST`` before it done, so the stepper resumes there.
    """
    first = instrs[pc]
    k = None
    if first.op == Opcode.CONST and type(first.a) is int:
        line_op = _line_op(instrs[pc:pc + 5], pc + 5)
        if line_op is not None:
            return line_op, 5, True
        k = first
        pc += 1
        if pc == len(instrs) or not _fast_bin(instrs[pc]) or instrs[pc].b != k.dst:
            return None
    elif not _fast_bin(first):
        return None
    bin_ = instrs[pc]
    width = 1 if k is None else 2
    if pc + 1 < len(instrs) and instrs[pc + 1].a == bin_.dst:
        nxt = instrs[pc + 1]
        if nxt.op == Opcode.BR and bin_.extra in _COMPARES:
            return _cmp_br_op(k, bin_, nxt, pc), width + 1, True
        if nxt.op == Opcode.LOAD and bin_.extra == "add":
            return _add_load_op(k, bin_, nxt, pc), width + 1, False
    if k is None:
        return None
    return _const_bin_op(k, bin_, pc), 2, False


def _line_op(window: List[Instr], next_pc: int):
    """``CONST line; CONST kind; CONST addr; STORE [addr] <- line;
    HYPER log_pc(line, kind)`` as one transfer, if ``window`` is that."""
    if len(window) < 5:
        return None
    line, kind, addr, store, hyper = window
    if not (
        kind.op == addr.op == Opcode.CONST
        and type(kind.a) is int and type(addr.a) is int
        and len({line.dst, kind.dst, addr.dst}) == 3
        and store.op == Opcode.STORE and (store.a, store.b) == (addr.dst, line.dst)
        and hyper.op == Opcode.HYPER and hyper.extra == api.LOG_PC
        and list(hyper.args or ()) == [line.dst, kind.dst]
    ):
        return None

    def line_op(state, frame, regs, engine, ld=line.dst, lv=line.a, kd=kind.dst,
                kv=kind.a, ad=addr.dst, av=addr.a, dst=hyper.dst, next_pc=next_pc):
        regs[ld] = lv
        regs[kd] = kv
        regs[ad] = av
        state.machine.memory[av] = lv
        frame.pc = next_pc
        engine._log_pc(state, lv, kv)
        if dst is not None:
            regs[dst] = 0
    return line_op


def _const_bin_op(k: Instr, ins: Instr, pc: int):
    def const_bin(regs, memory, kd=k.dst, k=k.a, dst=ins.dst, a=ins.a, pc=pc,
                  binop=BINOP_FUNCS[ins.extra]):
        regs[kd] = k
        va = regs[a]
        if type(va) is not int:
            return pc
        regs[dst] = binop(va, k)
    return const_bin


def _add_load_op(k: Optional[Instr], add: Instr, load: Instr, pc: int):
    if k is None:
        def add_load(regs, memory, t=add.dst, a=add.a, b=add.b, dst=load.dst, pc=pc):
            va = regs[a]
            vb = regs[b]
            if type(va) is not int or type(vb) is not int:
                return pc
            addr = regs[t] = va + vb
            regs[dst] = memory.get(addr, 0)
        return add_load

    def const_add_load(regs, memory, kd=k.dst, k=k.a, t=add.dst, a=add.a,
                       dst=load.dst, pc=pc):
        regs[kd] = k
        va = regs[a]
        if type(va) is not int:
            return pc
        addr = regs[t] = va + k
        regs[dst] = memory.get(addr, 0)
    return const_add_load


def _cmp_br_op(k: Optional[Instr], cmp: Instr, br: Instr, pc: int):
    compare = _COMPARES[cmp.extra]
    if k is None:
        def cmp_br(state, frame, regs, engine, dst=cmp.dst, a=cmp.a, b=cmp.b, pc=pc,
                   on_true=br.b, on_false=br.extra, compare=compare):
            va = regs[a]
            vb = regs[b]
            if type(va) is not int or type(vb) is not int:
                return pc
            cond = regs[dst] = 1 if compare(va, vb) else 0
            frame.pc = on_true if cond else on_false
        return cmp_br

    def const_cmp_br(state, frame, regs, engine, kd=k.dst, k=k.a, dst=cmp.dst,
                     a=cmp.a, pc=pc, on_true=br.b, on_false=br.extra, compare=compare):
        regs[kd] = k
        va = regs[a]
        if type(va) is not int:
            return pc
        cond = regs[dst] = 1 if compare(va, k) else 0
        frame.pc = on_true if cond else on_false
    return const_cmp_br


@dataclass
class PathEvent:
    """A high-level event reported by the guest (EVENT hypercall)."""

    kind: int
    a: int
    b: int


@dataclass
class ExecutorConfig:
    """Tunables of the low-level engine."""

    #: per-path executed-instruction budget (the paper's hang detector uses
    #: a 60 s wall-clock bound; we use a deterministic instruction bound).
    max_instrs_per_path: int = 2_000_000
    #: bounded fan-out when dereferencing a symbolic pointer.
    symptr_fork_limit: int = 3
    #: solver step budget for each symbolic-pointer enumeration probe.
    symptr_solver_budget: int = 2_000
    #: cap on upper_bound results for unbounded expressions.
    upper_bound_cap: int = 1 << 20
    #: optional wall-clock deadline (time.monotonic()); paths running past
    #: it stop with Status.DEADLINE and are not turned into test cases.
    deadline: Optional[float] = None
    #: policy for pending states whose feasibility check returns unknown
    #: (solver deadline/budget): "prune" discards the state, "feasible"
    #: optimistically activates it under its seed assignment — the seed
    #: satisfied every constraint up to the last fork, so the replayed
    #: prefix is real even if the final branch is unproven.
    unknown_policy: str = "prune"


class State:
    """One symbolic execution state (machine + path condition + input)."""

    __slots__ = (
        "sid", "machine", "path_condition", "assignment", "seed_assignment",
        "pending", "parent_sid", "fork_ll_pc", "fork_group", "fork_index",
        "depth", "instr_count", "hl_instr_count", "events", "debug",
        "sym_buffers", "fault_message", "meta", "_conc_memo",
        "_last_fork_loc", "_consec_forks",
    )

    def __init__(self, sid: int, machine: MachineState):
        self.sid = sid
        self.machine = machine
        self.path_condition: ConstraintSet = ConstraintSet.empty()
        self.assignment: Optional[Dict[str, int]] = {}
        self.seed_assignment: Dict[str, int] = {}
        self.pending = False
        self.parent_sid: Optional[int] = None
        self.fork_ll_pc: Optional[int] = None
        self.fork_group: Optional[Tuple[int, int]] = None
        self.fork_index: int = 0
        self.depth = 0
        self.instr_count = 0
        self.hl_instr_count = 0
        self.events: List[PathEvent] = []
        self.debug: List = []
        #: list of (name_base, addr, length, lo, hi) symbolic buffers.
        self.sym_buffers: List[Tuple[str, int, int, int, int]] = []
        self.fault_message: Optional[str] = None
        #: scratch area for higher layers (Chef attaches HL bookkeeping).
        self.meta: Dict = {}
        self._conc_memo: dict = {}
        self._last_fork_loc: Optional[int] = None
        self._consec_forks = 0

    # -- concrete shadow ----------------------------------------------------

    def conc(self, value) -> int:
        """Concrete value of ``value`` under this state's assignment."""
        if not isinstance(value, Expr):
            return value
        if self.assignment is None:
            raise GuestFault("pending state has no concrete assignment")
        env = self.assignment
        memo = self._conc_memo
        missing = [v for v in value.free_vars() if v.name not in env]
        for var in missing:
            env[var.name] = self.seed_assignment.get(var.name, var.lo)
        return evaluate(value, env, memo)

    @property
    def status(self) -> str:
        if self.pending:
            return Status.PENDING
        return self.machine.status

    def terminated(self) -> bool:
        return self.machine.status in Status.TERMINAL

    def add_constraint(self, atom) -> None:
        if isinstance(atom, Expr):
            self.path_condition = self.path_condition.append(atom)
            # Concolic invariant: every atom this state adds holds under
            # its own concrete assignment (conc() filled in the atom's
            # variables while deciding which way to go), so the extended
            # set is satisfiable by construction — record the model so
            # the solver can answer sibling/descendant queries
            # incrementally instead of re-solving the whole chain.
            if self.assignment is not None:
                self.path_condition.note_model(self.assignment)

    def input_values(self) -> Dict[str, List[int]]:
        """Concrete content of every symbolic buffer (the test case).

        Keys are the display names ("b0", "b1", ... in creation order);
        the engine-unique namespace prefix is stripped.
        """
        result: Dict[str, List[int]] = {}
        for base, _addr, length, lo, _hi in self.sym_buffers:
            values = []
            for i in range(length):
                name = f"{base}_{i}"
                if self.assignment is not None and name in self.assignment:
                    values.append(self.assignment[name])
                else:
                    values.append(self.seed_assignment.get(name, lo))
            result[base.rsplit(":", 1)[-1]] = values
        return result

    def __repr__(self) -> str:
        return (
            f"State(sid={self.sid}, status={self.status}, "
            f"|pc|={len(self.path_condition)}, instrs={self.instr_count})"
        )


#: Counter fields, registered as ``engine.<field>`` in the obs registry.
_ENGINE_STAT_FIELDS = (
    "paths_completed",
    "forks",
    "symptr_forks",
    "instrs_executed",
    "instrs_stepped",
    "blocks_decoded",
    "states_activated",
    "states_infeasible",
    "states_timeout",
    "states_unknown_adopted",
    "events",
)


class EngineStats:
    """Execution counters — an attribute view over ``engine.*`` registry
    counters (see :mod:`repro.obs.metrics`), so the engine, benchmarks
    and ``Session.metrics()`` all read one store."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            field: self.registry.counter(f"engine.{field}")
            for field in _ENGINE_STAT_FIELDS
        }

    def as_dict(self) -> Dict[str, int]:
        return {field: counter.value for field, counter in self._counters.items()}


for _engine_field in _ENGINE_STAT_FIELDS:
    setattr(EngineStats, _engine_field, counter_property(_engine_field))
del _engine_field


class LowLevelEngine:
    """Executes LIR symbolically; higher layers drive path selection."""

    def __init__(
        self,
        program: Program,
        solver: Optional[SolverBackend] = None,
        config: Optional[ExecutorConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if not program.finalized:
            program.finalize()
        self.program = program
        if telemetry is None:
            # Inherit the solver's context when it has one, else a fresh
            # (disabled) private context — metrics always accumulate.
            telemetry = getattr(solver, "telemetry", None) or Telemetry()
        self.telemetry = telemetry
        self.solver: SolverBackend = (
            solver if solver is not None else make_default_solver(telemetry=telemetry)
        )
        # One metrics() view per engine: adopt the registry of a
        # caller-supplied solver.
        solver_registry = getattr(getattr(self.solver, "stats", None), "registry", None)
        if solver_registry is not None:
            telemetry.adopt_registry(solver_registry)
        self.config = config if config is not None else ExecutorConfig()
        self.stats = EngineStats(telemetry.registry)
        self._next_sid = 0
        self.namespace = fresh_namespace()
        # Listener hooks (set by the Chef engine).
        self.on_log_pc: Optional[Callable[[State, int, int], None]] = None
        self.on_fork: Optional[Callable[[State, State], None]] = None
        self.on_path_end: Optional[Callable[[State], None]] = None
        self.on_event: Optional[Callable[[State, PathEvent], None]] = None

    # -- state management ----------------------------------------------------

    def new_state(self) -> State:
        state = State(self._fresh_sid(), MachineState.boot(self.program))
        return state

    def _fresh_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def _fork(self, parent: State, alt_atom, alt_target: Optional[int]) -> State:
        child = State(self._fresh_sid(), parent.machine.fork())
        # Structural sharing: the child's path condition extends the
        # parent's chain in place — no per-fork copying of the prefix.
        child.path_condition = parent.path_condition
        if isinstance(alt_atom, Expr):
            child.path_condition = child.path_condition.append(alt_atom)
        child.assignment = None
        child.seed_assignment = dict(parent.assignment or {})
        child.pending = True
        child.parent_sid = parent.sid
        child.depth = parent.depth + 1
        child.instr_count = parent.instr_count
        child.hl_instr_count = parent.hl_instr_count
        child.events = list(parent.events)
        child.sym_buffers = list(parent.sym_buffers)
        if alt_target is not None:
            child.machine.top.pc = alt_target
        # Fork-weight bookkeeping (§3.4): consecutive forks at one location.
        loc = parent.machine.current_ll_pc()
        child.fork_ll_pc = loc
        if parent._last_fork_loc == loc:
            parent._consec_forks += 1
        else:
            parent._last_fork_loc = loc
            parent._consec_forks = 1
        child.fork_group = (parent.sid, loc)
        child.fork_index = parent._consec_forks
        self.stats.forks += 1
        if self.on_fork:
            self.on_fork(parent, child)
        return child

    def activate(self, state: State) -> str:
        """Give a pending state an input assignment.

        Returns "sat", "unsat" or "timeout"; the state's status is updated
        accordingly.
        """
        if not state.pending:
            return "sat"
        telemetry = self.telemetry
        if telemetry.enabled:
            with telemetry.span(
                "engine.activate", sid=state.sid, atoms=len(state.path_condition)
            ) as span:
                verdict = self._activate_pending(state)
                span.set(verdict=verdict)
            return verdict
        return self._activate_pending(state)

    def _activate_pending(self, state: State) -> str:
        """Feasibility probe + model assignment for a pending state."""
        result = self.solver.check(
            state.path_condition, hint=state.seed_assignment
        )
        if result.is_unknown:
            if self.config.unknown_policy == "feasible":
                # Graceful degradation: adopt the seed assignment and
                # keep exploring rather than losing the whole subtree to
                # one wedged query.
                state.assignment = dict(state.seed_assignment)
                state.pending = False
                state._conc_memo = {}
                self.stats.states_activated += 1
                self.stats.states_unknown_adopted += 1
                return "sat"
            state.pending = False
            state.machine.status = Status.SOLVER_TIMEOUT
            self.stats.states_timeout += 1
            return "timeout"
        if result.is_unsat:
            state.pending = False
            state.machine.status = Status.INFEASIBLE
            self.stats.states_infeasible += 1
            return "unsat"
        assignment = dict(state.seed_assignment)
        assignment.update(result.model)
        state.assignment = assignment
        state.pending = False
        state._conc_memo = {}
        self.stats.states_activated += 1
        return "sat"

    # -- frontier exploration -------------------------------------------------

    def explore(self, max_states: int = 512, workers: int = 1, batch_size: int = 8):
        """Exhaustively explore from boot, optionally across processes.

        ``workers=1`` runs the classic in-process loop — activate/run on
        this engine instance, bit-for-bit identical to driving
        :meth:`run_path` by hand (no snapshotting anywhere on the path).
        ``workers>1`` shards the frontier across a
        :class:`~repro.parallel.coordinator.ParallelExplorer` pool.
        Returns an :class:`~repro.parallel.coordinator.ExploreResult`
        either way; for exhaustive runs the explored path set is
        identical across worker counts.
        """
        if workers > 1:
            from repro.parallel.coordinator import ParallelExplorer, warn_if_custom_backend
            from repro.solver.csp import DEFAULT_BUDGET

            warn_if_custom_backend(self.solver)
            explorer = ParallelExplorer(
                self.program,
                workers=workers,
                config=self.config,
                solver_budget=(
                    budget
                    if (budget := getattr(self.solver, "budget", None)) is not None
                    else DEFAULT_BUDGET
                ),
                batch_size=batch_size,
                telemetry=self.telemetry,
            )
            return explorer.explore(max_states=max_states)

        import time as _time

        from repro.parallel.coordinator import ExploreResult
        from repro.parallel.snapshot import path_record_of

        start_time = _time.monotonic()
        records = []
        state = self.new_state()
        queue = self.run_path(state)
        if state.terminated():
            records.append(path_record_of(state))
        states_run = 1
        while queue and states_run < max_states:
            candidate = queue.pop()
            if self.activate(candidate) != "sat":
                continue
            queue.extend(self.run_path(candidate))
            if candidate.terminated():
                records.append(path_record_of(candidate))
            states_run += 1
        return ExploreResult(
            records=records,
            engine_stats=self.stats.as_dict(),
            solver_stats=self.solver.stats.as_dict() if hasattr(self.solver, "stats") else {},
            workers=1,
            batches=0,
            states_run=states_run,
            pending_left=len(queue),
            wall_time=_time.monotonic() - start_time,
        )

    # -- path execution -------------------------------------------------------

    def run_path(self, state: State, max_instrs: Optional[int] = None) -> List[State]:
        """Run ``state`` along its concrete path until it terminates.

        Returns the pending alternate states forked along the way.
        Instrumented at *batch* granularity — one span per executed
        path, never per instruction, so the dispatch loop itself stays
        untouched and disabled-mode overhead is one branch per path.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._run_path_impl(state, max_instrs)
        start_instrs = state.instr_count
        with telemetry.span("engine.run_path", sid=state.sid) as span:
            pending = self._run_path_impl(state, max_instrs)
            span.set(
                instrs=state.instr_count - start_instrs,
                forks=len(pending),
                status=state.status,
            )
        return pending

    def _run_path_impl(self, state: State, max_instrs: Optional[int]) -> List[State]:
        if state.pending:
            raise GuestFault("cannot run a pending state; activate() it first")
        pending: List[State] = []
        budget = max_instrs if max_instrs is not None else self.config.max_instrs_per_path
        machine = state.machine
        start_instrs = state.instr_count
        try:
            self._exec_loop(state, pending, budget)
        except GuestFault as fault:
            machine.status = Status.FAULT
            state.fault_message = str(fault)
        except ZeroDivisionError:
            machine.status = Status.FAULT
            state.fault_message = "division by zero"
        finally:
            self.stats.instrs_executed += state.instr_count - start_instrs
        if machine.status in Status.TERMINAL:
            self.stats.paths_completed += 1
            if self.on_path_end:
                self.on_path_end(state)
        return pending

    def _exec_loop(self, state: State, pending: List[State], budget: int) -> None:
        """Run ``state`` block by block (see "LVM execution" in the docs).

        A block runs only if it ends by ``stop``: the budget or the next
        4096-instruction deadline poll.  Otherwise, and for the one
        instruction a block bails on, :meth:`_step` takes over, so every
        count, fork and fault is exactly the stepper's.
        """
        machine = state.machine
        frames = machine.frames
        memory = machine.memory
        deadline = self.config.deadline
        func = None
        stop = -1  # set when the first block is checked against it
        while machine.status == Status.RUNNING:
            frame = frames[-1]
            if frame.func is not func:
                func = frame.func
                blocks = func.blocks
            pc = frame.pc
            body, transfer, n = blocks.get(pc) or self._decode_block(func, pc)
            count = state.instr_count
            end = count + n
            if end > stop:
                # ``stop`` may be stale (a poll behind us): recompute it,
                # and step only if the block still does not fit.
                stop = budget if deadline is None else min(budget, -(-count // 4096) * 4096)
                if end > stop:
                    if count >= budget:
                        machine.status = Status.BUDGET_EXCEEDED
                        return
                    if (
                        deadline is not None
                        and count % 4096 == 0
                        and time.monotonic() > deadline
                    ):
                        machine.status = Status.DEADLINE
                        return
                    self._step(state, pending)
                    continue
            state.instr_count = end
            regs = frame.regs
            for run in body:
                bail = run(regs, memory)
                if bail is not None:
                    break
            else:
                bail = transfer(state, frame, regs, self)
                if bail is None:
                    continue
            # Give back the instructions from ``bail`` on, and step it.
            frame.pc = bail
            state.instr_count = count + bail - pc
            self._step(state, pending)

    def _decode_block(self, func: Function, entry: int) -> Tuple[tuple, Callable, int]:
        """Decode the block entered at ``entry``: ``(body, transfer, n)``.

        ``body`` runs straight-line instructions as ``run(regs, memory)``,
        ``transfer(state, frame, regs, engine)`` is the control transfer
        that ends the block, and ``n`` counts both.  A function returns
        the pc of its first instruction not run when its fast path does
        not apply.  The op at a pc, one instruction or a superinstruction,
        is decoded once and shared by every block whose walk reaches it.

        The block is cached in ``func.blocks``, where every engine of the
        process finds it.  Two threads may decode one block at once: the
        results are equal and bind nothing of either engine, so whichever
        lands last serves as well as the other.
        """
        instrs = func.instrs
        ops = func.ops
        if ops is None:
            ops = func.ops = [None] * len(instrs)
        body = []
        pc = entry
        while pc < len(instrs):
            op = ops[pc]
            if op is None:  # a superinstruction, or the one instruction
                op = ops[pc] = _superinstruction(instrs, pc) or (
                    self._decode_instr(instrs[pc], pc), 1, instrs[pc].op in _TRANSFERS
                )
            run, width, ends = op
            pc += width
            if ends:
                transfer = run
                break
            body.append(run)
        else:  # past the end there is nothing to run: the stepper faults
            def transfer(state, frame, regs, engine, end=pc):
                return end
            pc += 1
        block = func.blocks[entry] = (tuple(body), transfer, pc - entry)
        self.stats.blocks_decoded += 1
        return block

    @staticmethod
    def _decode_instr(ins: Instr, pc: int) -> Callable:
        """One instruction as a function (its concrete fast path).

        Operands are bound as default arguments rather than closure
        cells.  That allocates a third of the objects per instruction,
        which matters for cold code: it runs only a few times per decode.
        An op binds nothing of one engine or one program, since every
        program that holds the function shares it: CALL looks its callee
        up in the running program, and HYPER calls the engine it is handed.
        """
        op, dst, a, b, extra = ins.op, ins.dst, ins.a, ins.b, ins.extra
        if op == Opcode.CONST:
            def run(regs, memory, dst=dst, a=a):
                regs[dst] = a
        elif op == Opcode.MOVE:
            def run(regs, memory, dst=dst, a=a):
                regs[dst] = regs[a]
        elif _fast_bin(ins):
            def run(regs, memory, dst=dst, a=a, b=b, pc=pc, binop=BINOP_FUNCS[extra]):
                va = regs[a]
                vb = regs[b]
                if type(va) is not int or type(vb) is not int:
                    return pc
                regs[dst] = binop(va, vb)
        elif op == Opcode.UN:
            def run(regs, memory, dst=dst, a=a, pc=pc,
                    unop=UNOP_FUNCS.get(extra, operator.invert)):
                va = regs[a]
                if type(va) is not int:
                    return pc
                regs[dst] = unop(va)
        elif op == Opcode.LOAD:
            def run(regs, memory, dst=dst, a=a, pc=pc):
                addr = regs[a]
                if type(addr) is not int:
                    return pc
                regs[dst] = memory.get(addr, 0)
        elif op == Opcode.STORE:
            def run(regs, memory, a=a, b=b, pc=pc):
                addr = regs[a]
                if type(addr) is not int:
                    return pc
                memory[addr] = regs[b]
        elif op == Opcode.JMP:
            def run(state, frame, regs, engine, a=a):
                frame.pc = a
        elif op == Opcode.BR:
            def run(state, frame, regs, engine, a=a, b=b, extra=extra, pc=pc):
                cond = regs[a]
                if type(cond) is not int:
                    return pc
                frame.pc = b if cond else extra
        elif op == Opcode.CALL:
            # MachineState.push_frame inline; an undefined callee, a wrong
            # arity or a stack overflow bails.
            def run(state, frame, regs, engine, dst=dst, pc=pc, name=extra,
                    arg_regs=tuple(ins.args or ()),
                    max_depth=MachineState.MAX_CALL_DEPTH):
                machine = state.machine
                callee = machine.program.functions.get(name)
                frames = machine.frames
                if (
                    callee is None
                    or callee.n_params != len(arg_regs)
                    or len(frames) >= max_depth
                ):
                    return pc
                frame.pc = pc + 1
                callee_regs = [0] * callee.n_regs
                for index, reg in enumerate(arg_regs):
                    callee_regs[index] = regs[reg]
                callee_frame = Frame.__new__(Frame)
                callee_frame.func = callee
                callee_frame.pc = 0
                callee_frame.regs = callee_regs
                callee_frame.ret_dst = dst
                frames.append(callee_frame)
        elif op == Opcode.RET:
            # MachineState.pop_frame inline, halting after the entry function.
            def run(state, frame, regs, engine, a=a):
                frames = state.machine.frames
                frames.pop()
                if frames:
                    if frame.ret_dst is not None:
                        frames[-1].regs[frame.ret_dst] = regs[a] if a is not None else 0
                else:
                    state.machine.status = Status.HALTED
                    state.machine.halt_code = 0
        elif op == Opcode.HYPER:
            def run(state, frame, regs, engine, dst=dst, next_pc=pc + 1, extra=extra,
                    arg_regs=ins.args or ()):
                frame.pc = next_pc
                result = engine._hypercall(state, extra, [regs[r] for r in arg_regs])
                if dst is not None:
                    regs[dst] = result if result is not None else 0
        else:  # faulting or unknown operators: always the stepper
            def run(*_args, pc=pc):
                return pc
        return run

    def _step(self, state: State, pending: List[State]) -> None:
        """Execute one instruction, symbolic operands and faults included."""
        machine = state.machine
        conc = state.conc
        frame = machine.frames[-1]
        instrs = frame.func.instrs
        if frame.pc >= len(instrs):
            raise GuestFault(
                f"fell off the end of {frame.func.name!r} at pc {frame.pc}"
            )
        ins = instrs[frame.pc]
        op = ins.op
        regs = frame.regs
        state.instr_count += 1
        self.stats.instrs_stepped += 1

        if op == Opcode.BIN:
            va = regs[ins.a]
            vb = regs[ins.b]
            if type(va) is int and type(vb) is int:
                regs[ins.dst] = _concrete_bin(ins.extra, va, vb)
            else:
                regs[ins.dst] = self._symbolic_bin(state, ins.extra, va, vb)
            frame.pc += 1
        elif op == Opcode.CONST:
            regs[ins.dst] = ins.a
            frame.pc += 1
        elif op == Opcode.MOVE:
            regs[ins.dst] = regs[ins.a]
            frame.pc += 1
        elif op == Opcode.LOAD:
            addr = self._resolve_address(state, regs[ins.a], pending)
            regs[ins.dst] = machine.mem_read(addr)
            frame.pc += 1
        elif op == Opcode.STORE:
            addr = self._resolve_address(state, regs[ins.a], pending)
            machine.mem_write(addr, regs[ins.b])
            frame.pc += 1
        elif op == Opcode.BR:
            cond = regs[ins.a]
            if type(cond) is int:
                frame.pc = ins.b if cond else ins.extra
            else:
                conc_cond = conc(cond)
                if conc_cond:
                    taken, alt = ins.b, ins.extra
                    atom = truth_condition(cond)
                    alt_atom = negate_condition(cond)
                else:
                    taken, alt = ins.extra, ins.b
                    atom = negate_condition(cond)
                    alt_atom = truth_condition(cond)
                if isinstance(alt_atom, Expr):
                    pending.append(self._fork(state, alt_atom, alt))
                state.add_constraint(atom)
                frame.pc = taken
        elif op == Opcode.JMP:
            frame.pc = ins.a
        elif op == Opcode.CALL:
            func = self.program.get_function(ins.extra)
            args = [regs[r] for r in ins.args or ()]
            frame.pc += 1
            machine.push_frame(func, args, ins.dst)
        elif op == Opcode.RET:
            value = regs[ins.a] if ins.a is not None else 0
            machine.pop_frame(value)
        elif op == Opcode.UN:
            va = regs[ins.a]
            if type(va) is int:
                regs[ins.dst] = UNOP_FUNCS.get(ins.extra, operator.invert)(va)
            else:
                regs[ins.dst] = mk_unop(ins.extra, va)
            frame.pc += 1
        elif op == Opcode.HYPER:
            args = [regs[r] for r in ins.args or ()]
            frame.pc += 1
            result = self._hypercall(state, ins.extra, args)
            if ins.dst is not None:
                regs[ins.dst] = result if result is not None else 0
        else:  # pragma: no cover - all opcodes covered
            raise GuestFault(f"unknown opcode {op}")

    # -- operators -------------------------------------------------------------

    def _symbolic_bin(self, state: State, op: str, va, vb):
        if op in ("div", "mod"):
            if is_symbolic(vb):
                conc_b = state.conc(vb)
                if conc_b == 0:
                    raise GuestFault(f"symbolic {op} by zero on this path")
                # Constrain the divisor away from zero on this path; the
                # zero-divisor path is dropped (documented deviation).
                state.add_constraint(mk_binop("ne", vb, 0))
            elif vb == 0:
                raise GuestFault(f"{op} by zero")
        if op in ("shl", "shr") and is_symbolic(vb):
            conc_b = state.conc(vb)
            state.add_constraint(mk_binop("eq", vb, conc_b))
            vb = conc_b
        if op in ("shl", "shr") and (vb < 0 or vb > _MAX_SHIFT):
            raise GuestFault(f"shift amount {vb} out of range")
        return mk_binop(op, va, vb)

    # -- symbolic pointers -------------------------------------------------------

    def _resolve_address(self, state: State, addr_val, pending: List[State]):
        if type(addr_val) is int:
            return addr_val
        conc_addr = state.conc(addr_val)
        # Bounded enumeration of alternative targets (§4.2).
        known = [conc_addr]
        for _ in range(self.config.symptr_fork_limit):
            probe = state.path_condition.extend(
                mk_binop("ne", addr_val, v) for v in known
            )
            result = self.solver.check(
                probe,
                hint=state.assignment,
                budget=self.config.symptr_solver_budget,
            )
            if not result.is_sat:
                break
            env = dict(state.seed_assignment)
            env.update(result.model)
            other = evaluate(addr_val, env)
            child = self._fork(state, mk_binop("eq", addr_val, other), None)
            pending.append(child)
            self.stats.symptr_forks += 1
            known.append(other)
        state.add_constraint(mk_binop("eq", addr_val, conc_addr))
        return conc_addr

    # -- hypercalls ---------------------------------------------------------------

    def _hypercall(self, state: State, name: str, args: List):
        if name == api.LOG_PC:
            self._log_pc(
                state, state.conc(args[0]), state.conc(args[1]) if len(args) > 1 else 0
            )
            return 0
        if name == api.MAKE_SYMBOLIC:
            return self._make_symbolic(state, args)
        if name == api.IS_SYMBOLIC:
            return int(any(is_symbolic(a) for a in args))
        if name == api.CONCRETIZE:
            value = args[0]
            if not is_symbolic(value):
                return value
            conc = state.conc(value)
            state.add_constraint(mk_binop("eq", value, conc))
            return conc
        if name == api.UPPER_BOUND:
            return self._upper_bound(state, args[0])
        if name == api.ASSUME:
            cond = args[0]
            if not is_symbolic(cond):
                if cond == 0:
                    state.machine.status = Status.ASSUME_FAILED
                return 0
            if state.conc(cond) == 0:
                state.machine.status = Status.ASSUME_FAILED
                return 0
            state.add_constraint(truth_condition(cond))
            return 0
        if name == api.START_SYMBOLIC:
            state.meta["symbolic_started"] = True
            return 0
        if name == api.END_SYMBOLIC:
            state.machine.status = Status.HALTED
            state.machine.halt_code = state.conc(args[0]) if args else 0
            return 0
        if name == api.OUT:
            state.machine.output.append(state.conc(args[0]))
            return 0
        if name == api.EVENT:
            event = PathEvent(
                kind=state.conc(args[0]),
                a=state.conc(args[1]) if len(args) > 1 else 0,
                b=state.conc(args[2]) if len(args) > 2 else 0,
            )
            state.events.append(event)
            self.stats.events += 1
            if self.on_event:
                self.on_event(state, event)
            return 0
        if name == api.ABORT:
            code = state.conc(args[0]) if args else 1
            state.machine.status = Status.FAULT
            state.machine.halt_code = code
            state.fault_message = f"guest abort({code})"
            return 0
        if name == api.TRACE:
            state.debug.append(args[0] if args else None)
            return 0
        raise GuestFault(f"unknown hypercall {name!r}")

    def _log_pc(self, state: State, pc: int, opcode: int) -> None:
        state.hl_instr_count += 1
        if self.on_log_pc:
            self.on_log_pc(state, pc, opcode)

    def _make_symbolic(self, state: State, args: List) -> int:
        addr = state.conc(args[0])
        length = state.conc(args[1])
        lo = state.conc(args[2]) if len(args) > 2 else 0
        hi = state.conc(args[3]) if len(args) > 3 else 255
        base = f"{self.namespace}b{len(state.sym_buffers)}"
        state.sym_buffers.append((base, addr, length, lo, hi))
        for i in range(length):
            name = f"{base}_{i}"
            var = Sym(name, lo, hi)
            seed = state.conc(state.machine.mem_read(addr + i))
            seed = min(max(seed, lo), hi)
            if state.assignment is not None:
                state.assignment[name] = seed
            state.seed_assignment[name] = seed
            state.machine.mem_write(addr + i, var)
        return addr

    def _upper_bound(self, state: State, value) -> int:
        """Concrete upper bound of a symbolic value on this path (Fig. 6).

        A sound *over*-approximation suffices for allocation sizing, so we
        use interval analysis over the input domains instead of an exact
        optimisation query (which profiling showed dominates runtime).
        """
        if not is_symbolic(value):
            return value
        from repro.solver.interval import interval_eval

        domains = {v.name: (v.lo, v.hi) for v in value.free_vars()}
        bound = interval_eval(value, domains).hi
        if bound is None:
            return self.config.upper_bound_cap
        conc = state.conc(value)
        return max(min(bound, self.config.upper_bound_cap), conc)
