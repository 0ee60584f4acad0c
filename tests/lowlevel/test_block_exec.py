"""Exactness oracle for the block-decoded LVM executor.

``run_path`` runs straight-line code as pre-decoded blocks and falls
back to the one-instruction stepper (``LowLevelEngine._step``) whenever
a block's fast path does not apply.  Whatever the mix, a path must end
exactly as if the stepper had run every instruction: same status, fault,
instruction count, output, memory, and the same pending children forked
at the same pc and count under the same path condition.

The reference below drives the stepper in the executor's original
per-instruction loop (budget check, then a deadline poll every 4096
instructions, then one step).  Hypothesis generates small LVM programs
that mix every opcode with symbolic bytes, forks, symbolic pointers,
concrete division by zero, out-of-range shifts, calls with the wrong
argument count, returns without a value and call-stack overflow.  It is
biased towards the shapes the block decoder fuses into superinstructions
(a ``CONST`` feeding a ``BIN``, a load at an offset, a compare with its
``BR`` and the PyLite ``LINE`` sequence), with concrete and symbolic
operands; a jump may land inside any of them.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GuestFault
from repro.lowlevel import api
from repro.lowlevel.executor import ExecutorConfig, LowLevelEngine
from repro.lowlevel.machine import Status
from repro.lowlevel.program import Function, Instr, Opcode, Program

#: symbolic input buffer of every generated program (two bytes).
_BUF = 100
_REGS = 6
_BINOPS = ("add", "sub", "mul", "and", "or", "xor", "eq", "ne", "lt", "le",
           "gt", "ge", "land", "lor", "div", "mod", "shl", "shr")
_UNOPS = ("neg", "lnot", "bnot")
#: per-path cap for generated programs: backward jumps loop until it,
#: and it leaves room for the 256 calls of a stack overflow.
_CAP = 320

_reg = st.integers(0, _REGS - 1)
#: an operand that is register 2, the symbolic byte, half the time.
_operand = st.one_of(st.just(2), _reg)
_COMPARE_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
#: the word a LINE sequence stores its line number in (PyLite's LINE_ADDR).
_LINE_ADDR = 1


def _body_instr(n_body: int):
    """One random main-body item; jump targets are offsets past the prologue."""
    target = st.integers(0, n_body)
    return st.one_of(
        st.builds(lambda d, v: ("const", d, v), _reg, st.integers(-3, 9)),
        st.builds(lambda d, a: ("move", d, a), _reg, _reg),
        st.builds(lambda o, d, a, b: ("bin", o, d, a, b),
                  st.sampled_from(_BINOPS), _reg, _reg, _reg),
        st.builds(lambda o, d, a: ("un", o, d, a), st.sampled_from(_UNOPS), _reg, _reg),
        st.builds(lambda d, a: ("load", d, a), _reg, _reg),
        st.builds(lambda a, b: ("store", a, b), _reg, _reg),
        st.builds(lambda t: ("jmp", t), target),
        st.builds(lambda c, t, f: ("br", c, t, f), _reg, target, target),
        st.builds(lambda d, a: ("call", d, a), _reg, _reg),
        # helper takes one argument: two must fault where the stepper does
        st.builds(lambda d, a, b: ("bad_arity", d, a, b), _reg, _reg, _reg),
        st.builds(lambda d, a: ("call_void", d, a), _reg, _reg),
        st.builds(lambda a: ("recurse", a), _reg),
        st.builds(lambda a: ("out", a), _reg),
        # a divisor of 0 or a shift of 600 (faults unless jumped over)
        st.builds(lambda o, d, a: ("fault", o, d, a),
                  st.sampled_from(("div", "mod", "shl", "shr")), _reg, _reg),
        # superinstruction shapes; k is the CONST's register and value
        st.builds(lambda o, d, a, k, v: ("const_bin", o, d, a, k, v),
                  st.sampled_from(_BINOPS), _reg, _operand, _reg,
                  st.integers(-3, 9)),
        st.builds(lambda fed, t, d, a, k, v: ("add_load", fed, t, d, a, k, v),
                  st.booleans(), _reg, _reg, _operand, _reg, st.integers(0, 1)),
        st.builds(lambda fed, o, c, a, k, v, t, f: ("cmp_br", fed, o, c, a, k, v, t, f),
                  st.booleans(), st.sampled_from(_COMPARE_OPS), _reg, _operand,
                  _reg, st.integers(-3, 9), target, target),
        st.builds(lambda r, line, kind: ("line", r, line, kind),
                  st.permutations(range(_REGS)), st.integers(1, 40),
                  st.integers(1, 11)),
    )


def _prologue():
    """Symbolic bytes at ``_BUF``; r0 = their address, r2 = the first."""
    return [
        Instr(Opcode.CONST, dst=0, a=_BUF),
        Instr(Opcode.CONST, dst=1, a=2),
        Instr(Opcode.HYPER, dst=None, extra=api.MAKE_SYMBOLIC, args=[0, 1]),
        Instr(Opcode.LOAD, dst=2, a=0),
        Instr(Opcode.CONST, dst=3, a=0),
        Instr(Opcode.CONST, dst=4, a=3),
        Instr(Opcode.CONST, dst=5, a=_BUF + 1),
    ]


@st.composite
def programs(draw) -> Program:
    n_body = draw(st.integers(3, 16))
    body = draw(st.lists(_body_instr(n_body), min_size=n_body, max_size=n_body))
    prologue = _prologue()
    base = len(prologue)
    instrs = list(prologue)

    def emit(op, **fields):
        instrs.append(Instr(op, **fields))

    for kind, *ops in body:
        if kind == "const":
            emit(Opcode.CONST, dst=ops[0], a=ops[1])
        elif kind == "move":
            emit(Opcode.MOVE, dst=ops[0], a=ops[1])
        elif kind == "bin":
            emit(Opcode.BIN, extra=ops[0], dst=ops[1], a=ops[2], b=ops[3])
        elif kind == "un":
            emit(Opcode.UN, extra=ops[0], dst=ops[1], a=ops[2])
        elif kind == "load":
            emit(Opcode.LOAD, dst=ops[0], a=ops[1])
        elif kind == "store":
            emit(Opcode.STORE, a=ops[0], b=ops[1])
        elif kind == "jmp":
            emit(Opcode.JMP, a=base + ops[0])
        elif kind == "br":
            emit(Opcode.BR, a=ops[0], b=base + ops[1], extra=base + ops[2])
        elif kind == "call":
            emit(Opcode.CALL, dst=ops[0], extra="helper", args=[ops[1]])
        elif kind == "fault":
            # Two instructions; a jump may land between them.
            op, dst, a = ops
            emit(Opcode.CONST, dst=dst, a=0 if op in ("div", "mod") else 600)
            emit(Opcode.BIN, extra=op, dst=dst, a=a, b=dst)
        elif kind == "bad_arity":
            emit(Opcode.CALL, dst=ops[0], extra="helper", args=[ops[1], ops[2]])
        elif kind == "call_void":
            # Prints the 0 that lands in ret_dst.
            emit(Opcode.CALL, dst=ops[0], extra="void", args=[ops[1]])
            emit(Opcode.HYPER, extra=api.OUT, args=[ops[0]])
        elif kind == "recurse":
            emit(Opcode.CALL, dst=None, extra="recurse", args=[ops[0]])
        elif kind == "const_bin":
            op, dst, a, k, value = ops
            emit(Opcode.CONST, dst=k, a=value)
            emit(Opcode.BIN, extra=op, dst=dst, a=a, b=k)
        elif kind == "add_load":
            fed, t, dst, a, k, value = ops
            if fed:
                emit(Opcode.CONST, dst=k, a=value)
            emit(Opcode.BIN, extra="add", dst=t, a=a, b=k)
            emit(Opcode.LOAD, dst=dst, a=t)
        elif kind == "cmp_br":
            fed, op, cond, a, k, value, on_true, on_false = ops
            if fed:
                emit(Opcode.CONST, dst=k, a=value)
            emit(Opcode.BIN, extra=op, dst=cond, a=a, b=k)
            emit(Opcode.BR, a=cond, b=base + on_true, extra=base + on_false)
        elif kind == "line":
            (line_reg, kind_reg, addr_reg, dst, *_), line, stmt_kind = ops
            emit(Opcode.CONST, dst=line_reg, a=line)
            emit(Opcode.CONST, dst=kind_reg, a=stmt_kind)
            emit(Opcode.CONST, dst=addr_reg, a=_LINE_ADDR)
            emit(Opcode.STORE, a=addr_reg, b=line_reg)
            emit(Opcode.HYPER, dst=dst, extra=api.LOG_PC, args=[line_reg, kind_reg])
        else:
            emit(Opcode.HYPER, extra=api.OUT, args=[ops[0]])
    instrs.append(Instr(Opcode.HYPER, extra=api.OUT, args=[2]))
    instrs.append(Instr(Opcode.RET, a=3))

    program = Program()
    program.add_function(Function("main", 0, _REGS, instrs))
    # helper(x): forks when x is symbolic, then returns x * 3 + 1.
    program.add_function(Function("helper", 1, 4, [
        Instr(Opcode.CONST, dst=1, a=5),
        Instr(Opcode.BIN, dst=2, a=0, b=1, extra="lt"),
        Instr(Opcode.BR, a=2, b=3, extra=3),
        Instr(Opcode.CONST, dst=1, a=3),
        Instr(Opcode.BIN, dst=3, a=0, b=1, extra="mul"),
        Instr(Opcode.CONST, dst=1, a=1),
        Instr(Opcode.BIN, dst=3, a=3, b=1, extra="add"),
        Instr(Opcode.RET, a=3),
    ]))
    # void(x): prints x and returns no value, so the caller's ret_dst
    # reads 0.
    program.add_function(Function("void", 1, 1, [
        Instr(Opcode.HYPER, extra=api.OUT, args=[0]),
        Instr(Opcode.RET, a=None),
    ]))
    # recurse(x): unbounded recursion, i.e. a call-stack overflow.
    program.add_function(Function("recurse", 1, 1, [
        Instr(Opcode.CALL, dst=None, extra="recurse", args=[0]),
        Instr(Opcode.RET, a=None),
    ]))
    return program.finalize()


# -- the reference: the stepper in the original per-instruction loop ----------


def _stepped_run(engine: LowLevelEngine, state, budget: int):
    machine = state.machine
    pending = []
    deadline = engine.config.deadline
    try:
        while machine.status == Status.RUNNING:
            if state.instr_count >= budget:
                machine.status = Status.BUDGET_EXCEEDED
                break
            if (
                deadline is not None
                and state.instr_count % 4096 == 0
                and time.monotonic() > deadline
            ):
                machine.status = Status.DEADLINE
                break
            engine._step(state, pending)
    except GuestFault as fault:
        machine.status = Status.FAULT
        state.fault_message = str(fault)
    except ZeroDivisionError:
        machine.status = Status.FAULT
        state.fault_message = "division by zero"
    return pending


def _engine(program: Program, **config) -> LowLevelEngine:
    engine = LowLevelEngine(program, config=ExecutorConfig(**config))
    # Both executors must name their symbolic bytes alike.
    engine.namespace = "oracle:"
    return engine


def _fingerprint(state, pending):
    machine = state.machine
    return (
        state.status,
        state.fault_message,
        state.instr_count,
        state.hl_instr_count,
        machine.halt_code,
        list(machine.output),
        dict(machine.memory),
        state.path_condition.atoms(),
        [(c.fork_ll_pc, c.instr_count, c.path_condition.atoms()) for c in pending],
    )


def _explore(engine: LowLevelEngine, run, budget: int, max_states: int = 12):
    """Fingerprints of a depth-first exploration from boot."""
    prints = []
    queue = [engine.new_state()]
    while queue and len(prints) < max_states:
        state = queue.pop()
        if engine.activate(state) != "sat":
            prints.append(state.status)
            continue
        pending = run(state, budget)
        prints.append(_fingerprint(state, pending))
        queue.extend(pending)
    return prints


#: per fused shape, a main body (after the prologue) that decodes to it;
#: ``{a}`` is the operand register: 3 holds a concrete 0, 2 the
#: symbolic byte and 0 the buffer's address.
_SHAPES = {
    "const_bin": [
        Instr(Opcode.CONST, dst=4, a=3),
        Instr(Opcode.BIN, dst=1, a="{a}", b=4, extra="sub"),
    ],
    "add_load": [
        Instr(Opcode.BIN, dst=1, a="{a}", b=3, extra="add"),
        Instr(Opcode.LOAD, dst=1, a=1),
    ],
    "const_add_load": [
        Instr(Opcode.CONST, dst=4, a=1),
        Instr(Opcode.BIN, dst=1, a="{a}", b=4, extra="add"),
        Instr(Opcode.LOAD, dst=1, a=1),
    ],
    "cmp_br": [
        Instr(Opcode.BIN, dst=1, a="{a}", b=3, extra="lt"),
        Instr(Opcode.BR, a=1, b=10, extra=12),
    ],
    "const_cmp_br": [
        Instr(Opcode.CONST, dst=4, a=7),
        Instr(Opcode.BIN, dst=1, a="{a}", b=4, extra="ge"),
        Instr(Opcode.BR, a=1, b=11, extra=13),
    ],
    "line_op": [
        Instr(Opcode.CONST, dst=1, a=12),
        Instr(Opcode.CONST, dst=4, a=5),
        Instr(Opcode.CONST, dst=3, a=_LINE_ADDR),
        Instr(Opcode.STORE, a=3, b=1),
        Instr(Opcode.HYPER, dst=1, extra=api.LOG_PC, args=[1, 4]),
    ],
}


def _shape_program(shape: str, operand: int) -> Program:
    instrs = _prologue()
    for ins in _SHAPES[shape]:
        a = operand if ins.a == "{a}" else ins.a
        instrs.append(Instr(ins.op, dst=ins.dst, a=a, b=ins.b, extra=ins.extra,
                            args=ins.args))
    # Branch targets above land in this tail, which prints every register.
    while len(instrs) < 14:
        instrs.append(Instr(Opcode.HYPER, extra=api.OUT, args=[len(instrs) % _REGS]))
    instrs += [Instr(Opcode.HYPER, extra=api.OUT, args=[r]) for r in range(_REGS)]
    instrs.append(Instr(Opcode.RET, a=None))
    program = Program()
    program.add_function(Function("main", 0, _REGS, instrs))
    return program.finalize()


@pytest.mark.parametrize("operand", [3, 2, 0], ids=["concrete", "symbolic", "address"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_each_fused_shape_matches_the_stepper(shape, operand):
    program = _shape_program(shape, operand)
    blocked = _engine(program)
    stepped = _engine(program)
    assert _explore(blocked, blocked.run_path, _CAP) == _explore(
        stepped, lambda s, b: _stepped_run(stepped, s, b), _CAP
    )
    decoded = {
        run.__name__
        for body, transfer, _n in program.functions["main"].blocks.values()
        for run in (*body, transfer)
    }
    assert shape in decoded


def test_engine_counters_split_block_and_stepped_instructions():
    program = Program()
    program.add_function(Function("main", 0, 3, [
        Instr(Opcode.CONST, dst=0, a=7),
        Instr(Opcode.CONST, dst=1, a=2),
        Instr(Opcode.BIN, dst=2, a=0, b=1, extra="div"),  # always stepped
        Instr(Opcode.BIN, dst=2, a=2, b=1, extra="add"),
        Instr(Opcode.HYPER, extra=api.OUT, args=[2]),
        Instr(Opcode.RET, a=None),
    ]))
    engine = _engine(program.finalize())
    state = engine.new_state()
    engine.run_path(state)
    assert state.status == Status.HALTED
    assert state.machine.output == [5]
    assert state.instr_count == 6
    stats = engine.stats.as_dict()
    assert stats["instrs_executed"] == 6
    assert stats["instrs_stepped"] == 1


_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(programs())
def test_exploration_matches_the_stepper(program):
    blocked = _engine(program)
    stepped = _engine(program)
    assert _explore(blocked, blocked.run_path, _CAP) == _explore(
        stepped, lambda s, b: _stepped_run(stepped, s, b), _CAP
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_every_budget_lands_exactly(program):
    # The path length comes from a third engine: the two under test must
    # issue the same solver queries in the same order, because a solver
    # reuses its recent models and so answers by its query history.
    measure = _engine(program)
    full = measure.new_state()
    _stepped_run(measure, full, _CAP)
    length = full.instr_count
    blocked = _engine(program)
    stepped = _engine(program)
    for budget in range(length + 1):
        state = blocked.new_state()
        pending = blocked.run_path(state, max_instrs=budget)
        reference = stepped.new_state()
        reference_pending = _stepped_run(stepped, reference, budget)
        assert _fingerprint(state, pending) == _fingerprint(reference, reference_pending)
        if budget < length:
            assert state.status == Status.BUDGET_EXCEEDED
            assert state.instr_count == budget


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(4096 - 40, 4096))
def test_deadline_polls_land_exactly(program, start_count):
    # A deadline in the past stops the path at its next 4096-instruction
    # poll, so it must land on the same instruction as the stepper's.
    blocked = _engine(program, deadline=0.0)
    stepped = _engine(program, deadline=0.0)
    state = blocked.new_state()
    reference = stepped.new_state()
    state.instr_count = reference.instr_count = start_count
    pending = blocked.run_path(state, max_instrs=4096 + _CAP)
    reference_pending = _stepped_run(stepped, reference, 4096 + _CAP)
    assert _fingerprint(state, pending) == _fingerprint(reference, reference_pending)


def test_shared_function_resolves_callees_in_each_program():
    # One caller Function sits in two programs whose "leaf" differs.
    # Its decoded blocks are shared, so its CALL must look the callee up
    # in the running program and its HYPER must call the running engine.
    caller = Function("main", 0, 2, [
        Instr(Opcode.CALL, dst=0, extra="leaf", args=[]),
        Instr(Opcode.HYPER, extra=api.OUT, args=[0]),
        Instr(Opcode.HYPER, extra=api.EVENT, args=[0]),
        Instr(Opcode.RET, a=None),
    ])
    engines = []
    for value in (11, 22):
        program = Program()
        program.add_function(caller)
        program.add_function(Function("leaf", 0, 1, [
            Instr(Opcode.CONST, dst=0, a=value),
            Instr(Opcode.RET, a=0),
        ]))
        engine = _engine(program.finalize())
        state = engine.new_state()
        engine.run_path(state)
        assert state.status == Status.HALTED
        assert state.machine.output == [value]
        engines.append(engine)
    first, second = (engine.stats.as_dict() for engine in engines)
    assert first["events"] == second["events"] == 1
    assert first["instrs_stepped"] == second["instrs_stepped"] == 0
    # Four blocks of the caller and one of each leaf: the second engine
    # found the caller's blocks decoded.
    assert first["blocks_decoded"] == 4 + 1
    assert second["blocks_decoded"] == 1
