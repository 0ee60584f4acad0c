"""Machine-state unit tests (frames, memory, forking)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GuestFault
from repro.lowlevel.machine import Frame, MachineState, Status
from repro.lowlevel.program import FunctionBuilder, Opcode, Program


def _program(n_funcs=2):
    prog = Program("main")
    for i, name in enumerate(["main", "helper"][:n_funcs]):
        fb = FunctionBuilder(name, 1 if name == "helper" else 0)
        fb.const(0)
        fb.emit(Opcode.RET, a=None)
        prog.add_function(fb.finish())
    return prog.finalize()


class TestBoot:
    def test_boot_pushes_entry_frame(self):
        state = MachineState.boot(_program())
        assert state.top.func.name == "main"
        assert state.status == Status.RUNNING

    def test_unfinalized_program_rejected(self):
        prog = Program("main")
        fb = FunctionBuilder("main", 0)
        fb.emit(Opcode.RET, a=None)
        prog.add_function(fb.finish())
        with pytest.raises(GuestFault):
            MachineState(prog)

    def test_static_data_visible(self):
        prog = Program("main")
        fb = FunctionBuilder("main", 0)
        fb.emit(Opcode.RET, a=None)
        prog.add_function(fb.finish())
        prog.set_static(500, [7, 8])
        prog.finalize()
        state = MachineState.boot(prog)
        assert state.mem_read(500) == 7
        assert state.mem_read(501) == 8


class TestFramesAndMemory:
    def test_call_and_return(self):
        prog = _program()
        state = MachineState.boot(prog)
        state.top.regs = [0] * state.top.func.n_regs
        state.push_frame(prog.get_function("helper"), [42], ret_dst=0)
        assert state.top.func.name == "helper"
        assert state.top.regs[0] == 42
        state.pop_frame(99)
        assert state.top.func.name == "main"
        assert state.top.regs[0] == 99

    def test_arity_check(self):
        prog = _program()
        state = MachineState.boot(prog)
        with pytest.raises(GuestFault):
            state.push_frame(prog.get_function("helper"), [1, 2], ret_dst=None)

    def test_stack_overflow_guard(self):
        prog = _program()
        state = MachineState.boot(prog)
        helper = prog.get_function("helper")
        with pytest.raises(GuestFault):
            for _ in range(MachineState.MAX_CALL_DEPTH + 1):
                state.push_frame(helper, [0], ret_dst=None)

    def test_return_from_entry_halts(self):
        state = MachineState.boot(_program())
        state.pop_frame(0)
        assert state.status == Status.HALTED

    def test_word_helpers(self):
        state = MachineState.boot(_program())
        state.write_words(100, [1, 2, 3])
        assert state.read_words(100, 3) == [1, 2, 3]

    def test_uninitialised_memory_reads_zero(self):
        state = MachineState.boot(_program())
        assert state.mem_read(99999) == 0


class TestForking:
    def test_fork_is_independent(self):
        prog = _program()
        parent = MachineState.boot(prog)
        parent.mem_write(100, 5)
        parent.top.regs[0] = 1
        child = parent.fork()
        child.mem_write(100, 6)
        child.top.regs[0] = 2
        child.top.pc = 1
        assert parent.mem_read(100) == 5
        assert parent.top.regs[0] == 1
        assert parent.top.pc == 0
        assert child.mem_read(100) == 6

    def test_fork_shares_existing(self):
        parent = MachineState.boot(_program())
        parent.mem_write(1, 10)
        child = parent.fork()
        assert child.mem_read(1) == 10

    def test_child_writes_invisible_to_parent(self):
        parent = MachineState.boot(_program())
        parent.mem_write(1, 10)
        child = parent.fork()
        child.mem_write(1, 99)
        child.mem_write(2, 2)
        assert parent.mem_read(1) == 10
        assert 2 not in parent.memory

    def test_parent_writes_after_fork_invisible_to_child(self):
        parent = MachineState.boot(_program())
        parent.mem_write(1, 10)
        child = parent.fork()
        parent.mem_write(1, 55)
        parent.mem_write(3, 3)
        assert child.mem_read(1) == 10
        assert 3 not in child.memory

    def test_delete_in_child_only(self):
        parent = MachineState.boot(_program())
        parent.mem_write(1, 10)
        child = parent.fork()
        del child.memory[1]
        assert parent.mem_read(1) == 10
        assert 1 not in child.memory
        assert child.mem_read(1) == 0

    def test_deep_fork_chain(self):
        # Each state forks off the previous one and writes one word: the
        # deepest sees every write, each ancestor none of its descendants'.
        lineage = [MachineState.boot(_program())]
        lineage[0].mem_write(0, 0)
        for i in range(1, 64):
            child = lineage[-1].fork()
            child.mem_write(i, i)
            lineage.append(child)
        for depth, state in enumerate(lineage):
            assert dict(state.memory) == {i: i for i in range(depth + 1)}

    def test_fork_copies_output(self):
        parent = MachineState.boot(_program())
        parent.output.append(1)
        child = parent.fork()
        child.output.append(2)
        assert parent.output == [1]
        assert child.output == [1, 2]

    def test_current_ll_pc(self):
        state = MachineState.boot(_program())
        base = state.current_ll_pc()
        state.top.pc += 1
        assert state.current_ll_pc() == base + 1


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("set"), st.integers(0, 20), st.integers(-5, 5)),
            st.tuples(st.just("del"), st.integers(0, 20), st.just(0)),
            st.tuples(st.just("fork"), st.just(0), st.just(0)),
        ),
        max_size=60,
    )
)
def test_forked_memory_matches_dict_model(ops):
    """Every fork keeps the memory it had when it was taken."""
    state = MachineState.boot(_program())
    model = {}
    forks = []
    for op, key, value in ops:
        if op == "set":
            state.mem_write(key, value)
            model[key] = value
        elif op == "del":
            if key in model:
                del state.memory[key]
                del model[key]
        else:
            forks.append((state.fork(), dict(model)))
    assert dict(state.memory) == model
    for fork, frozen in forks:
        assert dict(fork.memory) == frozen
