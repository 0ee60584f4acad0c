"""LIR program model tests."""

import pickle

import pytest

from repro.errors import MachineError
from repro.lowlevel.program import Function, FunctionBuilder, Instr, Opcode, Program


def _trivial_function(name="f", n_instrs=3):
    fb = FunctionBuilder(name, 0)
    for _ in range(n_instrs - 1):
        fb.const(0)
    fb.emit(Opcode.RET, a=None)
    return fb.finish()


class TestFunctionBuilder:
    def test_registers_allocate_after_params(self):
        fb = FunctionBuilder("f", 2)
        assert fb.new_reg() == 2
        assert fb.new_reg() == 3

    def test_labels_patch_jumps(self):
        fb = FunctionBuilder("f", 0)
        label = fb.new_label()
        fb.emit(Opcode.JMP, a=fb.label_ref(label))
        fb.place_label(label)
        fb.emit(Opcode.RET, a=None)
        func = fb.finish()
        assert func.instrs[0].a == 1

    def test_branch_targets_patch(self):
        fb = FunctionBuilder("f", 0)
        cond = fb.const(1)
        l1, l2 = fb.new_label(), fb.new_label()
        fb.emit(Opcode.BR, a=cond, b=fb.label_ref(l1), extra=fb.label_ref(l2))
        fb.place_label(l1)
        fb.emit(Opcode.RET, a=None)
        fb.place_label(l2)
        fb.emit(Opcode.RET, a=None)
        func = fb.finish()
        br = func.instrs[1]
        assert br.b == 2 and br.extra == 3

    def test_unplaced_label_rejected(self):
        fb = FunctionBuilder("f", 0)
        label = fb.new_label()
        fb.emit(Opcode.JMP, a=fb.label_ref(label))
        with pytest.raises(MachineError):
            fb.finish()

    def test_double_label_placement_rejected(self):
        fb = FunctionBuilder("f", 0)
        label = fb.new_label()
        fb.place_label(label)
        with pytest.raises(MachineError):
            fb.place_label(label)


class TestProgram:
    def test_finalize_assigns_disjoint_ids(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a", 3))
        prog.add_function(_trivial_function("b", 4))
        prog.finalize()
        ids = set()
        for name in ("a", "b"):
            func = prog.get_function(name)
            for i in range(len(func.instrs)):
                ids.add(prog.instr_id(name, i))
        assert len(ids) == 7

    def test_locate_roundtrip(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a", 2))
        prog.add_function(_trivial_function("b", 2))
        prog.finalize()
        assert prog.locate(prog.instr_id("b", 1)) == ("b", 1)

    def test_locate_skips_empty_functions(self):
        prog = Program("a")
        prog.add_function(Function("a", 0, 0, []))
        prog.add_function(_trivial_function("b", 2))
        prog.add_function(Function("c", 0, 0, []))
        prog.finalize()
        assert prog.instr_id("a", 0) == prog.instr_id("b", 0) == 0
        assert [prog.locate(i) for i in range(2)] == [("b", 0), ("b", 1)]
        with pytest.raises(MachineError):
            prog.locate(2)

    def test_instr_id_needs_finalize(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a"))
        with pytest.raises(MachineError):
            prog.instr_id("a", 0)

    def test_finalize_leaves_functions_untouched(self):
        # One Function may sit in several programs: its ids live on each.
        shared = _trivial_function("s", 2)
        first, second = Program("s"), Program("s")
        first.add_function(shared)
        second.add_function(_trivial_function("a", 3))
        second.add_function(shared)
        before = dict(shared.__dict__)
        first.finalize()
        second.finalize()
        assert shared.__dict__ == before
        assert first.instr_id("s", 1) == 1
        assert second.instr_id("s", 1) == 4

    def test_locate_unknown_raises(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a"))
        prog.finalize()
        with pytest.raises(MachineError):
            prog.locate(10_000)

    def test_unpickled_program_has_its_ids(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a", 2))
        prog.add_function(_trivial_function("b", 3))
        prog.finalize()
        # An image pickled before the ids moved onto the Program.
        del prog._base_ids
        restored = pickle.loads(pickle.dumps(prog))
        assert restored.instr_id("b", 1) == 3
        assert restored.locate(3) == ("b", 1)

    def test_duplicate_function_rejected(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a"))
        with pytest.raises(MachineError):
            prog.add_function(_trivial_function("a"))

    def test_add_after_finalize_rejected(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a"))
        prog.finalize()
        with pytest.raises(MachineError):
            prog.add_function(_trivial_function("b"))

    def test_static_data_and_data_end(self):
        prog = Program("a")
        prog.set_static(100, [1, 2, 3])
        assert prog.static_data[101] == 2
        assert prog.data_end == 103

    def test_undefined_function_raises(self):
        prog = Program("a")
        with pytest.raises(MachineError):
            prog.get_function("missing")

    def test_disassemble_mentions_functions(self):
        prog = Program("a")
        prog.add_function(_trivial_function("a"))
        prog.finalize()
        assert "fn a" in prog.disassemble()

    def test_instr_repr_readable(self):
        instr = Instr(Opcode.BIN, dst=2, a=0, b=1, extra="add")
        assert "add" in repr(instr)
