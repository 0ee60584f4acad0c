"""TAC + CFG → LVM ``Program`` emission.

One linear pass per function: TAC temps map 1:1 onto LVM registers, every
CFG block leader gets an LVM label, and each TAC instruction expands to a
handful of LIR instructions (operators become ``CALL``s into the
:mod:`.runtime` library, constants become static-pool box addresses).
A compare that only the next ``CJMP`` reads is fused with it: one call
of a word-valued runtime compare and a ``BR`` on the word.
The module body compiles to the ``main`` entry (with a ``start_symbolic``
prologue); user functions get a ``py_`` prefix so they can never collide
with runtime routines.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.frontend import tac
from repro.frontend.cfg import Cfg
from repro.frontend.runtime import (
    HP_ADDR,
    LINE_ADDR,
    NONE_ADDR,
    TAG_DICT,
    TAG_INT,
    TAG_LIST,
    TAG_NONE,
    TAG_STR,
    build_runtime,
)
from repro.frontend.tac import EXC_IDS, TacFunction, TacModule
from repro.lowlevel import api
from repro.lowlevel.program import FunctionBuilder, Opcode, Program

_BIN_RT = {
    "add": "rt_add", "sub": "rt_sub", "mul": "rt_mul",
    "floordiv": "rt_div", "mod": "rt_mod",
    "eq": "rt_eq", "ne": "rt_ne",
    "lt": "rt_lt", "le": "rt_le", "gt": "rt_gt", "ge": "rt_ge",
}

#: comparison -> runtime function returning its result as a raw word, for
#: a compare fused with the branch that reads it (``ne`` swaps targets).
_CMP_WORD_RT = {
    "eq": "rt_eqw", "ne": "rt_eqw",
    "lt": "rt_ltw", "le": "rt_lew", "gt": "rt_gtw", "ge": "rt_gew",
}

_UN_RT = {"neg": "rt_neg", "not": "rt_not"}

_BUILTIN_RT = {
    "len": "rt_len", "ord": "rt_ord", "chr": "rt_chr", "print": "rt_print",
    "append": "rt_append", "contains": "rt_contains",
    "sym_string": "rt_sym_string", "sym_int": "rt_sym_int",
    "make_symbolic": "rt_make_symbolic",
}


class StaticPool:
    """Interned constant boxes and global cells for one program image."""

    def __init__(self) -> None:
        #: addr -> words; the None singleton is always at NONE_ADDR.
        self._boxes: Dict[int, List[int]] = {NONE_ADDR: [TAG_NONE]}
        self._next = NONE_ADDR + 1
        self._ints: Dict[int, int] = {}
        self._strs: Dict[str, int] = {}
        self.global_cells: Dict[str, int] = {}

    def _alloc(self, words: List[int]) -> int:
        addr = self._next
        self._boxes[addr] = words
        self._next += len(words)
        return addr

    def int_box(self, value: int) -> int:
        addr = self._ints.get(value)
        if addr is None:
            addr = self._alloc([TAG_INT, value])
            self._ints[value] = addr
        return addr

    def str_box(self, text: str) -> int:
        addr = self._strs.get(text)
        if addr is None:
            for ch in text:
                if ord(ch) > 255:
                    raise ValueError(
                        f"PyLite strings are byte strings; {ch!r} is out of "
                        "range")
            addr = self._alloc([TAG_STR, len(text)] + [ord(c) for c in text])
            self._strs[text] = addr
        return addr

    def global_cell(self, name: str) -> int:
        addr = self.global_cells.get(name)
        if addr is None:
            addr = self._alloc([0])
            self.global_cells[name] = addr
        return addr

    def install(self, program: Program) -> None:
        """Write the pool into static data and point the heap past it."""
        for addr, words in self._boxes.items():
            program.set_static(addr, words)
        program.set_static(LINE_ADDR, [0])
        program.set_static(HP_ADDR, [self._next])


#: ops that read temp ``a``, and those that read ``a`` and ``b``; every
#: other op reads only its ``args``.
_READS_A = frozenset((tac.MOVE, tac.UN, tac.GSTORE, tac.CJMP, tac.RET, tac.CHK))
_READS_AB = frozenset((tac.BIN, tac.INDEX))


def _fused_compares(fn: TacFunction, cfg: Cfg) -> Set[int]:
    """Indices of compares to emit together with the ``CJMP`` after them.

    A compare fuses when the next instruction, in the same block, branches
    on its result and nothing else reads that expression temp.
    """
    instrs = fn.instrs
    leaders = {block.start for block in cfg.blocks}
    reads: List[int] = []
    candidates = []
    prev = None
    for index, instr in enumerate(instrs):
        op = instr.op
        if op in _READS_AB:
            reads.append(instr.a)
            reads.append(instr.b)
        elif op in _READS_A:
            reads.append(instr.a)
            if (op == tac.CJMP and index not in leaders and prev.op == tac.BIN
                    and prev.dst == instr.a and prev.extra in _CMP_WORD_RT):
                candidates.append(index - 1)
        elif instr.args:
            reads.extend(instr.args)
        prev = instr
    named = fn.local_slots.values()
    return {
        index for index in candidates
        if instrs[index].dst not in named and reads.count(instrs[index].dst) == 1
    }


class _FunctionEmitter:
    def __init__(self, fn: TacFunction, cfg: Cfg, pool: StaticPool,
                 lvm_name: str, is_main: bool):
        self.fn = fn
        self.cfg = cfg
        self.pool = pool
        self.builder = FunctionBuilder(lvm_name, n_params=len(fn.params))
        # Reserve one LVM register per TAC temp (params occupy the first).
        while self.builder._next_reg < fn.n_temps:
            self.builder.new_reg()
        self.is_main = is_main
        #: TAC leader index -> LVM label.
        self.block_labels = {
            block.start: self.builder.new_label() for block in cfg.blocks
        }
        self.fused = _fused_compares(fn, cfg)

    def emit(self):
        b = self.builder
        if self.is_main:
            b.emit(Opcode.HYPER, dst=b.new_reg(), extra=api.START_SYMBOLIC,
                   args=[])
        instrs = self.fn.instrs
        fused = self.fused
        for block in self.cfg.blocks:
            b.place_label(self.block_labels[block.start])
            index = block.start
            while index < block.end:
                if index in fused:
                    self._compare_and_branch(instrs[index], instrs[index + 1])
                    index += 2
                else:
                    self._instr(instrs[index])
                    index += 1
        return b.finish()

    # -- helpers --------------------------------------------------------------

    def _call(self, dst, name: str, args: List[int]) -> None:
        self.builder.emit(Opcode.CALL, dst=dst, extra=name, args=args)

    def _scratch_call(self, name: str, args: List[int]) -> None:
        self._call(self.builder.new_reg(), name, args)

    def _label_of(self, target: int):
        return FunctionBuilder.label_ref(self.block_labels[target])

    # -- per-instruction lowering ---------------------------------------------

    def _instr(self, instr: tac.TacInstr) -> None:
        b = self.builder
        b.set_line(instr.line)
        op = instr.op
        if op == tac.CONST:
            b.emit(Opcode.CONST, dst=instr.dst, a=self.pool.int_box(instr.a))
        elif op == tac.STR:
            b.emit(Opcode.CONST, dst=instr.dst, a=self.pool.str_box(instr.extra))
        elif op == tac.NONE:
            b.emit(Opcode.CONST, dst=instr.dst, a=NONE_ADDR)
        elif op == tac.MOVE:
            b.emit(Opcode.MOVE, dst=instr.dst, a=instr.a)
        elif op == tac.BIN:
            self._call(instr.dst, _BIN_RT[instr.extra], [instr.a, instr.b])
        elif op == tac.UN:
            self._call(instr.dst, _UN_RT[instr.extra], [instr.a])
        elif op == tac.INDEX:
            self._call(instr.dst, "rt_index", [instr.a, instr.b])
        elif op == tac.SETINDEX:
            self._scratch_call("rt_setindex", list(instr.args))
        elif op == tac.LIST:
            self._list(instr)
        elif op == tac.DICT:
            self._dict(instr)
        elif op == tac.CALL:
            self._call(instr.dst, f"py_{instr.extra}", list(instr.args or ()))
        elif op == tac.BUILTIN:
            self._call(instr.dst, _BUILTIN_RT[instr.extra],
                       list(instr.args or ()))
        elif op == tac.GLOAD:
            cell = b.const(self.pool.global_cell(instr.extra))
            value = b.new_reg()
            b.emit(Opcode.LOAD, dst=value, a=cell)
            self._call(instr.dst, "rt_chkname", [value])
        elif op == tac.GSTORE:
            cell = b.const(self.pool.global_cell(instr.extra))
            b.emit(Opcode.STORE, a=cell, b=instr.a)
        elif op == tac.JMP:
            b.emit(Opcode.JMP, a=self._label_of(instr.extra))
        elif op == tac.CJMP:
            truth = b.new_reg()
            self._call(truth, "rt_truth", [instr.a])
            b.emit(Opcode.BR, a=truth, b=self._label_of(instr.b),
                   extra=self._label_of(instr.extra))
        elif op == tac.RET:
            b.emit(Opcode.RET, a=instr.a)
        elif op == tac.LINE:
            line_reg = b.const(instr.a)
            kind_reg = b.const(instr.b)
            b.emit(Opcode.STORE, a=b.const(LINE_ADDR), b=line_reg)
            b.emit(Opcode.HYPER, dst=b.new_reg(), extra=api.LOG_PC,
                   args=[line_reg, kind_reg])
        elif op == tac.CHK:
            self._scratch_call("rt_chklocal", [instr.a])
        elif op == tac.RAISE:
            self._scratch_call("rt_raise", [b.const(EXC_IDS[instr.extra])])
        else:  # pragma: no cover - lowering emits no other ops
            raise AssertionError(f"unhandled TAC op {op!r}")

    def _compare_and_branch(self, cmp: tac.TacInstr, jump: tac.TacInstr) -> None:
        """``BIN t = a <cmp> b; CJMP t`` as one word-valued call and a ``BR``.

        The compare's temp, which nothing else reads, holds the raw word,
        so the branch needs no box and no ``rt_truth``.
        """
        b = self.builder
        b.set_line(cmp.line)
        self._call(cmp.dst, _CMP_WORD_RT[cmp.extra], [cmp.a, cmp.b])
        on_true, on_false = self._label_of(jump.b), self._label_of(jump.extra)
        if cmp.extra == "ne":
            on_true, on_false = on_false, on_true
        b.set_line(jump.line)
        b.emit(Opcode.BR, a=cmp.dst, b=on_true, extra=on_false)

    def _list(self, instr: tac.TacInstr) -> None:
        b = self.builder
        elems = list(instr.args or ())
        n = len(elems)
        box = b.new_reg()
        self._call(box, "rt_alloc", [b.const(4)])
        storage = b.new_reg()
        self._call(storage, "rt_alloc", [b.const(n)])
        self._store_at(box, 0, b.const(TAG_LIST))
        self._store_at(box, 1, b.const(n))
        self._store_at(box, 2, b.const(n))
        self._store_at(box, 3, storage)
        for i, temp in enumerate(elems):
            self._store_at(storage, i, temp)
        b.emit(Opcode.MOVE, dst=instr.dst, a=box)

    def _dict(self, instr: tac.TacInstr) -> None:
        b = self.builder
        pairs = list(instr.args or ())
        n = len(pairs) // 2
        box = b.new_reg()
        self._call(box, "rt_alloc", [b.const(4)])
        storage = b.new_reg()
        self._call(storage, "rt_alloc", [b.const(2 * n)])
        self._store_at(box, 0, b.const(TAG_DICT))
        self._store_at(box, 1, b.const(0))
        self._store_at(box, 2, b.const(n))
        self._store_at(box, 3, storage)
        b.emit(Opcode.MOVE, dst=instr.dst, a=box)
        # Route every pair through rt_dput so duplicate literal keys
        # collapse exactly like CPython ({'a': 1, 'a': 2} == {'a': 2}).
        for i in range(n):
            self._scratch_call("rt_dput", [instr.dst, pairs[2 * i],
                                           pairs[2 * i + 1]])

    def _store_at(self, base_reg: int, offset: int, value_reg: int) -> None:
        b = self.builder
        if offset:
            addr = b.new_reg()
            b.emit(Opcode.BIN, dst=addr, a=base_reg, b=b.const(offset),
                   extra="add")
        else:
            addr = base_reg
        b.emit(Opcode.STORE, a=addr, b=value_reg)


def emit_program(module: TacModule, cfgs: Dict[str, Cfg]) -> Program:
    """Compile a lowered module and its CFGs into a finalized Program.

    The program holds the process-wide runtime functions, shared with
    every other PyLite program, next to its own.
    """
    pool = StaticPool()
    program = Program(entry="main")
    for cell_owner in module.global_names:
        pool.global_cell(cell_owner)
    for name, fn in module.functions.items():
        lvm_name = "main" if name == "main" else f"py_{name}"
        emitter = _FunctionEmitter(fn, cfgs[name], pool, lvm_name,
                                   is_main=name == "main")
        program.add_function(emitter.emit())
    for runtime_fn in build_runtime():
        program.add_function(runtime_fn)
    pool.install(program)
    program.finalize()
    return program


__all__ = ["StaticPool", "emit_program"]
