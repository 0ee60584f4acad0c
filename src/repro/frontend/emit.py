"""TAC + CFG → LVM ``Program`` emission.

One linear pass per function: TAC temps map 1:1 onto LVM registers, every
CFG block leader gets an LVM label, and each TAC instruction expands,
through the ``_<op>`` method of its op, to a handful of LIR
instructions (operators become ``CALL``s into the
:mod:`.runtime` library, constants become static-pool box addresses).
A compare that only the next ``CJMP`` reads is fused with it: one call
of a word-valued runtime compare and a ``BR`` on the word.  A subscript
whose key is a string literal calls ``rt_dget``/``rt_dset`` with a hint
cell of its own in the static pool, and a ``GLOAD`` that lowering marked
bound reads its global cell with no ``NameError`` check.
Lowering stamps every TAC instruction with the line of the last ``LINE``
marker before it, and blocks are emitted in instruction order, so the
builder's current line changes only at ``LINE`` markers.
The module body compiles to the ``main`` entry (with a ``start_symbolic``
prologue); user functions get a ``py_`` prefix so they can never collide
with runtime routines.
"""

from __future__ import annotations

from collections import Counter
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
from repro.lowlevel.program import FunctionBuilder, Instr, Opcode, Program

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

    def hint_cell(self) -> int:
        """A fresh word for one literal-key subscript site's hint."""
        return self._alloc([0])

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
    readers = Counter(reads)
    return {
        index for index in candidates
        if instrs[index].dst not in named and readers[instrs[index].dst] == 1
    }


class _FunctionEmitter:
    def __init__(self, fn: TacFunction, cfg: Cfg, pool: StaticPool,
                 lvm_name: str, is_main: bool):
        self.fn = fn
        self.cfg = cfg
        self.pool = pool
        self.builder = b = FunctionBuilder(lvm_name, n_params=len(fn.params))
        # Reserve one LVM register per TAC temp (params occupy the first).
        b.new_regs(fn.n_temps - len(fn.params))
        self.is_main = is_main
        #: TAC leader index -> LVM label, and the reference a jump holds.
        self.block_labels = {block.start: b.new_label() for block in cfg.blocks}
        self.targets = {start: b.label_ref(label)
                        for start, label in self.block_labels.items()}
        self.fused = _fused_compares(fn, cfg)
        #: temps that only ever hold a string literal's box.
        self.str_temps = {i.dst for i in fn.instrs if i.op == tac.STR}

    def emit(self):
        b = self.builder
        if self.is_main:
            b.emit(Opcode.HYPER, b.new_reg(), None, None, api.START_SYMBOLIC, [])
        instrs = self.fn.instrs
        fused = self.fused
        for block in self.cfg.blocks:
            b.place_label(self.block_labels[block.start])
            index = block.start
            while index < block.end:
                instr = instrs[index]
                if index in fused:
                    self._compare_and_branch(instr, instrs[index + 1])
                    index += 2
                else:
                    _EMITTERS[instr.op](self, instr)
                    index += 1
        return b.finish()

    # -- helpers --------------------------------------------------------------

    def _call_rt(self, dst, name: str, args: List[int]) -> None:
        self.builder.emit(Opcode.CALL, dst, None, None, name, args)

    def _scratch_call(self, name: str, args: List[int]) -> None:
        self._call_rt(self.builder.new_reg(), name, args)

    # -- per-instruction lowering: ``_<op>`` emits TAC op <op> ---------------

    def _const(self, instr: tac.TacInstr) -> None:
        self.builder.emit(Opcode.CONST, instr.dst, self.pool.int_box(instr.a))

    def _str(self, instr: tac.TacInstr) -> None:
        self.builder.emit(Opcode.CONST, instr.dst, self.pool.str_box(instr.extra))

    def _none(self, instr: tac.TacInstr) -> None:
        self.builder.emit(Opcode.CONST, instr.dst, NONE_ADDR)

    def _move(self, instr: tac.TacInstr) -> None:
        self.builder.emit(Opcode.MOVE, instr.dst, instr.a)

    def _bin(self, instr: tac.TacInstr) -> None:
        self._call_rt(instr.dst, _BIN_RT[instr.extra], [instr.a, instr.b])

    def _un(self, instr: tac.TacInstr) -> None:
        self._call_rt(instr.dst, _UN_RT[instr.extra], [instr.a])

    def _index(self, instr: tac.TacInstr) -> None:
        if instr.b in self.str_temps:
            hint = self.builder.const(self.pool.hint_cell())
            self._call_rt(instr.dst, "rt_dget", [instr.a, instr.b, hint])
        else:
            self._call_rt(instr.dst, "rt_index", [instr.a, instr.b])

    def _setindex(self, instr: tac.TacInstr) -> None:
        if instr.args[1] in self.str_temps:
            hint = self.builder.const(self.pool.hint_cell())
            self._scratch_call("rt_dset", list(instr.args) + [hint])
        else:
            self._scratch_call("rt_setindex", list(instr.args))

    def _call(self, instr: tac.TacInstr) -> None:
        self._call_rt(instr.dst, f"py_{instr.extra}", list(instr.args or ()))

    def _builtin(self, instr: tac.TacInstr) -> None:
        self._call_rt(instr.dst, _BUILTIN_RT[instr.extra], list(instr.args or ()))

    def _gload(self, instr: tac.TacInstr) -> None:
        b = self.builder
        cell = b.const(self.pool.global_cell(instr.extra))
        value = instr.dst if instr.b else b.new_reg()  # b: bound here
        b.emit(Opcode.LOAD, value, cell)
        if not instr.b:
            self._call_rt(instr.dst, "rt_chkname", [value])

    def _gstore(self, instr: tac.TacInstr) -> None:
        b = self.builder
        cell = b.const(self.pool.global_cell(instr.extra))
        b.emit(Opcode.STORE, None, cell, instr.a)

    def _jmp(self, instr: tac.TacInstr) -> None:
        self.builder.emit(Opcode.JMP, None, self.targets[instr.extra])

    def _cjmp(self, instr: tac.TacInstr) -> None:
        b = self.builder
        truth = b.new_reg()
        self._call_rt(truth, "rt_truth", [instr.a])
        b.emit(Opcode.BR, None, truth, self.targets[instr.b],
               self.targets[instr.extra])

    def _ret(self, instr: tac.TacInstr) -> None:
        self.builder.emit(Opcode.RET, None, instr.a)

    def _line(self, instr: tac.TacInstr) -> None:
        """Store the line at ``LINE_ADDR`` and ``log_pc(line, kind)``."""
        b = self.builder
        b.set_line(instr.line)
        line_reg = b.new_regs(4)
        kind_reg, addr = line_reg + 1, line_reg + 2
        b.extend((
            Instr(Opcode.CONST, line_reg, instr.a),
            Instr(Opcode.CONST, kind_reg, instr.b),
            Instr(Opcode.CONST, addr, LINE_ADDR),
            Instr(Opcode.STORE, None, addr, line_reg),
            Instr(Opcode.HYPER, line_reg + 3, None, None, api.LOG_PC,
                  [line_reg, kind_reg]),
        ))

    def _chk(self, instr: tac.TacInstr) -> None:
        self._scratch_call("rt_chklocal", [instr.a])

    def _raise(self, instr: tac.TacInstr) -> None:
        self._scratch_call("rt_raise", [self.builder.const(EXC_IDS[instr.extra])])

    def _compare_and_branch(self, cmp: tac.TacInstr, jump: tac.TacInstr) -> None:
        """``BIN t = a <cmp> b; CJMP t`` as one word-valued call and a ``BR``.

        The compare's temp, which nothing else reads, holds the raw word,
        so the branch needs no box and no ``rt_truth``.
        """
        b = self.builder
        b.set_line(cmp.line)
        self._call_rt(cmp.dst, _CMP_WORD_RT[cmp.extra], [cmp.a, cmp.b])
        on_true, on_false = self.targets[jump.b], self.targets[jump.extra]
        if cmp.extra == "ne":
            on_true, on_false = on_false, on_true
        b.emit(Opcode.BR, None, cmp.dst, on_true, on_false)

    def _list(self, instr: tac.TacInstr) -> None:
        b = self.builder
        elems = list(instr.args or ())
        n = len(elems)
        box = b.new_reg()
        self._call_rt(box, "rt_alloc", [b.const(4)])
        storage = b.new_reg()
        self._call_rt(storage, "rt_alloc", [b.const(n)])
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
        self._call_rt(box, "rt_alloc", [b.const(4)])
        storage = b.new_reg()
        self._call_rt(storage, "rt_alloc", [b.const(2 * n)])
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


#: TAC op -> the _FunctionEmitter method that emits it, ``_<op>``.
_EMITTERS = {op: getattr(_FunctionEmitter, f"_{op}") for op in tac.OPCODES}


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
    program.functions.update(build_runtime())  # rt_ names: no clash
    pool.install(program)
    program.finalize()
    return program


__all__ = ["StaticPool", "emit_program"]
