"""Hand-assembled LIR runtime library for PyLite programs.

Compiled PyLite never manipulates raw words: every TAC value is the
address of a tagged box, and every operator lowers to a ``CALL`` into one
of these functions.  The one raw word the emitted code sees is a
comparison a branch reads directly: a compare fused with its branch
calls a word-valued form (``rt_eqw``, ``rt_ltw``, ...) and branches on
the result, with no box and no ``rt_truth``.  The library plays the part
of the paper's interpreter runtime — except here it is ~40 small LIR
routines instead of a whole interpreter, because the frontend already
compiled the control flow.  The engine pays for every instruction the
routines run, so they are tuned the way Chef tunes its interpreter
build: allocation and int boxing are inline (:meth:`Asm.alloc`,
:meth:`Asm.box`), counted loops test at the bottom, and dict lookups
compare key identity before value equality (:func:`_rt_dfind`).

Memory layout (word-addressed):

====  =======================================================
addr  meaning
====  =======================================================
0     heap pointer cell (bump allocator; initialised to the
      end of the static pool by the emitter)
1     current source line (kept for exception events)
2     the ``None`` singleton box
3..   static pool: interned int/str boxes and global cells
====  =======================================================

Box layouts: int ``[1, payload]`` — str ``[2, len, chars...]`` — list
``[3, len, cap, elems_addr]`` — dict ``[4, len, cap, entries_addr]``
(key/value pairs interleaved) — None ``[5]``.  Lengths and tags are
always concrete; payloads and characters may be symbolic, so tag
dispatch never forks while value comparisons fold into expressions.

Exceptions: :func:`~.tac.EXC_IDS` type ids travel through the ``event``
hypercall (``EVENT_UNCAUGHT_EXCEPTION`` with the current line), then
``end_symbolic(1)`` halts the machine — PyLite has no ``try``, so every
raise ends the path, mirroring an uncaught CPython exception.

The library does not depend on the guest program, so it is built once
per process and every PyLite ``Program`` holds the same ``Function``
objects (see :func:`build_runtime`).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.lowlevel import api
from repro.lowlevel.program import Function, FunctionBuilder, Opcode

#: value tags (the first word of every box).
TAG_INT = 1
TAG_STR = 2
TAG_LIST = 3
TAG_DICT = 4
TAG_NONE = 5

#: fixed cells (see module docstring).
HP_ADDR = 0
LINE_ADDR = 1
NONE_ADDR = 2

#: exception ids used by the runtime (match tac.EXC_IDS).
_VALUE_ERROR = 2
_TYPE_ERROR = 3
_KEY_ERROR = 4
_INDEX_ERROR = 5
_ZERO_DIV = 7
_NAME_ERROR = 10
_UNBOUND_LOCAL = 11


class Asm:
    """Thin sugar over :class:`FunctionBuilder` for hand-written LIR."""

    def __init__(self, name: str, n_params: int):
        self.b = FunctionBuilder(name, n_params)

    # values ------------------------------------------------------------------
    def imm(self, value: int) -> int:
        return self.b.const(value)

    def bin(self, op: str, a: int, b: int) -> int:
        dst = self.b.new_reg()
        self.b.emit(Opcode.BIN, dst=dst, a=a, b=b, extra=op)
        return dst

    def un(self, op: str, a: int) -> int:
        dst = self.b.new_reg()
        self.b.emit(Opcode.UN, dst=dst, a=a, extra=op)
        return dst

    def add(self, a: int, b: int) -> int:
        return self.bin("add", a, b)

    def addi(self, a: int, imm: int) -> int:
        return self.bin("add", a, self.imm(imm))

    def move(self, dst: int, src: int) -> None:
        self.b.emit(Opcode.MOVE, dst=dst, a=src)

    def reg(self) -> int:
        return self.b.new_reg()

    # memory ------------------------------------------------------------------
    def load(self, addr_reg: int) -> int:
        dst = self.b.new_reg()
        self.b.emit(Opcode.LOAD, dst=dst, a=addr_reg)
        return dst

    def loadi(self, addr: int) -> int:
        return self.load(self.imm(addr))

    def load_at(self, base_reg: int, offset: int) -> int:
        return self.load(self.addi(base_reg, offset) if offset else base_reg)

    def store(self, addr_reg: int, value_reg: int) -> None:
        self.b.emit(Opcode.STORE, a=addr_reg, b=value_reg)

    def store_at(self, base_reg: int, offset: int, value_reg: int) -> None:
        self.store(self.addi(base_reg, offset) if offset else base_reg,
                   value_reg)

    def alloc(self, size_reg: int) -> int:
        """Bump-allocate ``size_reg`` words inline; returns their address."""
        hp_addr = self.imm(HP_ADDR)
        hp = self.load(hp_addr)
        self.store(hp_addr, self.add(hp, size_reg))
        return hp

    def box(self, word_reg: int) -> int:
        """A fresh int box holding ``word_reg``, allocated inline."""
        box = self.alloc(self.imm(2))
        self.store(box, self.imm(TAG_INT))
        self.store_at(box, 1, word_reg)
        return box

    # control -----------------------------------------------------------------
    def label(self) -> int:
        return self.b.new_label()

    def place(self, label: int) -> None:
        self.b.place_label(label)

    def br(self, cond_reg: int, if_true: int, if_false: int) -> None:
        self.b.emit(Opcode.BR, a=cond_reg,
                    b=FunctionBuilder.label_ref(if_true),
                    extra=FunctionBuilder.label_ref(if_false))

    def br_tag(self, tag_reg: int, tag: int, if_eq: int, if_ne: int) -> None:
        self.br(self.bin("eq", tag_reg, self.imm(tag)), if_eq, if_ne)

    def call(self, name: str, args: List[int]) -> int:
        dst = self.b.new_reg()
        self.b.emit(Opcode.CALL, dst=dst, extra=name, args=list(args))
        return dst

    def hyper(self, name: str, args: List[int]) -> int:
        dst = self.b.new_reg()
        self.b.emit(Opcode.HYPER, dst=dst, extra=name, args=list(args))
        return dst

    def ret(self, value_reg: int) -> None:
        self.b.emit(Opcode.RET, a=value_reg)

    def reti(self, value: int) -> None:
        self.ret(self.imm(value))

    def raise_(self, exc_id: int) -> None:
        """Raise and terminate; emits an (unreachable) return for the CFG."""
        self.call("rt_raise", [self.imm(exc_id)])
        self.reti(0)

    def counter_loop(self, limit_reg: int, start_reg: Optional[int] = None,
                     step: int = 1):
        """``for i in range(start, limit, step)`` scaffolding.

        ``start_reg`` defaults to 0.  Returns ``(i, finish)`` — emit the
        body reading counter reg ``i``, then call ``finish()`` to close
        the loop::

            i, finish = asm.counter_loop(n)
            ...body...
            finish()

        The loop is tested once on entry and then at the bottom, so an
        iteration ends in its own ``i < limit`` branch back to the body
        rather than in a ``JMP`` to a separate test block.
        """
        i = self.reg()
        self.move(i, self.imm(0) if start_reg is None else start_reg)
        step_reg = self.imm(step)
        body, done = self.label(), self.label()
        self.br(self.bin("lt", i, limit_reg), body, done)
        self.place(body)

        def finish():
            self.b.emit(Opcode.BIN, dst=i, a=i, b=step_reg, extra="add")
            self.br(self.bin("lt", i, limit_reg), body, done)
            self.place(done)

        return i, finish

    def copy_words(self, dst_reg: int, src_reg: int, count_reg: int) -> None:
        i, finish = self.counter_loop(count_reg)
        self.store(self.add(dst_reg, i), self.load(self.add(src_reg, i)))
        finish()

    def finish(self) -> Function:
        return self.b.finish()


# -- the library --------------------------------------------------------------


def _rt_alloc() -> Function:
    """:meth:`Asm.alloc` for emitted list and dict literals."""
    f = Asm("rt_alloc", 1)
    f.ret(f.alloc(0))
    return f.finish()


def _rt_raise() -> Function:
    f = Asm("rt_raise", 1)
    line = f.loadi(LINE_ADDR)
    f.hyper(api.EVENT, [f.imm(api.EVENT_UNCAUGHT_EXCEPTION), 0, line])
    f.hyper(api.END_SYMBOLIC, [f.imm(1)])
    f.reti(0)  # unreachable: end_symbolic halts the machine
    return f.finish()


def _rt_check(name: str, exc_id: int) -> Function:
    """Unassigned-slot guard: box addresses are never 0."""
    f = Asm(name, 1)
    ok, bad = f.label(), f.label()
    f.br(0, ok, bad)
    f.place(bad)
    f.raise_(exc_id)
    f.place(ok)
    f.ret(0)
    return f.finish()


def _rt_truth() -> Function:
    f = Asm("rt_truth", 1)
    tag = f.load(0)
    is_int, not_int = f.label(), f.label()
    f.br_tag(tag, TAG_INT, is_int, not_int)
    f.place(is_int)
    f.ret(f.bin("ne", f.load_at(0, 1), f.imm(0)))
    f.place(not_int)
    is_none, sized = f.label(), f.label()
    f.br_tag(tag, TAG_NONE, is_none, sized)
    f.place(is_none)
    f.reti(0)
    f.place(sized)  # str/list/dict all keep a concrete length at +1
    f.ret(f.bin("ne", f.load_at(0, 1), f.imm(0)))
    return f.finish()


def _rt_not() -> Function:
    f = Asm("rt_not", 1)
    truth = f.call("rt_truth", [0])
    f.ret(f.box(f.un("lnot", truth)))
    return f.finish()


def _rt_intval() -> Function:
    f = Asm("rt_intval", 1)
    ok, bad = f.label(), f.label()
    f.br_tag(f.load(0), TAG_INT, ok, bad)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    f.place(ok)
    f.ret(f.load_at(0, 1))
    return f.finish()


def _rt_neg() -> Function:
    f = Asm("rt_neg", 1)
    f.ret(f.box(f.un("neg", f.call("rt_intval", [0]))))
    return f.finish()


def _rt_int_binop(name: str, op: str) -> Function:
    f = Asm(name, 2)
    wa = f.call("rt_intval", [0])
    wb = f.call("rt_intval", [1])
    f.ret(f.box(f.bin(op, wa, wb)))
    return f.finish()


def _rt_int_cmpw(name: str, op: str) -> Function:
    """``a <op> b`` on two ints as a *word*, for a fused compare-and-branch.

    The tags are checked inline, ``a`` first, so a non-int raises
    ``TypeError`` exactly where :func:`_rt_intval` would.
    """
    f = Asm(name, 2)
    int_a, int_b, bad = f.label(), f.label(), f.label()
    f.br_tag(f.load(0), TAG_INT, int_a, bad)
    f.place(int_a)
    f.br_tag(f.load(1), TAG_INT, int_b, bad)
    f.place(int_b)
    f.ret(f.bin(op, f.load_at(0, 1), f.load_at(1, 1)))
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_int_divlike(name: str, op: str) -> Function:
    f = Asm(name, 2)
    wa = f.call("rt_intval", [0])
    wb = f.call("rt_intval", [1])
    zero, ok = f.label(), f.label()
    # The explicit guard makes the zero-divisor path a real PyLite path
    # (ZeroDivisionError test case) instead of the executor's dropped-path
    # deviation for raw symbolic division.
    f.br(f.bin("eq", wb, f.imm(0)), zero, ok)
    f.place(zero)
    f.raise_(_ZERO_DIV)
    f.place(ok)
    f.ret(f.box(f.bin(op, wa, wb)))
    return f.finish()


def _rt_add() -> Function:
    f = Asm("rt_add", 2)
    ta = f.load(0)
    tb = f.load(1)
    int_a, not_int = f.label(), f.label()
    f.br_tag(ta, TAG_INT, int_a, not_int)
    f.place(int_a)
    int_ok, bad = f.label(), f.label()
    f.br_tag(tb, TAG_INT, int_ok, bad)
    f.place(int_ok)
    f.ret(f.box(f.bin("add", f.load_at(0, 1), f.load_at(1, 1))))
    f.place(not_int)
    str_a, not_str = f.label(), f.label()
    f.br_tag(ta, TAG_STR, str_a, not_str)
    f.place(str_a)
    str_ok = f.label()
    f.br_tag(tb, TAG_STR, str_ok, bad)
    f.place(str_ok)
    na = f.load_at(0, 1)
    nb = f.load_at(1, 1)
    total = f.add(na, nb)
    box = f.alloc(f.addi(total, 2))
    f.store_at(box, 0, f.imm(TAG_STR))
    f.store_at(box, 1, total)
    f.copy_words(f.addi(box, 2), f.addi(0, 2), na)
    f.copy_words(f.add(f.addi(box, 2), na), f.addi(1, 2), nb)
    f.ret(box)
    f.place(not_str)
    list_a = f.label()
    f.br_tag(ta, TAG_LIST, list_a, bad)
    f.place(list_a)
    list_ok = f.label()
    f.br_tag(tb, TAG_LIST, list_ok, bad)
    f.place(list_ok)
    na2 = f.load_at(0, 1)
    nb2 = f.load_at(1, 1)
    total2 = f.add(na2, nb2)
    box2 = f.alloc(f.imm(4))
    elems = f.alloc(total2)
    f.store_at(box2, 0, f.imm(TAG_LIST))
    f.store_at(box2, 1, total2)
    f.store_at(box2, 2, total2)
    f.store_at(box2, 3, elems)
    f.copy_words(elems, f.load_at(0, 3), na2)
    f.copy_words(f.add(elems, na2), f.load_at(1, 3), nb2)
    f.ret(box2)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_eqw() -> Function:
    """Structural equality as a *word* (0/1, possibly symbolic; no forks)."""
    f = Asm("rt_eqw", 2)
    same, differ = f.label(), f.label()
    f.br(f.bin("eq", 0, 1), same, differ)
    f.place(same)
    f.reti(1)
    f.place(differ)
    ta = f.load(0)
    tb = f.load(1)
    ret0 = f.label()
    tags_eq = f.label()
    f.br(f.bin("eq", ta, tb), tags_eq, ret0)
    f.place(ret0)
    f.reti(0)
    f.place(tags_eq)
    is_int, not_int = f.label(), f.label()
    f.br_tag(ta, TAG_INT, is_int, not_int)
    f.place(is_int)
    f.ret(f.bin("eq", f.load_at(0, 1), f.load_at(1, 1)))
    f.place(not_int)
    is_none, not_none = f.label(), f.label()
    f.br_tag(ta, TAG_NONE, is_none, not_none)
    f.place(is_none)
    f.reti(1)
    f.place(not_none)
    is_str, not_str = f.label(), f.label()
    f.br_tag(ta, TAG_STR, is_str, not_str)
    f.place(is_str)
    na = f.load_at(0, 1)
    len_eq = f.label()
    f.br(f.bin("eq", na, f.load_at(1, 1)), len_eq, ret0)
    f.place(len_eq)
    # and-fold the per-char equalities into one expression: comparing two
    # symbolic strings costs zero forks.
    acc = f.reg()
    f.move(acc, f.imm(1))
    i, finish = f.counter_loop(na)
    ca = f.load(f.add(f.addi(0, 2), i))
    cb = f.load(f.add(f.addi(1, 2), i))
    f.move(acc, f.bin("land", acc, f.bin("eq", ca, cb)))
    finish()
    f.ret(acc)
    f.place(not_str)
    is_list, bad = f.label(), f.label()
    f.br_tag(ta, TAG_LIST, is_list, bad)
    f.place(is_list)
    nla = f.load_at(0, 1)
    llen_eq = f.label()
    f.br(f.bin("eq", nla, f.load_at(1, 1)), llen_eq, ret0)
    f.place(llen_eq)
    ea = f.load_at(0, 3)
    eb = f.load_at(1, 3)
    lacc = f.reg()
    f.move(lacc, f.imm(1))
    j, lfinish = f.counter_loop(nla)
    va = f.load(f.add(ea, j))
    vb = f.load(f.add(eb, j))
    f.move(lacc, f.bin("land", lacc, f.call("rt_eqw", [va, vb])))
    lfinish()
    f.ret(lacc)
    f.place(bad)  # dict equality is outside PyLite (documented)
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_eq() -> Function:
    f = Asm("rt_eq", 2)
    f.ret(f.box(f.call("rt_eqw", [0, 1])))
    return f.finish()


def _rt_ne() -> Function:
    f = Asm("rt_ne", 2)
    f.ret(f.box(f.un("lnot", f.call("rt_eqw", [0, 1]))))
    return f.finish()


def _rt_len() -> Function:
    f = Asm("rt_len", 1)
    tag = f.load(0)
    ok, bad = f.label(), f.label()
    n1, n2 = f.label(), f.label()
    f.br_tag(tag, TAG_STR, ok, n1)
    f.place(n1)
    f.br_tag(tag, TAG_LIST, ok, n2)
    f.place(n2)
    f.br_tag(tag, TAG_DICT, ok, bad)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    f.place(ok)
    f.ret(f.box(f.load_at(0, 1)))
    return f.finish()


def _normalize_index(f: Asm, idx_box: int, length_reg: int) -> int:
    """Python index semantics: negative wraps once, then bounds-check."""
    raw = f.call("rt_intval", [idx_box])
    norm = f.reg()
    f.move(norm, raw)
    neg, check = f.label(), f.label()
    f.br(f.bin("lt", raw, f.imm(0)), neg, check)
    f.place(neg)
    f.move(norm, f.add(raw, length_reg))
    f.place(check)
    ok, oob = f.label(), f.label()
    in_range = f.bin(
        "land",
        f.bin("ge", norm, f.imm(0)),
        f.bin("lt", norm, length_reg),
    )
    f.br(in_range, ok, oob)
    f.place(oob)
    f.raise_(_INDEX_ERROR)
    f.place(ok)
    return norm


def _require_hashable(f: Asm, key: int) -> None:
    """Raise ``TypeError`` unless ``key`` is an int, a str or None.

    Only dict paths that miss call it: :func:`_rt_dput` never stores a
    list or dict key, so such a key is never found.
    """
    tag = f.load(key)
    ok, not_scalar, bad = f.label(), f.label(), f.label()
    f.br(f.bin("lt", tag, f.imm(TAG_LIST)), ok, not_scalar)  # int or str
    f.place(not_scalar)
    f.br_tag(tag, TAG_NONE, ok, bad)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    f.place(ok)


def _rt_index() -> Function:
    f = Asm("rt_index", 2)
    tag = f.load(0)
    is_str, n1 = f.label(), f.label()
    f.br_tag(tag, TAG_STR, is_str, n1)
    f.place(is_str)
    n = f.load_at(0, 1)
    i = _normalize_index(f, 1, n)
    ch = f.load(f.add(f.addi(0, 2), i))
    box = f.alloc(f.imm(3))
    f.store_at(box, 0, f.imm(TAG_STR))
    f.store_at(box, 1, f.imm(1))
    f.store_at(box, 2, ch)
    f.ret(box)
    f.place(n1)
    is_list, n2 = f.label(), f.label()
    f.br_tag(tag, TAG_LIST, is_list, n2)
    f.place(is_list)
    ln = f.load_at(0, 1)
    li = _normalize_index(f, 1, ln)
    f.ret(f.load(f.add(f.load_at(0, 3), li)))
    f.place(n2)
    is_dict, bad = f.label(), f.label()
    f.br_tag(tag, TAG_DICT, is_dict, bad)
    f.place(is_dict)
    slot = f.call("rt_dfind", [0, 1])
    found, missing = f.label(), f.label()
    f.br(slot, found, missing)
    f.place(found)
    f.ret(f.load_at(slot, 1))
    f.place(missing)
    _require_hashable(f, 1)
    f.raise_(_KEY_ERROR)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_dfind() -> Function:
    """The address of ``key``'s entry in dict ``d``, or 0 if it is absent.

    An identity pass comes first: it compares box addresses, which are
    concrete, so it never forks, and interned literal keys hit it.  Keys
    are unique under each path's constraints (:func:`_rt_dput` forks on
    every equality before it appends), so a key whose box *is* the probe
    is the only key equal to it.  Only a probe that is no key's box pays
    the equality pass, whose ``rt_eqw`` branches fork on symbolic keys.
    """
    f = Asm("rt_dfind", 2)
    entries = f.load_at(0, 3)
    n = f.load_at(0, 1)
    end = f.add(entries, f.add(n, n))
    slot, finish = f.counter_loop(end, entries, 2)
    same, next_ = f.label(), f.label()
    f.br(f.bin("eq", f.load(slot), 1), same, next_)
    f.place(same)
    f.ret(slot)
    f.place(next_)
    finish()
    slot, finish = f.counter_loop(end, entries, 2)
    equal, next_ = f.label(), f.label()
    f.br(f.call("rt_eqw", [f.load(slot), 1]), equal, next_)
    f.place(equal)
    f.ret(slot)
    f.place(next_)
    finish()
    f.reti(0)
    return f.finish()


def _rt_setindex() -> Function:
    f = Asm("rt_setindex", 3)
    tag = f.load(0)
    is_list, n1 = f.label(), f.label()
    f.br_tag(tag, TAG_LIST, is_list, n1)
    f.place(is_list)
    n = f.load_at(0, 1)
    i = _normalize_index(f, 1, n)
    f.store(f.add(f.load_at(0, 3), i), 2)
    f.reti(NONE_ADDR)
    f.place(n1)
    is_dict, bad = f.label(), f.label()
    f.br_tag(tag, TAG_DICT, is_dict, bad)
    f.place(is_dict)
    f.call("rt_dput", [0, 1, 2])
    f.reti(NONE_ADDR)
    f.place(bad)  # strings are immutable; anything else is not indexable
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_dput() -> Function:
    f = Asm("rt_dput", 3)
    slot = f.call("rt_dfind", [0, 1])
    found, absent = f.label(), f.label()
    f.br(slot, found, absent)
    f.place(found)
    f.store_at(slot, 1, 2)
    f.reti(0)
    f.place(absent)
    _require_hashable(f, 1)
    n = f.load_at(0, 1)
    cap = f.load_at(0, 2)
    grow, append = f.label(), f.label()
    f.br(f.bin("lt", n, cap), append, grow)
    f.place(grow)
    newcap = f.addi(f.bin("mul", cap, f.imm(2)), 4)
    newent = f.alloc(f.bin("mul", newcap, f.imm(2)))
    f.copy_words(newent, f.load_at(0, 3), f.add(n, n))
    f.store_at(0, 2, newcap)
    f.store_at(0, 3, newent)
    f.place(append)
    entries = f.load_at(0, 3)
    slot2 = f.add(entries, f.add(n, n))
    f.store(slot2, 1)
    f.store(f.addi(slot2, 1), 2)
    f.store_at(0, 1, f.addi(n, 1))
    f.reti(0)
    return f.finish()


def _rt_append() -> Function:
    f = Asm("rt_append", 2)
    ok, bad = f.label(), f.label()
    f.br_tag(f.load(0), TAG_LIST, ok, bad)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    f.place(ok)
    n = f.load_at(0, 1)
    cap = f.load_at(0, 2)
    grow, push = f.label(), f.label()
    f.br(f.bin("lt", n, cap), push, grow)
    f.place(grow)
    newcap = f.addi(f.bin("mul", cap, f.imm(2)), 4)
    newelems = f.alloc(newcap)
    f.copy_words(newelems, f.load_at(0, 3), n)
    f.store_at(0, 2, newcap)
    f.store_at(0, 3, newelems)
    f.place(push)
    f.store(f.add(f.load_at(0, 3), n), 1)
    f.store_at(0, 1, f.addi(n, 1))
    f.reti(NONE_ADDR)
    return f.finish()


def _rt_contains() -> Function:
    """``needle in hay`` as an or-fold — membership costs zero forks."""
    f = Asm("rt_contains", 2)
    tag = f.load(0)
    is_list, n1 = f.label(), f.label()
    f.br_tag(tag, TAG_LIST, is_list, n1)
    f.place(is_list)
    n = f.load_at(0, 1)
    elems = f.load_at(0, 3)
    acc = f.reg()
    f.move(acc, f.imm(0))
    i, finish = f.counter_loop(n)
    f.move(acc, f.bin("lor", acc, f.call("rt_eqw", [f.load(f.add(elems, i)), 1])))
    finish()
    f.ret(f.box(acc))
    f.place(n1)
    is_dict, n2 = f.label(), f.label()
    f.br_tag(tag, TAG_DICT, is_dict, n2)
    f.place(is_dict)
    _require_hashable(f, 1)
    dn = f.load_at(0, 1)
    entries = f.load_at(0, 3)
    dacc = f.reg()
    f.move(dacc, f.imm(0))
    di, dfinish = f.counter_loop(dn)
    key = f.load(f.add(entries, f.add(di, di)))
    f.move(dacc, f.bin("lor", dacc, f.call("rt_eqw", [key, 1])))
    dfinish()
    f.ret(f.box(dacc))
    f.place(n2)
    is_str, bad = f.label(), f.label()
    f.br_tag(tag, TAG_STR, is_str, bad)
    f.place(is_str)
    str_ok = f.label()
    f.br_tag(f.load(1), TAG_STR, str_ok, bad)
    f.place(str_ok)
    hn = f.load_at(0, 1)
    nn = f.load_at(1, 1)
    empty, non_empty = f.label(), f.label()
    f.br(f.bin("eq", nn, f.imm(0)), empty, non_empty)
    f.place(empty)
    f.ret(f.box(f.imm(1)))
    f.place(non_empty)
    # substring scan: or over start offsets of and-folded char windows.
    sacc = f.reg()
    f.move(sacc, f.imm(0))
    starts = f.addi(f.bin("sub", hn, nn), 1)
    clamped = f.reg()
    f.move(clamped, starts)
    pos, nonneg = f.label(), f.label()
    f.br(f.bin("lt", starts, f.imm(0)), pos, nonneg)
    f.place(pos)
    f.move(clamped, f.imm(0))
    f.place(nonneg)
    s, sfinish = f.counter_loop(clamped)
    window = f.reg()
    f.move(window, f.imm(1))
    j, jfinish = f.counter_loop(nn)
    hc = f.load(f.add(f.add(f.addi(0, 2), s), j))
    nc = f.load(f.add(f.addi(1, 2), j))
    f.move(window, f.bin("land", window, f.bin("eq", hc, nc)))
    jfinish()
    f.move(sacc, f.bin("lor", sacc, window))
    sfinish()
    f.ret(f.box(sacc))
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_ord() -> Function:
    f = Asm("rt_ord", 1)
    is_str, bad = f.label(), f.label()
    f.br_tag(f.load(0), TAG_STR, is_str, bad)
    f.place(is_str)
    one = f.label()
    f.br(f.bin("eq", f.load_at(0, 1), f.imm(1)), one, bad)
    f.place(one)
    f.ret(f.box(f.load_at(0, 2)))
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_chr() -> Function:
    f = Asm("rt_chr", 1)
    w = f.call("rt_intval", [0])
    ok, bad = f.label(), f.label()
    in_range = f.bin(
        "land",
        f.bin("ge", w, f.imm(0)),
        f.bin("le", w, f.imm(255)),
    )
    f.br(in_range, ok, bad)  # PyLite chars are bytes: chr(x) needs 0..255
    f.place(bad)
    f.raise_(_VALUE_ERROR)
    f.place(ok)
    box = f.alloc(f.imm(3))
    f.store_at(box, 0, f.imm(TAG_STR))
    f.store_at(box, 1, f.imm(1))
    f.store_at(box, 2, w)
    f.ret(box)
    return f.finish()


def _rt_print() -> Function:
    """Observable output: value words then a newline (10), per print call."""
    f = Asm("rt_print", 1)
    tag = f.load(0)
    is_int, n1 = f.label(), f.label()
    f.br_tag(tag, TAG_INT, is_int, n1)
    f.place(is_int)
    f.hyper(api.OUT, [f.load_at(0, 1)])
    f.hyper(api.OUT, [f.imm(10)])
    f.reti(NONE_ADDR)
    f.place(n1)
    is_str, bad = f.label(), f.label()
    f.br_tag(tag, TAG_STR, is_str, bad)
    f.place(is_str)
    n = f.load_at(0, 1)
    i, finish = f.counter_loop(n)
    f.hyper(api.OUT, [f.load(f.add(f.addi(0, 2), i))])
    finish()
    f.hyper(api.OUT, [f.imm(10)])
    f.reti(NONE_ADDR)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    return f.finish()


def _rt_sym_string() -> Function:
    f = Asm("rt_sym_string", 1)
    ok, bad = f.label(), f.label()
    f.br_tag(f.load(0), TAG_STR, ok, bad)
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    f.place(ok)
    n = f.load_at(0, 1)
    box = f.alloc(f.addi(n, 2))
    f.store_at(box, 0, f.imm(TAG_STR))
    f.store_at(box, 1, n)
    chars = f.addi(box, 2)
    f.copy_words(chars, f.addi(0, 2), n)
    f.hyper(api.MAKE_SYMBOLIC, [chars, n, f.imm(0), f.imm(255)])
    f.ret(box)
    return f.finish()


def _rt_sym_int() -> Function:
    f = Asm("rt_sym_int", 3)
    seed = f.call("rt_intval", [0])
    lo = f.call("rt_intval", [1])
    hi = f.call("rt_intval", [2])
    box = f.alloc(f.imm(2))
    f.store_at(box, 0, f.imm(TAG_INT))
    payload = f.addi(box, 1)
    f.store(payload, seed)
    f.hyper(api.MAKE_SYMBOLIC, [payload, f.imm(1), lo, hi])
    f.ret(box)
    return f.finish()


def _rt_make_symbolic() -> Function:
    f = Asm("rt_make_symbolic", 1)
    tag = f.load(0)
    is_int, n1 = f.label(), f.label()
    f.br_tag(tag, TAG_INT, is_int, n1)
    f.place(is_int)
    box = f.alloc(f.imm(2))
    f.store_at(box, 0, f.imm(TAG_INT))
    payload = f.addi(box, 1)
    f.store(payload, f.load_at(0, 1))
    f.hyper(api.MAKE_SYMBOLIC, [payload, f.imm(1), f.imm(0), f.imm(255)])
    f.ret(box)
    f.place(n1)
    is_str, bad = f.label(), f.label()
    f.br_tag(tag, TAG_STR, is_str, bad)
    f.place(is_str)
    f.ret(f.call("rt_sym_string", [0]))
    f.place(bad)
    f.raise_(_TYPE_ERROR)
    return f.finish()


_RUNTIME: Optional[Tuple[Function, ...]] = None
_RUNTIME_LOCK = threading.Lock()


def build_runtime() -> Tuple[Function, ...]:
    """Every runtime function, built on first use and then shared.

    Each call returns the same ``Function`` objects, which no program
    changes, so the executor decodes their blocks once per process.  The
    lock makes concurrent first callers (daemon sessions on their pump
    threads) agree on one build.
    """
    global _RUNTIME
    if _RUNTIME is None:
        with _RUNTIME_LOCK:
            if _RUNTIME is None:
                _RUNTIME = _build()
    return _RUNTIME


def _build() -> Tuple[Function, ...]:
    return (
        _rt_alloc(),
        _rt_raise(),
        _rt_check("rt_chklocal", _UNBOUND_LOCAL),
        _rt_check("rt_chkname", _NAME_ERROR),
        _rt_truth(),
        _rt_not(),
        _rt_intval(),
        _rt_neg(),
        _rt_int_binop("rt_sub", "sub"),
        _rt_int_binop("rt_mul", "mul"),
        _rt_int_binop("rt_lt", "lt"),
        _rt_int_binop("rt_le", "le"),
        _rt_int_binop("rt_gt", "gt"),
        _rt_int_binop("rt_ge", "ge"),
        _rt_int_cmpw("rt_ltw", "lt"),
        _rt_int_cmpw("rt_lew", "le"),
        _rt_int_cmpw("rt_gtw", "gt"),
        _rt_int_cmpw("rt_gew", "ge"),
        _rt_int_divlike("rt_div", "div"),
        _rt_int_divlike("rt_mod", "mod"),
        _rt_add(),
        _rt_eqw(),
        _rt_eq(),
        _rt_ne(),
        _rt_len(),
        _rt_index(),
        _rt_dfind(),
        _rt_setindex(),
        _rt_dput(),
        _rt_append(),
        _rt_contains(),
        _rt_ord(),
        _rt_chr(),
        _rt_print(),
        _rt_sym_string(),
        _rt_sym_int(),
        _rt_make_symbolic(),
    )


__all__ = [
    "Asm", "HP_ADDR", "LINE_ADDR", "NONE_ADDR", "TAG_DICT", "TAG_INT",
    "TAG_LIST", "TAG_NONE", "TAG_STR", "build_runtime",
]
