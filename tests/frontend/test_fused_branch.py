"""Fused compare-and-branch in emitted PyLite code.

A TAC compare whose only reader is the ``CJMP`` right after it lowers to
one call of a word-valued runtime compare (``rt_eqw``, ``rt_ltw``, ...)
and a ``BR`` on that word: no box, no ``rt_truth``.  These pin where the
fusion applies, where it must not, and that fused branches raise and
fork exactly as CPython and the boxed compares do.
"""

from __future__ import annotations

from repro.frontend import compile_pylite, tac
from repro.frontend.cfg import build_cfg
from repro.frontend.emit import emit_program
from repro.interpreters.pylite.engine import PyLiteEngine
from repro.lowlevel.program import Opcode
from repro.targets import pylite_packages as PL

_WORD_COMPARES = {"rt_eqw", "rt_ltw", "rt_lew", "rt_gtw", "rt_gew"}


def _callees(fn):
    return [ins.extra for ins in fn.instrs if ins.op == Opcode.CALL]


def _explore(source):
    engine = PyLiteEngine(source)
    suite = engine.run().suite
    reports = engine.differential_sweep(suite)
    assert all(r.matches for r in reports), [r.detail for r in reports]
    return engine, suite.cases


def test_turnstile_branches_call_no_rt_truth():
    program = compile_pylite(PL.TURNSTILE_SOURCE).build_program()
    for name in ("py_step", "py_run_machine"):
        fn = program.functions[name]
        callees = _callees(fn)
        assert "rt_truth" not in callees, name
        assert _WORD_COMPARES & set(callees), name
        # Each word compare feeds the BR right after it.
        for pc, ins in enumerate(fn.instrs):
            if ins.op == Opcode.CALL and ins.extra in _WORD_COMPARES:
                branch = fn.instrs[pc + 1]
                assert branch.op == Opcode.BR and branch.a == ins.dst, (name, pc)


BRANCH_SOURCE = (
    "n = sym_int(5, 0, 9)\n"
    "if n < 3:\n"
    "    print(0)\n"
    "else:\n"
    "    print(1)\n"
)


def _main_callees(module):
    cfgs = {name: build_cfg(fn) for name, fn in module.functions.items()}
    return _callees(emit_program(module, cfgs).functions["main"])


def test_compare_with_a_second_reader_is_not_fused():
    compiled = compile_pylite(BRANCH_SOURCE)
    main = compiled.module.functions["main"]
    # t6 = t4 lt t5 at 9, "if t6" at 10, and "t7 = 0" at 12 (see the
    # BRANCH golden in test_golden.py).
    compare, branch = main.instrs[9], main.instrs[10]
    assert (compare.op, compare.extra, branch.op, branch.a) == (
        tac.BIN, "lt", tac.CJMP, compare.dst)
    fused = _main_callees(compiled.module)
    assert "rt_ltw" in fused and "rt_lt" not in fused and "rt_truth" not in fused

    # Print the compare's value too: the branch must read a real box.
    main.instrs[12] = tac.TacInstr(tac.MOVE, dst=7, a=compare.dst, line=3)
    unfused = _main_callees(compiled.module)
    assert "rt_lt" in unfused and "rt_truth" in unfused and "rt_ltw" not in unfused


def test_stored_compare_keeps_the_boxed_form():
    source = (
        "def check(n):\n"
        "    small = n < 3\n"
        "    if small:\n"
        "        return small + 10\n"
        "    return small\n"
        "print(check(sym_int(5, 0, 9)))\n"
    )
    callees = _callees(compile_pylite(source).build_program().functions["py_check"])
    assert "rt_lt" in callees and "rt_truth" in callees
    _engine, cases = _explore(source)
    assert sorted(c.output for c in cases) == [[0, 10], [11, 10]]


def test_fused_order_compare_raises_type_error_like_cpython():
    source = (
        "n = sym_int(1, 0, 3)\n"
        "if n < 2:\n"
        "    print(n)\n"
        'if "a" < n:\n'
        "    print(2)\n"
    )
    assert "rt_ltw" in _callees(compile_pylite(source).build_program().functions["main"])
    engine, cases = _explore(source)
    assert len(cases) == 2
    assert {engine.exception_name(c.exception_type) for c in cases} == {"TypeError"}


def test_fused_ne_on_a_symbolic_string_forks_both_ways():
    source = (
        's = sym_string("ab")\n'
        'if s != "ab":\n'
        "    print(1)\n"
        "else:\n"
        "    print(0)\n"
    )
    callees = _callees(compile_pylite(source).build_program().functions["main"])
    assert "rt_eqw" in callees and "rt_ne" not in callees
    _engine, cases = _explore(source)
    assert sorted(c.output for c in cases) == [[0, 10], [1, 10]]
    taken = {tuple(c.output): c.input_string("b0") for c in cases}
    assert taken[(0, 10)] == "ab" and taken[(1, 10)] != "ab"
