"""Literal-key subscripts and definitely-bound names, against CPython.

``d["key"]`` and ``d["key"] = v`` compile to ``rt_dget``/``rt_dset``,
which try the entry the site hit last before a full lookup, and a name
bound on every path to a read is read with no unbound check.  Neither
may change what a program does: every case here is replayed under
CPython (``differential_sweep``), and the outcomes are pinned.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.frontend import compile_pylite, tac
from repro.interpreters.pylite.engine import PyLiteEngine
from repro.targets import pylite_packages as PL


def _outcomes(source: str) -> Counter:
    """``(exception name or None, output)`` of every explored path."""
    engine = PyLiteEngine(source)
    suite = engine.run().suite
    reports = engine.differential_sweep(suite)
    assert reports and all(r.matches for r in reports), [r.detail for r in reports]
    return Counter(
        (
            engine.exception_name(case.exception_type)
            if case.exception_type is not None else None,
            tuple(case.output),
        )
        for case in suite.cases
    )


@pytest.mark.parametrize("value", ["[1, 2]", '"ab"', "7", "None"])
@pytest.mark.parametrize("access", ['print(x["k"])', 'x["k"] = 1'])
def test_literal_key_on_a_non_dict_raises_type_error(value, access):
    source = f"x = {value}\n{access}\n"
    assert _outcomes(source) == Counter({("TypeError", ()): 1})


def test_missing_literal_key_raises_key_error():
    source = 'd = {"a": 1}\nprint(d["a"])\nprint(d["b"])\n'
    assert _outcomes(source) == Counter({("KeyError", (1, 10)): 1})


def test_one_site_serves_dicts_with_different_key_orders():
    # get() and put() each have one site; the dicts' "b" entries sit at
    # different offsets, and z grows (moving its entries) between calls.
    source = (
        "def get(d):\n"
        '    return d["b"]\n'
        "def put(d, v):\n"
        '    d["b"] = v\n'
        'x = {"a": 1, "b": 2}\n'
        'y = {"b": 3, "a": 4}\n'
        "z = {}\n"
        "print(get(x))\n"
        "print(get(y))\n"
        "print(get(x))\n"
        "put(z, 5)\n"
        "for i in range(6):\n"
        "    z[i] = i\n"
        "put(y, 6)\n"
        "put(z, 7)\n"
        "put(x, 8)\n"
        "print(get(x))\n"
        "print(get(y))\n"
        "print(get(z))\n"
        "print(len(x) + len(y) + len(z))\n"
    )
    assert _outcomes(source) == Counter(
        {(None, (2, 10, 3, 10, 2, 10, 8, 10, 6, 10, 7, 10, 11, 10)): 1}
    )


def test_symbolic_key_forks_at_a_literal_key_lookup():
    source = 's = sym_string("b")\nd = {}\nd[s] = 1\nprint(d["a"])\n'
    assert _outcomes(source) == Counter({(None, (1, 10)): 1, ("KeyError", ()): 1})


def test_for_target_after_a_zero_iteration_loop_is_unbound():
    source = (
        "def last(n):\n"
        "    for i in range(n):\n"
        "        pass\n"
        "    return i\n"
        "print(last(sym_int(2, 0, 2)))\n"
    )
    assert _outcomes(source) == Counter(
        {("UnboundLocalError", ()): 1, (None, (0, 10)): 1, (None, (1, 10)): 1}
    )


def test_name_bound_only_in_a_while_body_is_unbound():
    source = (
        "def drain(n):\n"
        "    while n > 0:\n"
        "        y = n\n"
        "        n = n - 1\n"
        "    return y\n"
        "print(drain(sym_int(1, 0, 2)))\n"
    )
    assert _outcomes(source) == Counter(
        {("UnboundLocalError", ()): 1, (None, (1, 10)): 2}
    )


def test_global_bound_on_one_branch_only_raises_name_error():
    source = (
        "n = sym_int(1, 0, 1)\n"
        "if n:\n"
        "    z = 1\n"
        "else:\n"
        "    w = 2\n"
        "print(n)\n"
        "print(z)\n"
    )
    assert _outcomes(source) == Counter(
        {("NameError", (0, 10)): 1, (None, (1, 10, 1, 10)): 1}
    )
    main = compile_pylite(source).module.functions["main"].instrs
    loads = {i.extra: bool(i.b) for i in main if i.op == tac.GLOAD}
    assert loads == {"n": True, "z": False}


def test_turnstile_run_machine_checks_no_local():
    compiled = compile_pylite(
        f"{PL.TURNSTILE_SOURCE}\ncmds = sym_string(\"cp\")\n"
        f"{PL.TURNSTILE_TEST['body']}\n"
    )
    run_machine = compiled.module.functions["run_machine"]
    assert not [i for i in run_machine.instrs if i.op == tac.CHK]
    program = compiled.build_program()
    calls = Counter(
        ins.extra for name, fn in program.functions.items()
        if not name.startswith("rt_") for ins in fn.instrs
    )
    assert calls["rt_chklocal"] == calls["rt_chkname"] == 0
    # Every subscript but ``cmds[i]`` has a literal key.
    assert (calls["rt_dget"], calls["rt_dset"], calls["rt_index"]) == (6, 7, 1)
