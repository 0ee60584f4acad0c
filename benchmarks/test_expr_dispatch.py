"""Micro-benchmark: table-dispatched concrete operators vs the seed if-chain.

``_apply_binop`` is the single hottest function in ``_eval`` (every
``conc()`` shadow evaluation of every instruction lands there), so PR 4
replaced the 19-arm if-chain with a module-level table of ``operator``
based functions.  This benchmark keeps a faithful copy of the seed's
if-chain and times both over the full operator mix; the win is reported
through :func:`update_bench_json`.  Two things are asserted: semantic
equivalence over the whole operator space, and the dispatch contract,
counted in executed bytecodes rather than timed.  The table runs the same
number of bytecodes for every operator, and fewer than the if-chain's
mean over the mix, which grows with an operator's place in the chain.
The wall-clock ratio is only reported: on a shared host it read 0.96×
to 1.85× between runs of identical code.
"""

import statistics
import sys
import time

from repro.bench.perfjson import update_bench_json
from repro.bench.reporting import render_table
from repro.lowlevel.expr import BINOPS, UNOPS, _apply_binop, _apply_unop


def _seed_apply_binop(op, a, b):
    """The seed's if-chain, kept verbatim as the comparison baseline."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise ZeroDivisionError("guest division by zero")
        return a // b
    if op == "mod":
        if b == 0:
            raise ZeroDivisionError("guest modulo by zero")
        return a % b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << b
    if op == "shr":
        return a >> b
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    if op == "lt":
        return int(a < b)
    if op == "le":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "ge":
        return int(a >= b)
    if op == "land":
        return int(bool(a) and bool(b))
    if op == "lor":
        return int(bool(a) or bool(b))
    raise ValueError(f"unknown binary operator {op!r}")


def _seed_apply_unop(op, a):
    if op == "neg":
        return -a
    if op == "bnot":
        return ~a
    if op == "lnot":
        return int(a == 0)
    raise ValueError(f"unknown unary operator {op!r}")


#: Every binop applied to operands that are legal for all of them.
_WORKLOAD = [(op, a, b) for op in sorted(BINOPS) for a in (0, 7, 255) for b in (1, 3, 64)]


def _time_fn(fn, repeats: int = 5, loops: int = 200) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for op, a, b in _WORKLOAD:
                fn(op, a, b)
        best = min(best, time.perf_counter() - start)
    return best


def _bytecodes(fn, op) -> int:
    """Bytecodes executed in ``fn``'s own frame by ``fn(op, 7, 3)``."""
    code = fn.__code__
    count = 0

    def local(frame, event, _arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def tracer(frame, _event, _arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(op, 7, 3)
    finally:
        sys.settrace(previous)
    return count


def test_binop_dispatch_table(benchmark, report):
    # Semantic equivalence over the full operator space, including the
    # error paths, is the hard requirement — workers=1 must stay
    # bit-for-bit identical to the seed engine.
    for op in sorted(BINOPS):
        for a in (-9, -1, 0, 1, 7, 255):
            for b in (-3, 1, 2, 64):
                try:
                    expected = _seed_apply_binop(op, a, b)
                except (ZeroDivisionError, ValueError) as exc:
                    expected = type(exc)
                try:
                    actual = _apply_binop(op, a, b)
                except (ZeroDivisionError, ValueError) as exc:
                    actual = type(exc)
                assert actual == expected, (op, a, b, actual, expected)
    for op in sorted(UNOPS):
        for a in (-9, 0, 1, 255):
            assert _apply_unop(op, a) == _seed_apply_unop(op, a), (op, a)

    # The dispatch contract, counted: one table lookup costs the same for
    # every operator, and less than walking the chain does on average.
    table_codes = {op: _bytecodes(_apply_binop, op) for op in sorted(BINOPS)}
    chain_codes = {op: _bytecodes(_seed_apply_binop, op) for op in sorted(BINOPS)}
    assert len(set(table_codes.values())) == 1, table_codes
    table_cost = table_codes["add"]
    chain_mean = statistics.mean(chain_codes.values())
    assert table_cost < chain_mean, (table_codes, chain_codes)

    def run():
        chain = _time_fn(_seed_apply_binop)
        table = _time_fn(_apply_binop)
        return chain, table

    chain, table = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = chain / table if table else 0.0
    ops = len(_WORKLOAD) * 200

    report(
        "Concrete binop dispatch: seed if-chain vs operator table",
        render_table(
            ["variant", "best-of-5 (s)", "ns/op", "bytecodes/op"],
            [
                ["seed if-chain", f"{chain:.4f}", f"{1e9 * chain / ops:.1f}",
                 f"{chain_mean:.1f} (mean)"],
                ["operator table", f"{table:.4f}", f"{1e9 * table / ops:.1f}",
                 str(table_cost)],
                ["speedup", f"{ratio:.2f}x", "", ""],
            ],
        ),
    )
    update_bench_json(
        "expr_dispatch",
        {
            "ops_timed": ops,
            "if_chain_ns_per_op": round(1e9 * chain / ops, 2),
            "table_ns_per_op": round(1e9 * table / ops, 2),
            "speedup": round(ratio, 3),
            "if_chain_bytecodes_mean": round(chain_mean, 2),
            "table_bytecodes": table_cost,
        },
    )
