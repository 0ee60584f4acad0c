"""Shared Clay guest generators for benchmarks and tests.

The parallel determinism tests and the speedup benchmark must measure the
*same* workload — CI asserts path-set equality on what the benchmark
times — so the generators live here once instead of being copy-pasted
into each file.
"""

from __future__ import annotations


def branchy_source(n: int) -> str:
    """One independent branch per byte: ``2**n`` feasible paths.

    Each byte is its own constraint component, which is what lets the
    model-cache subset/superset reuse shine on this workload.
    """
    lines = [
        "const BUF = 700;",
        "fn main() {",
        f"    make_symbolic(BUF, {n}, 0, 255);",
        "    var acc = 0;",
    ]
    for i in range(n):
        lines.append(f"    var c{i} = load(BUF + {i});")
        lines.append(f"    if (c{i} == {ord('a') + i}) {{ acc = acc + {1 << i}; }}")
    lines.append("    out(acc);")
    lines.append("    end_symbolic();")
    lines.append("}")
    return "\n".join(lines)


def traced_source(n: int) -> str:
    """Branchy guest that also reports HLPCs through log_pc (Chef mode)."""
    lines = [
        "const BUF = 700;",
        "fn main() {",
        f"    make_symbolic(BUF, {n}, 0, 255);",
        "    log_pc(100, 1);",
        "    var acc = 0;",
    ]
    for i in range(n):
        lines.append(f"    var c{i} = load(BUF + {i});")
        lines.append(
            f"    if (c{i} == {ord('a') + i}) {{ log_pc({200 + i}, 2); "
            f"acc = acc + {1 << i}; }} else {{ log_pc({300 + i}, 2); }}"
        )
    lines.append("    log_pc(400, 3);")
    lines.append("    out(acc);")
    lines.append("    end_symbolic();")
    lines.append("}")
    return "\n".join(lines)


def deep_traced_source(n: int, prelude: int = 64) -> str:
    """Traced branchy guest with a long pre-branch HLPC prelude.

    Real interpreters execute a long stretch of high-level instructions
    (startup, program load, dispatch warm-up) before the first symbolic
    branch; every path's trace carries that prefix.  This models it with
    ``prelude`` extra ``log_pc`` reports up front — the workload where
    O(path-depth) full-trace replay per pending state is visibly worse
    than O(since-restore-suffix) grafting, since the prefix is shared by
    all ``2**n`` paths but replayed per state by the naive scheme.
    """
    lines = [
        "const BUF = 700;",
        "fn main() {",
        f"    make_symbolic(BUF, {n}, 0, 255);",
    ]
    for i in range(prelude):
        lines.append(f"    log_pc({1000 + i}, 1);")
    lines.append("    var acc = 0;")
    for i in range(n):
        lines.append(f"    var c{i} = load(BUF + {i});")
        lines.append(
            f"    if (c{i} == {ord('a') + i}) {{ log_pc({200 + i}, 2); "
            f"acc = acc + {1 << i}; }} else {{ log_pc({300 + i}, 2); }}"
        )
    lines.append("    log_pc(400, 3);")
    lines.append("    out(acc);")
    lines.append("    end_symbolic();")
    lines.append("}")
    return "\n".join(lines)


__all__ = ["branchy_source", "deep_traced_source", "traced_source"]
