"""Three-address IR for the PyLite frontend.

The lowering pipeline is ``ast`` → TAC → CFG → LIR: :mod:`.lower` flattens
the Python AST into these instructions, :mod:`.cfg` recovers basic blocks,
and :mod:`.emit` walks the blocks emitting LVM bytecode.  The opcode set is
deliberately small (~20 ops, the red-dragon shape from ROADMAP) and every
operand is a temp index, so the emitter is a single linear pass.

Temps ``0..len(params)-1`` are the function parameters; named locals get
dedicated temps after the parameters; expression temps follow.  Jump
targets (``JMP.target``, ``CJMP.on_true``/``on_false``) are instruction
indices within the owning function — :func:`TacFunction.dump` renders them
as ``@N`` so golden tests pin the exact flattened shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# -- opcodes ------------------------------------------------------------------

CONST = "const"        # dst <- int immediate
STR = "str"            # dst <- string constant (extra)
NONE = "none"          # dst <- None
MOVE = "move"          # dst <- temp a
BIN = "bin"            # dst <- a <extra> b   (add sub mul floordiv mod
                       #                       eq ne lt le gt ge)
UN = "un"              # dst <- <extra> a     (neg, not)
INDEX = "index"        # dst <- a[b]
SETINDEX = "setindex"  # args[0][args[1]] <- args[2]
LIST = "list"          # dst <- [args...]
DICT = "dict"          # dst <- {args[0]: args[1], args[2]: args[3], ...}
CALL = "call"          # dst <- extra(args...)        user function
BUILTIN = "builtin"    # dst <- extra(args...)        runtime builtin
GLOAD = "gload"        # dst <- global <extra>; b set: main bound it on
                       #   every path here, so no NameError check
GSTORE = "gstore"      # global <extra> <- temp a
JMP = "jmp"            # goto instruction index target
CJMP = "cjmp"          # if truthy(a) goto on_true else on_false
RET = "ret"            # return temp a
LINE = "line"          # statement boundary: lineno a, statement kind b
CHK = "chk"            # raise UnboundLocalError if temp a is unassigned
RAISE = "raise"        # raise exception type <extra>

OPCODES = (
    CONST, STR, NONE, MOVE, BIN, UN, INDEX, SETINDEX, LIST, DICT, CALL,
    BUILTIN, GLOAD, GSTORE, JMP, CJMP, RET, LINE, CHK, RAISE,
)

#: statement kinds carried by LINE (the ``opcode`` operand of ``log_pc``).
STMT_KINDS = {
    "assign": 1, "if": 2, "while": 3, "for": 4, "expr": 5, "return": 6,
    "assert": 7, "raise": 8, "break": 9, "continue": 10, "pass": 11,
}

#: PyLite exception type ids.  The numbers are fixed: the hand-assembled
#: runtime (``runtime.py``) raises by id, and test cases record the id as
#: ``exception_type``, which the CPython replay must reproduce.
EXC_IDS: Dict[str, int] = {
    "Exception": 1,
    "ValueError": 2,
    "TypeError": 3,
    "KeyError": 4,
    "IndexError": 5,
    "AssertionError": 6,
    "ZeroDivisionError": 7,
    "RuntimeError": 8,
    "StopIteration": 9,
    "NameError": 10,
    "UnboundLocalError": 11,
}

EXC_NAMES: Dict[int, str] = {v: k for k, v in EXC_IDS.items()}


@dataclass(slots=True)
class TacInstr:
    """One TAC instruction; operand meaning depends on ``op``."""

    op: str
    dst: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    extra: object = None
    args: Optional[List[int]] = None
    line: int = 0

    def render(self) -> str:
        op = self.op
        if op == CONST:
            return f"t{self.dst} = {self.a}"
        if op == STR:
            return f"t{self.dst} = {self.extra!r}"
        if op == NONE:
            return f"t{self.dst} = None"
        if op == MOVE:
            return f"t{self.dst} = t{self.a}"
        if op == BIN:
            return f"t{self.dst} = t{self.a} {self.extra} t{self.b}"
        if op == UN:
            return f"t{self.dst} = {self.extra} t{self.a}"
        if op == INDEX:
            return f"t{self.dst} = t{self.a}[t{self.b}]"
        if op == SETINDEX:
            obj, idx, val = self.args
            return f"t{obj}[t{idx}] = t{val}"
        if op == LIST:
            elems = ", ".join(f"t{t}" for t in self.args or ())
            return f"t{self.dst} = [{elems}]"
        if op == DICT:
            pairs = self.args or ()
            body = ", ".join(
                f"t{pairs[i]}: t{pairs[i + 1]}" for i in range(0, len(pairs), 2)
            )
            return f"t{self.dst} = {{{body}}}"
        if op in (CALL, BUILTIN):
            argl = ", ".join(f"t{t}" for t in self.args or ())
            return f"t{self.dst} = {self.extra}({argl})"
        if op == GLOAD:
            return f"t{self.dst} = global {self.extra}" + (" (bound)" if self.b else "")
        if op == GSTORE:
            return f"global {self.extra} = t{self.a}"
        if op == JMP:
            return f"jmp @{self.extra}"
        if op == CJMP:
            return f"if t{self.a} jmp @{self.b} else @{self.extra}"
        if op == RET:
            return f"ret t{self.a}"
        if op == LINE:
            return f"line {self.a} kind={self.b}"
        if op == CHK:
            return f"chk t{self.a} ({self.extra})"
        if op == RAISE:
            return f"raise {self.extra}"
        raise AssertionError(f"unknown TAC op {op!r}")


@dataclass
class TacFunction:
    """A lowered function: flat instruction list plus temp bookkeeping."""

    name: str
    params: List[str]
    n_temps: int
    instrs: List[TacInstr] = field(default_factory=list)
    #: temps holding named locals (name -> temp index), params included.
    local_slots: Dict[str, int] = field(default_factory=dict)

    def dump(self) -> str:
        header = f"func {self.name}({', '.join(self.params)}) temps={self.n_temps}"
        body = "\n".join(
            f"  {i:3d}: {instr.render()}" for i, instr in enumerate(self.instrs)
        )
        return f"{header}\n{body}" if body else header


@dataclass
class TacModule:
    """A lowered module: ``main`` (module body) plus user functions."""

    functions: Dict[str, TacFunction]
    #: module-level names, in first-binding order (become global cells).
    global_names: List[str]
    #: every source line that owns a LINE marker (coverable set).
    coverable_lines: Tuple[int, ...]

    def dump(self) -> str:
        order = ["main"] + sorted(n for n in self.functions if n != "main")
        return "\n\n".join(self.functions[name].dump() for name in order)


__all__ = [
    "BIN", "BUILTIN", "CALL", "CHK", "CJMP", "CONST", "DICT", "EXC_IDS",
    "EXC_NAMES", "GLOAD", "GSTORE", "INDEX", "JMP", "LINE", "LIST", "MOVE",
    "NONE", "OPCODES", "RAISE", "RET", "SETINDEX", "STMT_KINDS", "STR",
    "TacFunction", "TacInstr", "TacModule", "UN",
]
