"""LIR: the instruction set of the low-level virtual machine (LVM).

The LVM plays the role of the x86 machine under S2E in the paper: the Clay
compiler (:mod:`repro.clay`) lowers interpreter source code to LIR, and the
low-level engine executes LIR symbolically, oblivious to any high-level
program the interpreter may itself be interpreting.

Design notes:

- register machine with per-function virtual registers (all operands are
  register indices; immediates are materialised by ``CONST``),
- word-oriented memory addressed by integers (no byte packing — this keeps
  the memory model simple without changing the path structure),
- ``HYPER`` instructions are the guest→engine API (Table 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MachineError


class Opcode:
    """LIR opcodes (plain ints for dispatch speed)."""

    CONST = 0   # dst <- imm (a holds the immediate)
    MOVE = 1    # dst <- reg a
    BIN = 2     # dst <- a <extra> b
    UN = 3      # dst <- <extra> a
    LOAD = 4    # dst <- memory[reg a]
    STORE = 5   # memory[reg a] <- reg b
    JMP = 6     # goto instruction index a
    BR = 7      # if reg a then goto b else goto extra
    CALL = 8    # dst <- call extra(args...)
    RET = 9     # return reg a (or 0 when a is None)
    HYPER = 10  # dst <- hypercall extra(args...)

    NAMES = {
        CONST: "const", MOVE: "move", BIN: "bin", UN: "un", LOAD: "load",
        STORE: "store", JMP: "jmp", BR: "br", CALL: "call", RET: "ret",
        HYPER: "hyper",
    }


class Instr:
    """One LIR instruction; field meaning depends on :class:`Opcode`."""

    __slots__ = ("op", "dst", "a", "b", "extra", "args")

    def __init__(self, op: int, dst=None, a=None, b=None, extra=None, args=None):
        self.op = op
        self.dst = dst
        self.a = a
        self.b = b
        self.extra = extra
        self.args = args

    def __repr__(self) -> str:
        name = Opcode.NAMES.get(self.op, f"op{self.op}")
        parts = [name]
        if self.dst is not None:
            parts.append(f"r{self.dst} <-")
        if self.op == Opcode.CONST:
            parts.append(str(self.a))
        elif self.op == Opcode.BIN:
            parts.append(f"r{self.a} {self.extra} r{self.b}")
        elif self.op == Opcode.UN:
            parts.append(f"{self.extra} r{self.a}")
        elif self.op in (Opcode.MOVE, Opcode.LOAD, Opcode.RET):
            parts.append("r%s" % self.a if self.a is not None else "-")
        elif self.op == Opcode.STORE:
            parts.append(f"[r{self.a}] <- r{self.b}")
        elif self.op == Opcode.JMP:
            parts.append(f"@{self.a}")
        elif self.op == Opcode.BR:
            parts.append(f"r{self.a} ? @{self.b} : @{self.extra}")
        elif self.op in (Opcode.CALL, Opcode.HYPER):
            arglist = ", ".join(f"r{r}" for r in (self.args or ()))
            parts.append(f"{self.extra}({arglist})")
        return " ".join(parts)


@dataclass
class Function:
    """A compiled LIR function.

    A function is not changed once built, so one object may sit in many
    programs (every PyLite program holds the same runtime functions).
    Its global instruction ids therefore belong to the :class:`Program`.
    """

    name: str
    n_params: int
    n_regs: int
    instrs: List[Instr] = field(default_factory=list)
    #: optional source line per instruction (debugging).
    lines: List[int] = field(default_factory=list)
    #: the executor's decode cache (entry pc -> block, pc -> op), shared
    #: by every engine that runs this function; never pickled or compared.
    blocks: Dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    ops: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["blocks"]
        state.pop("ops", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.blocks = {}

    def disassemble(self) -> str:
        header = f"fn {self.name}({self.n_params} params, {self.n_regs} regs)"
        body = "\n".join(f"  {i:4d}: {instr!r}" for i, instr in enumerate(self.instrs))
        return f"{header}\n{body}"


class Program:
    """A complete LIR program: functions, static data and an entry point."""

    def __init__(self, entry: str = "main"):
        self.functions: Dict[str, Function] = {}
        self.entry = entry
        #: initial memory image (word address -> int).
        self.static_data: Dict[int, int] = {}
        #: first address past static data; guests initialise heaps here.
        self.data_end: int = 0
        self._finalized = False
        #: function name -> global id of its instruction 0 (finalize()).
        self._base_ids: Dict[str, int] = {}

    def add_function(self, func: Function) -> None:
        if self._finalized:
            raise MachineError("cannot add functions after finalize()")
        if func.name in self.functions:
            raise MachineError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func

    def set_static(self, addr: int, values: Sequence[int]) -> None:
        for offset, value in enumerate(values):
            self.static_data[addr + offset] = value
        self.data_end = max(self.data_end, addr + len(values))

    def finalize(self) -> "Program":
        """Assign global instruction ids; must be called before execution.

        Functions are laid out back to back in name order.
        """
        next_id = 0
        self._base_ids = {}
        for name in sorted(self.functions):
            self._base_ids[name] = next_id
            next_id += len(self.functions[name].instrs)
        self._finalized = True
        return self

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._finalized:
            # Ids derive from the functions.  Images pickled while they
            # lived on each Function (older checkpoints) carry none here.
            self.finalize()

    @property
    def finalized(self) -> bool:
        return self._finalized

    def instr_id(self, name: str, index: int) -> int:
        """Globally unique low-level PC of instruction ``index`` of ``name``."""
        try:
            return self._base_ids[name] + index
        except KeyError:
            raise MachineError(
                f"function {name!r} is not in the finalized program"
            ) from None

    def locate(self, instr_id: int) -> Tuple[str, int]:
        """Map a global low-level PC back to (function, index)."""
        for name, base in self._base_ids.items():
            index = instr_id - base
            if 0 <= index < len(self.functions[name].instrs):
                return name, index
        raise MachineError(f"unknown instruction id {instr_id}")

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise MachineError(f"undefined function {name!r}") from None

    def total_instrs(self) -> int:
        return sum(len(f.instrs) for f in self.functions.values())

    def disassemble(self) -> str:
        return "\n\n".join(
            self.functions[name].disassemble() for name in sorted(self.functions)
        )


class FunctionBuilder:
    """Incrementally builds a :class:`Function` (used by the Clay codegen)."""

    def __init__(self, name: str, n_params: int):
        self.name = name
        self.n_params = n_params
        self._next_reg = n_params
        self.instrs: List[Instr] = []
        self.lines: List[int] = []
        self._labels: Dict[int, Optional[int]] = {}
        self._next_label = 0
        self._current_line = 0

    def set_line(self, line: int) -> None:
        self._current_line = line

    def new_reg(self) -> int:
        reg = self._next_reg
        self._next_reg += 1
        return reg

    def new_regs(self, n: int) -> int:
        """Reserve ``n`` consecutive registers; returns the first."""
        reg = self._next_reg
        self._next_reg += n
        return reg

    def new_label(self) -> int:
        label = self._next_label
        self._next_label += 1
        self._labels[label] = None
        return label

    def place_label(self, label: int) -> None:
        if self._labels.get(label) is not None:
            raise MachineError(f"label {label} placed twice in {self.name}")
        self._labels[label] = len(self.instrs)

    def emit(self, op: int, dst=None, a=None, b=None, extra=None, args=None) -> int:
        instrs = self.instrs
        instrs.append(Instr(op, dst, a, b, extra, args))
        self.lines.append(self._current_line)
        return len(instrs) - 1

    def extend(self, instrs: Sequence[Instr]) -> None:
        """Append ``instrs``, all on the current line."""
        self.instrs += instrs
        self.lines += [self._current_line] * len(instrs)

    def const(self, value: int) -> int:
        dst = self.new_reg()
        self.emit(Opcode.CONST, dst, value)
        return dst

    def finish(self) -> Function:
        # Patch label references: JMP.a, BR.b, BR.extra hold label tokens
        # wrapped as ("label", n) until now.
        resolved = {}
        for label, index in self._labels.items():
            if index is None:
                raise MachineError(f"label {label} never placed in {self.name}")
            resolved[label] = index

        def patch(value):
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "label":
                return resolved[value[1]]
            return value

        jmp, br = Opcode.JMP, Opcode.BR
        for instr in self.instrs:
            op = instr.op
            if op == jmp:
                instr.a = patch(instr.a)
            elif op == br:
                instr.b = patch(instr.b)
                instr.extra = patch(instr.extra)
        func = Function(
            name=self.name,
            n_params=self.n_params,
            n_regs=self._next_reg,
            instrs=self.instrs,
            lines=self.lines,
        )
        return func

    @staticmethod
    def label_ref(label: int) -> tuple:
        return ("label", label)
