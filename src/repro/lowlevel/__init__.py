"""Low-level symbolic execution substrate (the S2E stand-in).

This subpackage provides:

- :mod:`repro.lowlevel.expr` — symbolic expression DAG over integers,
- :mod:`repro.lowlevel.program` — the LIR instruction set and program model,
- :mod:`repro.lowlevel.machine` — machine state (frames, a flat word
  memory copied on fork),
- :mod:`repro.lowlevel.executor` — the concolic low-level engine,
- :mod:`repro.lowlevel.api` — the Chef guest API (Table 1 of the paper).
"""

from repro.lowlevel.expr import (
    BinExpr,
    Expr,
    Sym,
    UnExpr,
    is_symbolic,
    mk_binop,
    mk_unop,
    negate_condition,
)
from repro.lowlevel.program import (
    Function,
    Instr,
    Opcode,
    Program,
)
from repro.lowlevel.machine import Frame, MachineState, Status
from repro.lowlevel.executor import (
    ExecutorConfig,
    LowLevelEngine,
    PathEvent,
    State,
)

__all__ = [
    "BinExpr",
    "Expr",
    "ExecutorConfig",
    "Frame",
    "Function",
    "Instr",
    "LowLevelEngine",
    "MachineState",
    "Opcode",
    "PathEvent",
    "Program",
    "State",
    "Status",
    "Sym",
    "UnExpr",
    "is_symbolic",
    "mk_binop",
    "mk_unop",
    "negate_condition",
]
