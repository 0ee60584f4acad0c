"""PyLite frontend: restricted-but-real Python → TAC → CFG → LVM.

This package is the AST→IR lowering pipeline ROADMAP asks for: the stdlib
``ast`` module parses a real Python subset, :mod:`.lower` flattens it to a
~20-opcode three-address IR, :mod:`.cfg` recovers basic blocks, and
:mod:`.emit` walks the blocks emitting LVM bytecode against the
hand-assembled :mod:`.runtime` value library.  The result runs on the
same symbolic executor as the Clay-compiled interpreters — no new engine
code, which is the paper's whole point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.frontend.cfg import Cfg, build_cfg
from repro.frontend.emit import emit_program
from repro.frontend.lower import PyLiteSyntaxError, lower_module
from repro.frontend.tac import TacModule
from repro.lowlevel.program import Program


@dataclass
class CompiledPyLite:
    """A fully lowered PyLite module, ready to build Programs from."""

    source: str
    module: TacModule
    cfgs: Dict[str, Cfg] = field(default_factory=dict)

    @property
    def coverable_lines(self) -> Tuple[int, ...]:
        return self.module.coverable_lines

    def build_program(self) -> Program:
        """A fresh finalized LVM Program (one per Chef run)."""
        return emit_program(self.module, self.cfgs)

    def dump_ir(self) -> str:
        return self.module.dump()

    def dump_cfg(self) -> str:
        order = ["main"] + sorted(n for n in self.cfgs if n != "main")
        return "\n\n".join(self.cfgs[name].dump() for name in order)


def compile_pylite(source: str) -> CompiledPyLite:
    """Parse + lower + CFG-build PyLite source (no Program emitted yet)."""
    module = lower_module(source)
    cfgs = {name: build_cfg(fn) for name, fn in module.functions.items()}
    return CompiledPyLite(source=source, module=module, cfgs=cfgs)


__all__ = [
    "CompiledPyLite",
    "PyLiteSyntaxError",
    "compile_pylite",
]
