"""PyLite engine facade: source → symbolic execution → replayable tests.

The facade ``Session``/symtest/service drive through the
:class:`~repro.api.language.GuestLanguage` protocol.  The program under
test is compiled straight to LVM bytecode by :mod:`repro.frontend`, so
there is no interpreter in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.chef.engine import Chef, RunResult
from repro.chef.options import ChefConfig
from repro.chef.testcase import TestCase, TestSuite
from repro.frontend import CompiledPyLite, compile_pylite
from repro.frontend.tac import EXC_NAMES
from repro.interpreters.pylite.hostvm import HostRunResult, PyLiteHostVM
from repro.lowlevel.program import Program
from repro.solver.backend import SolverBackend


@dataclass
class DifferentialReport:
    """Outcome of one LVM-vs-CPython replay comparison (§6.6)."""

    case_id: int
    matches: bool
    detail: str = ""


class PyLiteEngine:
    """A symbolic execution engine for PyLite, built on the frontend."""

    def __init__(
        self,
        source: str,
        config: Optional[ChefConfig] = None,
        solver: Optional[SolverBackend] = None,
    ):
        self.source = source
        self.config = config if config is not None else ChefConfig()
        self.solver = solver
        self.compiled: CompiledPyLite = compile_pylite(source)

    # -- build ---------------------------------------------------------------

    def build_program(self) -> Program:
        """Fresh LVM program, one per run (its runtime functions are shared)."""
        return self.compiled.build_program()

    # -- symbolic execution ---------------------------------------------------

    def make_chef(self) -> Chef:
        return Chef(self.build_program(), self.config, solver=self.solver)

    def run(self) -> RunResult:
        return self.make_chef().run()

    # -- replay & coverage ----------------------------------------------------

    @staticmethod
    def ordered_inputs(case: TestCase) -> List[List[int]]:
        """Symbolic buffers in creation order (b0, b1, ...)."""
        keys = sorted(case.inputs, key=lambda k: int(k[1:]))
        return [case.inputs[k] for k in keys]

    def replay(self, case: TestCase) -> HostRunResult:
        """Re-execute a generated test under vanilla CPython (§6.1)."""
        vm = PyLiteHostVM(self.source, symbolic_inputs=self.ordered_inputs(case))
        return vm.run()

    def coverage(self, suite: TestSuite, replay_all: bool = False) -> Tuple[Set[int], int]:
        """Replay tests and report (covered lines, coverable line count)."""
        covered: Set[int] = set()
        cases = suite.cases if replay_all else suite.high_level_tests()
        for case in cases:
            result = self.replay(case)
            covered |= result.covered_lines
        coverable = set(self.compiled.coverable_lines)
        return covered & coverable, len(coverable)

    def exception_name(self, type_id: int) -> str:
        return EXC_NAMES.get(type_id, f"<exc:{type_id}>")

    # -- differential check ---------------------------------------------------

    def differential_check(self, case: TestCase) -> DifferentialReport:
        """Replay ``case`` concretely and compare observable behaviour.

        Hang cases (path budget exhausted mid-run) are vacuously accepted:
        the LVM output is a prefix cut at an arbitrary instruction, so
        there is nothing meaningful to compare.
        """
        if case.hang:
            return DifferentialReport(case.test_id, True, "hang: skipped")
        host = self.replay(case)
        host_exc = host.exception.type_id if host.exception else None
        if host.hit_budget:
            return DifferentialReport(
                case.test_id, False, "replay exceeded the host budget"
            )
        if list(host.output) != list(case.output):
            return DifferentialReport(
                case.test_id, False,
                f"output mismatch: lvm={case.output!r} host={host.output!r}",
            )
        if host_exc != case.exception_type:
            return DifferentialReport(
                case.test_id, False,
                f"exception mismatch: lvm={case.exception_type!r} "
                f"host={host_exc!r}",
            )
        return DifferentialReport(case.test_id, True)

    def differential_sweep(self, suite: TestSuite) -> List[DifferentialReport]:
        """One report per case; the pack tests assert all(r.matches)."""
        return [self.differential_check(case) for case in suite.cases]


__all__ = ["DifferentialReport", "PyLiteEngine"]
