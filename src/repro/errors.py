"""Exception hierarchy shared across the repro package.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch library failures without accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SolverError(ReproError):
    """Raised when the constraint solver is misused or fails internally."""


class SolverTimeout(SolverError):
    """Raised when a solver query exceeds its search budget.

    The paper treats queries the solver cannot decide as a completeness
    caveat; the engine converts this into a discarded state.
    """


class SolverDeadline(SolverTimeout):
    """Raised when a solver query exceeds its wall-clock deadline.

    A subclass of :class:`SolverTimeout` so every existing handler
    degrades it to ``unknown``; kept distinct so deadline expiries are
    counted separately (``solver.deadline_unknowns``) from step-budget
    exhaustion — a wedged backend and a hard query are different
    operational problems.
    """


class MachineError(ReproError):
    """Raised for faults inside the low-level virtual machine (LVM)."""


class GuestFault(MachineError):
    """A guest program performed an illegal operation (bad memory access,
    division by zero with concrete operands, stack overflow, ...)."""


class ClayError(ReproError):
    """Base class for errors from the Clay language toolchain."""


class ClaySyntaxError(ClayError):
    """Raised by the Clay lexer/parser on malformed source."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class ClayCompileError(ClayError):
    """Raised by the Clay code generator (undefined names, arity errors)."""


class InterpreterError(ReproError):
    """Base class for the MiniPy host toolchain."""


class MiniLangSyntaxError(InterpreterError):
    """Malformed MiniPy source."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class MiniLangCompileError(InterpreterError):
    """Semantic error while compiling MiniPy to bytecode."""


class HostVMError(InterpreterError):
    """Raised by the MiniPy host reference interpreter on internal faults."""
