"""CPython-replay host VM for PyLite (the §6.6 differential oracle).

Tests replay in the real thing: the source is ``exec``'d under vanilla
CPython with a restricted global environment, the symbolic intrinsics
replaced by
input-buffer readers, and ``print``/``chr`` replaced by wrappers that
pin down the documented PyLite semantics (observable output is word
lists; characters are bytes).  A ``sys.settrace`` line tracer collects
covered lines and enforces the instruction budget.

Because the LVM run and this replay consume the *same* recorded input
buffers in the same declaration order, any divergence in observable
output or uncaught-exception type is a real semantic bug in the
frontend/runtime — that equivalence is what the differential tests
assert for every generated test case.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.frontend.tac import EXC_IDS

_FILENAME = "<pylite>"


class PyLiteHostException(Exception):
    """An uncaught guest exception observed during replay."""

    def __init__(self, type_id: int, message: str = "", name: str = ""):
        super().__init__(f"{name or type_id}: {message}")
        self.type_id = type_id
        self.message = message
        self.name = name


class _BudgetExceeded(BaseException):
    """Raised by the tracer; BaseException so guest code cannot catch it."""


@dataclass
class HostRunResult:
    """Observable outcome of one replay."""

    output: List[int] = field(default_factory=list)
    exception: Optional[PyLiteHostException] = None
    covered_lines: Set[int] = field(default_factory=set)
    hl_instrs: int = 0
    hit_budget: bool = False


def _exception_id(exc: BaseException) -> int:
    for klass in type(exc).__mro__:
        type_id = EXC_IDS.get(klass.__name__)
        if type_id is not None:
            return type_id
    return EXC_IDS["Exception"]


class PyLiteHostVM:
    """Executes PyLite source concretely under CPython."""

    def __init__(
        self,
        source: str,
        symbolic_inputs: Optional[Sequence[List[int]]] = None,
        instr_budget: int = 2_000_000,
    ):
        self.source = source
        self._inputs = [list(buf) for buf in symbolic_inputs or []]
        self._next_input = 0
        self._budget = instr_budget
        self.result = HostRunResult()

    # -- intrinsic / builtin replacements -------------------------------------

    def _next_buffer(self) -> Optional[List[int]]:
        if self._next_input < len(self._inputs):
            buf = self._inputs[self._next_input]
            self._next_input += 1
            return buf
        return None

    def _sym_string(self, seed):
        if not isinstance(seed, str):
            raise TypeError("sym_string() seed must be a string")
        buf = self._next_buffer()
        if buf is None:
            return seed  # seed path: no recorded inputs left
        return "".join(chr(c & 0xFF) for c in buf)

    def _sym_int(self, seed, lo=0, hi=255):
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError("sym_int() seed must be an integer")
        buf = self._next_buffer()
        if buf is None:
            return min(max(seed, lo), hi)
        return buf[0]

    def _make_symbolic(self, value):
        if isinstance(value, str):
            return self._sym_string(value)
        if isinstance(value, bool):
            raise TypeError("make_symbolic() takes an int or a string")
        if isinstance(value, int):
            buf = self._next_buffer()
            return value if buf is None else buf[0]
        raise TypeError("make_symbolic() takes an int or a string")

    def _print(self, value):
        out = self.result.output
        if isinstance(value, bool):
            out.extend([int(value), 10])
        elif isinstance(value, int):
            out.extend([value, 10])
        elif isinstance(value, str):
            out.extend([ord(c) for c in value])
            out.append(10)
        else:
            raise TypeError("print() takes an int or a string in PyLite")

    @staticmethod
    def _chr(value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError("chr() takes an integer")
        if not 0 <= value <= 255:
            raise ValueError("PyLite chr() argument must be in 0..255")
        return chr(value)

    # -- execution ------------------------------------------------------------

    def _tracer(self, frame, event, arg):
        if frame.f_code.co_filename != _FILENAME:
            return None
        if event == "line":
            self.result.covered_lines.add(frame.f_lineno)
            self.result.hl_instrs += 1
            if self.result.hl_instrs > self._budget:
                raise _BudgetExceeded
        return self._tracer

    def run(self) -> HostRunResult:
        env = {
            "__builtins__": {
                "len": len,
                "ord": ord,
                "range": range,
                "AssertionError": AssertionError,
                "ValueError": ValueError,
                "TypeError": TypeError,
                "KeyError": KeyError,
                "IndexError": IndexError,
                "ZeroDivisionError": ZeroDivisionError,
                "RuntimeError": RuntimeError,
                "NameError": NameError,
                "Exception": Exception,
                "StopIteration": StopIteration,
            },
            "chr": self._chr,
            "print": self._print,
            "sym_string": self._sym_string,
            "sym_int": self._sym_int,
            "make_symbolic": self._make_symbolic,
        }
        code = compile(self.source, _FILENAME, "exec")
        old_trace = sys.gettrace()
        sys.settrace(self._tracer)
        try:
            exec(code, env)  # noqa: S102 - the replay oracle by design
        except _BudgetExceeded:
            self.result.hit_budget = True
        except Exception as exc:  # uncaught guest exception
            self.result.exception = PyLiteHostException(
                _exception_id(exc), str(exc), type(exc).__name__
            )
        finally:
            sys.settrace(old_trace)
        return self.result


__all__ = ["HostRunResult", "PyLiteHostException", "PyLiteHostVM"]
