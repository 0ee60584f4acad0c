"""SymbolicTest: declare symbolic inputs and a guest-language driver.

The paper's symbolic tests are classes whose ``runTest`` builds symbolic
inputs through ``getString``/``getInt`` (Fig. 7).  Here the same API
*generates* the guest-language driver code: each ``getString`` becomes a
``sym_string`` call in the guest, which the instrumented interpreter turns
into a ``make_symbolic`` hypercall on its character buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.api.language import get_language
from repro.errors import ReproError


@dataclass
class InputSpec:
    """One declared symbolic input."""

    kind: str          # "str" or "int"
    name: str          # guest variable name
    seed: object       # initial concrete value (str or int)
    lo: int = 0
    hi: int = 255


class SymbolicTest:
    """Base class for symbolic tests (mirrors the paper's Fig. 7).

    Subclasses override :meth:`setUp` (optional) and :meth:`runTest`; both
    may call :meth:`getString` / :meth:`getInt` to declare inputs and
    :meth:`emit` to append driver statements written in the guest
    language.  ``language`` names a registered guest language
    (default "pylite").
    """

    language = "pylite"

    def __init__(self):
        self.inputs: List[InputSpec] = []
        self._lines: List[str] = []
        self._names = set()

    # -- the Fig. 7 API -------------------------------------------------------

    def setUp(self) -> None:
        """Prepare the test (override as needed)."""

    def runTest(self) -> None:
        raise NotImplementedError("symbolic tests must define runTest()")

    def getString(self, name: str, seed: str) -> str:
        """Declare a symbolic string; returns the guest variable name."""
        self._declare(name)
        self.inputs.append(InputSpec("str", name, seed))
        self._lines.append(self.guest_language().declare_string(name, seed))
        return name

    def getInt(self, name: str, seed: int, lo: int = 0, hi: int = 255) -> str:
        """Declare a symbolic integer with an inclusive domain."""
        self._declare(name)
        self.inputs.append(InputSpec("int", name, seed, lo, hi))
        self._lines.append(self.guest_language().declare_int(name, seed, lo, hi))
        return name

    def guest_language(self):
        """The registered :class:`GuestLanguage` this test targets."""
        return get_language(self.language)

    def emit(self, code: str) -> None:
        """Append driver statements (guest-language source)."""
        for line in code.strip("\n").split("\n"):
            self._lines.append(line)

    # -- driver assembly ----------------------------------------------------------

    def build_driver(self) -> str:
        """Generate the guest driver appended after the package source."""
        self.inputs = []
        self._lines = []
        self._names = set()
        self.setUp()
        self.runTest()
        if not self._lines:
            raise ReproError("symbolic test produced no driver code")
        return "\n".join(self._lines) + "\n"

    def _declare(self, name: str) -> None:
        if not name.isidentifier():
            raise ReproError(f"input name {name!r} is not an identifier")
        if name in self._names:
            raise ReproError(f"duplicate symbolic input {name!r}")
        self._names.add(name)


class SimpleSymbolicTest(SymbolicTest):
    """Convenience: a symbolic test from declarative parts.

    ``inputs`` is a list of ("str", name, seed) / ("int", name, seed, lo, hi)
    tuples; ``body`` is guest source using those names.
    """

    def __init__(self, inputs: List[tuple], body: str, language: str = "pylite"):
        super().__init__()
        self.language = language
        self._spec_inputs = inputs
        self._body = body

    def runTest(self) -> None:
        for spec in self._spec_inputs:
            if spec[0] == "str":
                self.getString(spec[1], spec[2])
            elif spec[0] == "int":
                lo = spec[3] if len(spec) > 3 else 0
                hi = spec[4] if len(spec) > 4 else 255
                self.getInt(spec[1], spec[2], lo, hi)
            else:
                raise ReproError(f"unknown input kind {spec[0]!r}")
        self.emit(self._body)
