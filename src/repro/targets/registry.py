"""Registry of the testing targets: the PyLite scenario pack.

The *documented* exception classification follows the paper exactly
(§6.2): an exception is documented if the package's documentation names
it, or it is one of the common stdlib exceptions KeyError, ValueError and
TypeError.  Anything else (including IndexError) counts as undocumented.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

from repro.api.language import get_language
from repro.symtest.library import SimpleSymbolicTest
from repro.targets import pylite_packages as PL

#: stdlib exceptions the paper treats as always-documented.
COMMON_DOCUMENTED = frozenset({"KeyError", "ValueError", "TypeError"})


@dataclass(frozen=True)
class TargetPackage:
    """One evaluation target (a package row in the paper's Table 3 shape)."""

    name: str
    language: str          # a registered guest language name
    ptype: str             # System / Web / Office
    description: str
    source: str
    test_inputs: Tuple[tuple, ...]
    test_body: str
    documented_exceptions: FrozenSet[str] = frozenset()

    def symbolic_test(self) -> SimpleSymbolicTest:
        return SimpleSymbolicTest(
            list(self.test_inputs), self.test_body, language=self.language
        )

    def guest_language(self):
        """The registered :class:`GuestLanguage` this target is written in."""
        return get_language(self.language)

    def loc(self) -> int:
        return self.guest_language().loc(self.source)

    def is_documented(self, exception_name: str) -> bool:
        return (
            exception_name in self.documented_exceptions
            or exception_name in COMMON_DOCUMENTED
        )


@lru_cache(maxsize=None)
def _targets() -> Tuple[TargetPackage, ...]:
    """The frontend scenario pack: parser / state machine / codec."""
    return (
        TargetPackage(
            name="parseint",
            language="pylite",
            ptype="System",
            description="Integer parser (sign + digit loop)",
            source=PL.PARSEINT_SOURCE,
            test_inputs=tuple(PL.PARSEINT_TEST["inputs"]),
            test_body=PL.PARSEINT_TEST["body"],
        ),
        TargetPackage(
            name="turnstile",
            language="pylite",
            ptype="System",
            description="Turnstile state machine with an audited invariant",
            source=PL.TURNSTILE_SOURCE,
            test_inputs=tuple(PL.TURNSTILE_TEST["inputs"]),
            test_body=PL.TURNSTILE_TEST["body"],
            documented_exceptions=frozenset({"RuntimeError"}),
        ),
        TargetPackage(
            name="rle",
            language="pylite",
            ptype="Office",
            description="Run-length codec with an audited round-trip",
            source=PL.RLE_SOURCE,
            test_inputs=tuple(PL.RLE_TEST["inputs"]),
            test_body=PL.RLE_TEST["body"],
        ),
    )


@lru_cache(maxsize=None)
def _target_index() -> Dict[str, TargetPackage]:
    return {target.name: target for target in _targets()}


def all_targets() -> List[TargetPackage]:
    return list(_targets())


def target_by_name(name: str) -> TargetPackage:
    """O(1) lookup over the memoized registry (targets are immutable)."""
    try:
        return _target_index()[name]
    except KeyError:
        raise KeyError(f"unknown target {name!r}") from None
