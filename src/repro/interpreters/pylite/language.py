"""PyLite's :class:`~repro.api.language.GuestLanguage` registration.

This module is the only place the name "pylite" may be special-cased;
every other consumer goes through ``repro.api.get_language``.  One
``register_language`` call is what lights up Session, symtest, parallel
exploration, checkpointing and the service daemon for PyLite source.
"""

from __future__ import annotations

from repro.api.language import GuestLanguage, escape_double_quoted, register_language

#: PyLite string literals are double-quoted byte strings: printable
#: ASCII passes through, everything else becomes ``\xNN``.
quote_pylite = escape_double_quoted


def _engine_factory(source: str, config=None, solver=None):
    from repro.interpreters.pylite.engine import PyLiteEngine

    return PyLiteEngine(source, config, solver=solver)


PYLITE = register_language(
    GuestLanguage(
        name="pylite",
        comment_prefix="#",
        engine_factory=_engine_factory,
        quote_literal=quote_pylite,
        description=(
            "Python subset lowered ast → TAC → CFG straight onto the LVM "
            "(no interpreter in the loop)"
        ),
    )
)
