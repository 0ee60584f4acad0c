"""repro.api — the stable public surface of the reproduction (v1).

Two abstractions make the engine a *library* rather than a pair of
hardcoded facades:

- :class:`GuestLanguage` (:mod:`repro.api.language`) — one object per
  guest language bundling everything that would otherwise be
  string-dispatched on the language name: the engine factory (whose
  facade also replays tests), symbolic-test driver codegen (literal
  quoting, input declarations) and comment-prefix / LoC rules.  PyLite registers itself
  (``repro/interpreters/pylite/language.py``); another language is
  one :func:`register_language` call away.

- :class:`SymbolicSession` (:mod:`repro.api.session`, exported as
  ``Session``) — a streaming facade over one exploration:
  ``Session(language, source, config)`` exposes both a blocking
  :meth:`~repro.api.session.SymbolicSession.run` and an incremental
  :meth:`~repro.api.session.SymbolicSession.events` generator yielding
  the typed events of :mod:`repro.api.events` as exploration proceeds,
  at every worker count.

See the "Public API" section of ``docs/architecture.md``.
"""

from repro.api.events import (
    BatchMerged,
    BudgetExhausted,
    CheckpointSaved,
    MetricsUpdated,
    PathCompleted,
    RunFinished,
    SessionEvent,
    StateQuarantined,
    TestCaseFound,
)
from repro.api.language import (
    GuestLanguage,
    UnknownLanguageError,
    get_language,
    languages,
    register_language,
)

__all__ = [
    "BatchMerged",
    "BudgetExhausted",
    "CheckpointSaved",
    "GuestLanguage",
    "MetricsUpdated",
    "PathCompleted",
    "RunFinished",
    "Session",
    "SessionEvent",
    "StateQuarantined",
    "SymbolicSession",
    "TestCaseFound",
    "UnknownLanguageError",
    "get_language",
    "languages",
    "register_language",
]


def __getattr__(name: str):
    # Session pulls in the whole engine stack (chef -> lowlevel ->
    # solver); loading it lazily keeps ``repro.api.events`` importable
    # from inside that stack without a cycle.
    if name in ("Session", "SymbolicSession"):
        from repro.api.session import SymbolicSession

        return SymbolicSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
