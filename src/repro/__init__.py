"""repro — a reproduction of Chef (ASPLOS 2014).

Chef turns a vanilla interpreter into a symbolic execution engine for the
interpreter's language by executing the interpreter itself on a low-level
symbolic execution platform, tracing high-level program locations, and
steering exploration with class-uniform path analysis (CUPA).  The
built-in guest language, PyLite, is compiled straight onto that platform
instead of being interpreted (``docs/architecture.md``, "Paper coverage").

Quickstart — the session API (``repro.api``)::

    from repro import ChefConfig, Session, TestCaseFound

    session = Session("pylite", '''
    def check(s):
        if s[0] == "@":
            raise ValueError("bad")
        return ord(s[1])

    data = sym_string("ab")
    print(check(data))
    ''', ChefConfig(strategy="cupa-path", time_budget=5.0))

    for event in session.events():          # or: result = session.run()
        if isinstance(event, TestCaseFound):
            case = event.case
            print(case.input_string("b0"), case.exception_type)

``Session(language, source, config, solver=..., workers=N)`` accepts any
registered guest language (``repro.languages()`` lists them; register
your own with ``repro.register_language``).  :class:`SymbolicTestRunner`
drives the paper's symbolic-test API (Fig. 7) over the same machinery.

See ``docs/architecture.md`` for the layer map.
"""

from repro.api import (
    BatchMerged,
    BudgetExhausted,
    CheckpointSaved,
    GuestLanguage,
    MetricsUpdated,
    PathCompleted,
    RunFinished,
    Session,
    SessionEvent,
    StateQuarantined,
    SymbolicSession,
    TestCaseFound,
    UnknownLanguageError,
    get_language,
    languages,
    register_language,
)
from repro.chef import Chef, ChefConfig, RunResult, TestCase, TestSuite
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.obs import Telemetry
from repro.symtest import SymbolicTest, SymbolicTestRunner

__version__ = "1.1.0"

__all__ = [
    "BatchMerged",
    "BudgetExhausted",
    "CheckpointSaved",
    "Chef",
    "ChefConfig",
    "FaultPlan",
    "GuestLanguage",
    "MetricsUpdated",
    "PathCompleted",
    "ReproError",
    "RunFinished",
    "RunResult",
    "Session",
    "SessionEvent",
    "StateQuarantined",
    "SymbolicSession",
    "SymbolicTest",
    "SymbolicTestRunner",
    "Telemetry",
    "TestCase",
    "TestCaseFound",
    "TestSuite",
    "UnknownLanguageError",
    "__version__",
    "get_language",
    "languages",
    "register_language",
]
