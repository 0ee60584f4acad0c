"""Shared fixtures: keep process-global symbolic state out of tests.

Two pieces of state outlive an engine run and would otherwise leak
between tests:

- the ``Sym`` registry (variable name → domain),
- the expression intern table (structural identity is object identity).

Each solver keeps its own recent models (variable name to value), so
there is no solver state to reset.  The autouse fixture resets both after every test.
"""

from __future__ import annotations

import pytest

from repro.lowlevel.expr import Sym, clear_intern_cache


@pytest.fixture(autouse=True)
def _reset_symbolic_state():
    yield
    clear_intern_cache()
    Sym.reset_registry()
