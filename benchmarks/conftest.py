"""Shared fixtures for the benchmark suite.

Every benchmark prints a paper-shaped table through the ``report``
fixture; collected reports are emitted in the terminal summary so they
survive pytest's output capture.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BenchSettings

_REPORTS = []


@pytest.fixture(scope="session")
def settings() -> BenchSettings:
    return BenchSettings()


@pytest.fixture
def report():
    def _report(title: str, body: str) -> None:
        _REPORTS.append((title, body))

    return _report


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction outputs")
    for title, body in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_sep("-", title)
        for line in body.split("\n"):
            terminalreporter.write_line(line)
