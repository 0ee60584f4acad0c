"""Scenario-pack exploration: symtest end-to-end plus the §6.6 check.

Every pack (parser / state machine / codec) runs through the Fig. 7
symbolic-test pipeline at 1 and 2 workers; the path multiset must be
identical, and every generated test case must replay identically under
vanilla CPython (the differential oracle).
"""

import pytest

from repro.chef.options import ChefConfig
from repro.symtest.runner import SymbolicTestRunner
from repro.targets import all_targets, target_by_name


def _multiset(suite):
    return sorted(
        (
            tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
            tuple(case.output),
            case.exception_type,
            case.hang,
        )
        for case in suite.cases
    )


def _run(target, workers):
    runner = SymbolicTestRunner(
        target.source,
        target.symbolic_test(),
        ChefConfig(workers=workers, time_budget=120.0),
    )
    return runner, runner.run_symbolic()


@pytest.mark.parametrize("target", all_targets(), ids=lambda t: t.name)
class TestScenarioPacks:
    def test_differential_replay_all_cases(self, target):
        runner, result = _run(target, workers=1)
        assert result.suite.cases
        reports = runner.engine.differential_sweep(result.suite)
        assert all(r.matches for r in reports), [
            r.detail for r in reports if not r.matches
        ]

    def test_worker_counts_agree(self, target):
        _, serial = _run(target, workers=1)
        _, parallel = _run(target, workers=2)
        assert _multiset(serial.suite) == _multiset(parallel.suite)


class TestPackFindings:
    def test_parseint_finds_the_documented_valueerror(self):
        runner, result = _run(target_by_name("parseint"), workers=1)
        names = {
            runner.engine.exception_name(t) for t in result.suite.exceptions()
        }
        assert "ValueError" in names

    def test_turnstile_raises_only_documented_exceptions(self):
        target = target_by_name("turnstile")
        runner, result = _run(target, workers=1)
        names = {
            runner.engine.exception_name(t) for t in result.suite.exceptions()
        }
        assert names  # the unknown-command RuntimeError path is reachable
        assert all(target.is_documented(n) for n in names), names

    def test_rle_roundtrip_assertion_never_fires(self):
        target = target_by_name("rle")
        runner, result = _run(target, workers=1)
        names = {
            runner.engine.exception_name(t) for t in result.suite.exceptions()
        }
        assert "AssertionError" not in names
