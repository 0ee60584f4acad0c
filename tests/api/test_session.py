"""SymbolicSession facade + event-stream tests (clay-free: pure-LVM guests)."""

from collections import Counter

import pytest

from repro.api import (
    BatchMerged,
    BudgetExhausted,
    PathCompleted,
    RunFinished,
    Session,
    SymbolicSession,
    TestCaseFound,
)
from repro.bench.workloads import traced_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.errors import ReproError


def _program(n=3):
    return compile_program(traced_source(n)).program


def _config(workers=1, **kw):
    kw.setdefault("strategy", "cupa-path")
    kw.setdefault("seed", 0)
    kw.setdefault("time_budget", 60.0)
    return ChefConfig(workers=workers, **kw)


def _case_key(event):
    case = event.case
    return (
        tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
        case.status,
        tuple(case.output),
    )


def _path_event_multiset(events):
    """Multiset of (event type, case identity) over the path events."""
    return Counter(
        (type(e).__name__, _case_key(e))
        for e in events
        if isinstance(e, (PathCompleted, TestCaseFound))
    )


class TestSessionBasics:
    def test_session_is_symbolic_session(self):
        assert Session is SymbolicSession

    def test_bad_language_raises_before_any_work(self):
        with pytest.raises(ReproError) as exc:
            Session("cobol", "x = 1")
        assert "cobol" in str(exc.value)

    def test_run_returns_result_and_caches(self):
        session = Session.from_program(_program(), _config())
        result = session.run()
        assert result.ll_paths == 8
        assert result.hl_paths == 8
        assert session.run() is result
        assert session.result is result

    def test_events_end_with_run_finished(self):
        session = Session.from_program(_program(), _config())
        events = list(session.events())
        assert isinstance(events[-1], RunFinished)
        assert events[-1].result is session.result

    def test_events_consumed_twice_raises_cleanly(self):
        session = Session.from_program(_program(2), _config())
        list(session.events())
        with pytest.raises(ReproError):
            session.events()

    def test_events_claimed_twice_raises_even_unconsumed(self):
        session = Session.from_program(_program(2), _config())
        stream = session.events()
        with pytest.raises(ReproError):
            session.events()
        list(stream)  # the first claim still works

    def test_run_after_events_consumed_returns_cached_result(self):
        session = Session.from_program(_program(2), _config())
        events = list(session.events())
        assert session.run() is events[-1].result

    def test_run_matches_event_stream_test_cases(self):
        blocking = Session.from_program(_program(), _config()).run()
        events = list(Session.from_program(_program(), _config()).events())
        found = {_case_key(e) for e in events if isinstance(e, TestCaseFound)}
        expected = {
            (
                tuple(sorted((k, tuple(v)) for k, v in case.inputs.items())),
                case.status,
                tuple(case.output),
            )
            for case in blocking.hl_test_cases
        }
        assert found == expected

    def test_every_test_case_found_is_also_path_completed(self):
        events = list(Session.from_program(_program(), _config()).events())
        paths = {_case_key(e) for e in events if isinstance(e, PathCompleted)}
        found = {_case_key(e) for e in events if isinstance(e, TestCaseFound)}
        assert found <= paths

    def test_replay_needs_a_language_engine(self):
        session = Session.from_program(_program(2), _config())
        with pytest.raises(ReproError):
            session.replay(None)

    def test_failed_exploration_poisons_session_with_accurate_error(self):
        session = Session.from_program(_program(2), _config())

        class Boom(RuntimeError):
            pass

        def exploding_stream():
            raise Boom()
            yield  # pragma: no cover

        session._chef_instance().stream = exploding_stream
        with pytest.raises(Boom):
            list(session.events())
        # Retrying reports the failure, not "already claimed".
        with pytest.raises(ReproError, match="raised"):
            session.run()

    def test_budget_exhausted_event_carries_reason(self):
        session = Session.from_program(
            _program(), _config(max_ll_paths=2)
        )
        events = list(session.events())
        budget = [e for e in events if isinstance(e, BudgetExhausted)]
        assert [e.reason for e in budget] == ["ll-paths"]


class TestEventStreamDeterminism:
    """The event multiset is a function of the workload, not the worker
    count: ISSUE 5's scheduling-independence criterion."""

    def _events(self, workers):
        session = Session.from_program(_program(4), _config(workers=workers))
        return list(session.events())

    def test_workers_2_matches_workers_1_event_multiset(self):
        serial = self._events(workers=1)
        parallel = self._events(workers=2)
        assert sum(isinstance(e, PathCompleted) for e in serial) == 16
        assert _path_event_multiset(serial) == _path_event_multiset(parallel)

    def test_parallel_stream_emits_batch_merged(self):
        serial = self._events(workers=1)
        parallel = self._events(workers=2)
        assert not any(isinstance(e, BatchMerged) for e in serial)
        merges = [e for e in parallel if isinstance(e, BatchMerged)]
        assert merges
        # deterministic chunk order: rounds ascend, chunks ascend per round.
        assert [(e.round_no, e.chunk_index) for e in merges] == sorted(
            (e.round_no, e.chunk_index) for e in merges
        )

    def test_parallel_run_result_matches_serial(self):
        serial = Session.from_program(_program(4), _config(workers=1)).run()
        parallel = Session.from_program(_program(4), _config(workers=2)).run()
        assert serial.ll_paths == parallel.ll_paths == 16
        assert serial.hl_paths == parallel.hl_paths

