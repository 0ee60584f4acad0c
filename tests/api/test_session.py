"""SymbolicSession facade + event-stream tests (clay-free: pure-LVM guests)."""

import asyncio
import sys
import threading
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
    get_language,
)
from repro.bench.workloads import traced_source
from repro.chef.options import ChefConfig
from repro.clay import compile_program
from repro.errors import ReproError
from repro.targets import pylite_packages as PL


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


def _turnstile(seed_string="cpcp"):
    (_kind, name, _default), = PL.TURNSTILE_TEST["inputs"]
    declaration = get_language("pylite").declare_string(name, seed_string)
    return f"{PL.TURNSTILE_SOURCE}\n{declaration}\n{PL.TURNSTILE_TEST['body']}\n"


def _sequence(events):
    """(event type, test case id) of every event, in stream order."""
    return [
        (type(e).__name__,
         e.case.test_id if isinstance(e, (PathCompleted, TestCaseFound)) else None)
        for e in events
    ]


async def _drain(session):
    return [event async for event in session.aevents()]


def _on_computed(session, record):
    """Call ``record(event)`` as the session's stream computes each event."""
    inner = session._stream

    def recording_stream():
        for event in inner():
            record(event)
            yield event

    session._stream = recording_stream


class TestAsyncEvents:
    """``aevents()`` streams exactly what ``events()`` yields, computed
    on the loop thread one event at a time, yielding to the loop after
    each."""

    def test_sequence_matches_events(self):
        config = _config(seed=1)
        expected = _sequence(Session("pylite", _turnstile(), config).events())
        session = Session("pylite", _turnstile(), config)
        streamed = _sequence(asyncio.run(_drain(session)))
        assert streamed == expected
        assert sum(name == "TestCaseFound" for name, _ in streamed) > 1

    def test_streams_on_the_loop_thread_without_handoffs(self, monkeypatch):
        handoffs = []
        started = []
        for owner, name in (
            (asyncio, "run_coroutine_threadsafe"),
            (asyncio.BaseEventLoop, "call_soon_threadsafe"),
            (threading.Thread, "start"),
        ):
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                (started if _name == "start" else handoffs).append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        session = Session.from_program(_program(4), _config())
        computed_on = []
        _on_computed(session, lambda _event: computed_on.append(threading.get_ident()))
        before = threading.enumerate()

        async def stream():
            loop_thread = threading.get_ident()
            events = await _drain(session)
            return loop_thread, events

        loop_thread, events = asyncio.run(stream())
        assert isinstance(events[-1], RunFinished)
        assert handoffs == [] and started == []
        assert computed_on == [loop_thread] * len(events)
        assert threading.enumerate() == before

    def test_concurrent_streams_keep_order_under_frequent_switching(self):
        # Four streams on one loop take turns event by event: a lost or
        # reordered event changes some stream's sequence.
        expected = _sequence(Session.from_program(_program(4), _config()).events())
        turns = []

        async def all_streams():
            sessions = [Session.from_program(_program(4), _config()) for _ in range(4)]
            for index, session in enumerate(sessions):
                _on_computed(session, lambda _event, index=index: turns.append(index))
            return await asyncio.wait_for(
                asyncio.gather(*(_drain(s) for s in sessions)), 120.0
            )

        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            streams = asyncio.run(all_streams())
        finally:
            sys.setswitchinterval(interval)
        assert [_sequence(events) for events in streams] == [expected] * 4
        assert turns == [0, 1, 2, 3] * len(expected)
        assert threading.enumerate() == before

    def test_yields_to_the_loop_once_per_event_without_timed_sleeps(self, monkeypatch):
        sleeps = []
        real_sleep = asyncio.sleep

        async def counting_sleep(*args, **kwargs):
            sleeps.append(args)
            return await real_sleep(*args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", counting_sleep)
        before = threading.enumerate()

        async def until_finished(session):
            stream = session.aevents()
            taken = 0
            async for event in stream:
                taken += 1
                if isinstance(event, RunFinished):
                    break
            await stream.aclose()
            return taken

        # Closed at RunFinished: the yield after the last event never ran.
        taken = asyncio.run(until_finished(Session.from_program(_program(), _config())))
        assert sleeps == [(0,)] * (taken - 1)
        assert threading.enumerate() == before
        sleeps.clear()
        events = asyncio.run(_drain(Session.from_program(_program(), _config())))
        assert sleeps == [(0,)] * len(events)
        assert threading.enumerate() == before

    def test_stalled_consumer_bounds_outstanding_events(self):
        session = Session.from_program(_program(4), _config())
        pulled = []
        _on_computed(session, pulled.append)
        before = threading.enumerate()

        async def stall():
            stream = session.aevents()
            async for _event in stream:
                break  # take one event, then stop reading
            # Give the loop every chance to compute ahead.
            for _ in range(10):
                await asyncio.sleep(0.01)
            outstanding = len(pulled) - 1
            await stream.aclose()
            return outstanding

        assert asyncio.run(stall()) == 0
        assert threading.enumerate() == before
        assert session.result is None  # abandoned mid-run

    def test_cancelling_a_waiting_consumer_stops_the_pump(self):
        # Cancelled while waiting for its second event, the consumer's
        # stream closes the Chef loop before computing that event.
        session = Session.from_program(_program(4), _config())
        pulled = []
        _on_computed(session, pulled.append)
        before = threading.enumerate()

        async def cancel_while_waiting():
            first = asyncio.Event()

            async def consume():
                async for _event in session.aevents():
                    first.set()

            task = asyncio.get_running_loop().create_task(consume())
            await first.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(cancel_while_waiting())
        assert len(pulled) == 1
        assert threading.enumerate() == before
        with pytest.raises(ReproError, match="raised"):
            session.run()

    def test_exploration_error_reraises_at_the_async_for(self):
        session = Session.from_program(_program(2), _config())

        class Boom(RuntimeError):
            pass

        def exploding_stream():
            raise Boom()
            yield  # pragma: no cover

        session._chef_instance().stream = exploding_stream
        before = threading.enumerate()
        with pytest.raises(Boom):
            asyncio.run(_drain(session))
        assert threading.enumerate() == before
