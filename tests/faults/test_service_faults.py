"""Service-seam chaos: dropped connections vs. client retry/backoff.

The daemon's fault plan hangs up on clients before reading their
request; a client without retries must fail fast with a clear error,
and a client with retries must ride out the drop budget and finish the
operation — including a full ``run`` stream, which is only ever
re-submitted when *zero* events have streamed (replaying a half-run
would duplicate path events).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.bench.workloads import branchy_source
from repro.faults import FaultPlan
from repro.service import ChefService, ServiceClient, ServiceConfig
from repro.service.__main__ import _build_parser
from repro.service.client import ServiceError

#: drop the first two connections, before any reply crosses the wire.
_DROP_PLAN = FaultPlan(drop_connection_after_events=1, drop_connections=2)


@pytest.fixture
def faulty_daemon(tmp_path):
    """A daemon whose first two connections are dropped.

    Readiness waits on the socket *file* — the usual ping-until-alive
    loop would burn the drop budget the test is about.
    """
    socket_path = str(tmp_path / "svc.sock")
    service = ChefService(
        ServiceConfig(
            socket_path=socket_path,
            max_time_budget=120.0,
            fault_plan=_DROP_PLAN,
        )
    )
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while not os.path.exists(socket_path):
        assert time.monotonic() < deadline, "daemon socket never appeared"
        time.sleep(0.01)
    yield socket_path, service
    try:
        # Enough retries to out-last whatever drop budget remains.
        ServiceClient(socket_path, retries=4, backoff=0.01).shutdown()
    except Exception:
        pass
    thread.join(timeout=30.0)


class TestConnectionDrops:
    def test_no_retries_fails_fast(self, faulty_daemon):
        socket_path, _service = faulty_daemon
        client = ServiceClient(socket_path)  # retries=0
        # The drop surfaces as a clean no-reply close or as a reset/
        # broken pipe, depending on how far the request write got.
        with pytest.raises((ServiceError, ConnectionError)):
            client.ping()

    def test_retries_ride_out_the_drop_budget(self, faulty_daemon):
        socket_path, service = faulty_daemon
        client = ServiceClient(socket_path, retries=3, backoff=0.01)
        assert client.ping()["ok"]
        assert (
            service.registry.counter("service.connections_dropped").value == 2
        )

    def test_run_stream_retries_before_first_event(self, faulty_daemon):
        socket_path, _service = faulty_daemon
        client = ServiceClient(socket_path, retries=3, backoff=0.01)
        events, result = client.run(clay=branchy_source(3))
        assert result["ll_paths"] == 8
        finished = [e for e in events if e.get("event") == "RunFinished"]
        assert len(finished) == 1, "retries must not duplicate the stream"

    def test_deadline_bounds_the_retry_loop(self, tmp_path):
        client = ServiceClient(
            str(tmp_path / "never.sock"),
            retries=50,
            backoff=0.01,
            deadline=0.2,
        )
        start = time.monotonic()
        with pytest.raises((ServiceError, OSError)):
            client.ping()
        assert time.monotonic() - start < 5.0


class TestServiceCli:
    def test_run_accepts_retry_and_timeout_flags(self):
        args = _build_parser().parse_args(
            [
                "run", "--socket", "/tmp/s.sock", "--clay-file", "t.clay",
                "--retries", "2", "--timeout", "7.5",
                "--solver-deadline", "0.5", "--checkpoint-dir", "/tmp/ck",
            ]
        )
        assert args.retries == 2
        assert args.timeout == 7.5
        assert args.solver_deadline == 0.5
        assert args.checkpoint_dir == "/tmp/ck"

    def test_resume_verb_parses(self):
        args = _build_parser().parse_args(
            [
                "resume", "--socket", "/tmp/s.sock", "--checkpoint", "/tmp/ck",
                "--retries", "1", "--time-budget", "9",
            ]
        )
        assert args.command == "resume"
        assert args.checkpoint == "/tmp/ck"
        assert args.retries == 1
        assert args.time_budget == 9.0

    def test_serve_accepts_solver_deadline_cap(self):
        args = _build_parser().parse_args(
            ["serve", "--socket", "/tmp/s.sock", "--max-solver-deadline", "2.0"]
        )
        assert args.max_solver_deadline == 2.0
