"""Thin blocking client for the symbolic-execution service daemon.

One request per connection: the client opens the daemon's Unix socket,
writes one JSON request line, and reads JSON reply lines until the
operation's terminal message (see :mod:`repro.service.protocol`).
``run_events`` is a generator — events stream as the daemon produces
them, and abandoning the generator closes the socket, which the daemon
observes as a hung-up client and unwinds the session cleanly.

Transient failures (daemon not yet listening, connection refused or
reset before any reply) are retried with exponential backoff + jitter
up to ``retries`` times within an overall ``deadline``; a stream that
already yielded events is never replayed — retrying a half-run session
would duplicate path events.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.service import protocol

__all__ = ["ServiceClient", "ServiceError"]

#: errors worth retrying: the daemon is starting up, restarting, or a
#: chaos test dropped the connection before any reply crossed.
_RETRYABLE = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    FileNotFoundError,
    socket.timeout,
)


class ServiceError(ReproError):
    """The daemon reported an error (or the connection died mid-op)."""


class ServiceClient:
    """Blocking JSON-lines client over the daemon's Unix socket."""

    def __init__(
        self,
        socket_path: str,
        timeout: Optional[float] = 300.0,
        *,
        retries: int = 0,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        deadline: Optional[float] = None,
    ):
        self.socket_path = socket_path
        #: per-socket-operation timeout, seconds.
        self.timeout = timeout
        #: retry attempts after the first failure (0 = fail fast).
        self.retries = max(0, retries)
        #: base backoff, doubled per attempt with ±50% jitter.
        self.backoff = backoff
        self.backoff_max = backoff_max
        #: overall wall-clock budget across all attempts of one op.
        self.deadline = deadline

    def _connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        return sock

    def _attempts(self):
        """Yield (attempt_index, give_up) pairs, sleeping between tries."""
        deadline_at = (
            time.monotonic() + self.deadline if self.deadline is not None else None
        )
        for attempt in range(self.retries + 1):
            last = attempt == self.retries
            if deadline_at is not None and time.monotonic() >= deadline_at:
                last = True
            yield attempt, last
            # Reaching here means the attempt failed and will be retried.
            pause = min(self.backoff * (2 ** attempt), self.backoff_max)
            pause *= 0.5 + random.random()  # full jitter, 0.5x..1.5x
            if deadline_at is not None:
                pause = min(pause, max(deadline_at - time.monotonic(), 0.0))
            if pause > 0:
                time.sleep(pause)

    def _connect_retry(self):
        """Connect with backoff; raises the last error when out of tries."""
        for _attempt, give_up in self._attempts():
            try:
                return self._connect()
            except _RETRYABLE:
                if give_up:
                    raise
        raise ServiceError("retry budget exhausted")  # not reachable

    def _simple(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One-shot op: send the request, return the single reply line.

        The whole request/reply exchange retries — these ops are
        idempotent (ping/stats report, shutdown converges).
        """
        reply = None
        for _attempt, give_up in self._attempts():
            try:
                with self._connect() as sock:
                    with sock.makefile("rwb") as fh:
                        protocol.write_message(fh, request)
                        reply = protocol.read_message(fh)
            except _RETRYABLE:
                if give_up:
                    raise
                continue
            if reply is not None:
                break
            if give_up:
                break
        if reply is None:
            raise ServiceError("daemon closed the connection without replying")
        if "error" in reply:
            raise ServiceError(reply["error"])
        return reply

    # -- control ops -----------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._simple({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        """Service metrics (see daemon ``_stats``)."""
        return self._simple({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        return self._simple({"op": "shutdown"})

    # -- sessions --------------------------------------------------------------

    def run_events(
        self,
        *,
        clay: Optional[str] = None,
        language: Optional[str] = None,
        source: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        resume: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Stream one session's wire events (ends with ``RunFinished``).

        ``config`` holds the budget/strategy fields of the run request
        (a :class:`~repro.chef.options.ChefConfig`-shaped dict is
        accepted); the daemon clamps budgets and runs every session
        serially.
        ``resume`` names a daemon-local checkpoint directory/file to
        continue instead of a fresh target.  Connection setup retries
        with backoff; a stream is only re-submitted whole if it died
        before its *first* event arrived.
        """
        if is_dataclass(config):
            config = asdict(config)
        request: Dict[str, Any] = {"op": "run", "config": config or {}}
        if resume is not None:
            request["resume"] = resume
        elif clay is not None:
            request["clay"] = clay
        else:
            request["language"] = language
            request["source"] = source
        for _attempt, give_up in self._attempts():
            streamed = 0
            try:
                with self._connect() as sock:
                    with sock.makefile("rwb") as fh:
                        protocol.write_message(fh, request)
                        while True:
                            message = protocol.read_message(fh)
                            if message is None:
                                # Dropped before RunFinished.  Retry only
                                # if nothing streamed yet — replaying a
                                # half-run would duplicate path events.
                                if streamed or give_up:
                                    raise ServiceError(
                                        "daemon closed the stream before "
                                        "RunFinished"
                                    )
                                break
                            if "error" in message:
                                raise ServiceError(message["error"])
                            streamed += 1
                            yield message
                            if message.get("event") == "RunFinished":
                                return
            except _RETRYABLE:
                if streamed or give_up:
                    raise
        raise ServiceError("retry budget exhausted before the stream started")

    def run(self, **kwargs) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Run to completion; ``(all wire events, RunFinished result)``."""
        events = list(self.run_events(**kwargs))
        return events, events[-1]["result"]
