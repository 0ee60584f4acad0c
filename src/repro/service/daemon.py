"""Symbolic execution as a service: the asyncio session daemon.

:class:`ChefService` accepts many concurrent symbolic-execution
sessions over one local (Unix-domain) socket.  Every session explores
serially inside the daemon process, on the pump thread of
:meth:`~repro.api.session.SymbolicSession.aevents`, as one engine —
the way Chef runs each target.

Per-session budgets are clamped against the service caps
(:class:`ServiceConfig`), admission is bounded by a semaphore, and the
typed :mod:`repro.api.events` stream crosses the socket as JSON lines
(see :mod:`repro.service.protocol`).

Sessions share no solver state: every session's solvers keep their own
recent models, so a warm second run of a target re-solves its queries
and produces the same path-event multiset as the cold run.  They do
share the process-global ``Sym`` registry and expression intern table,
which the daemon clears whenever it goes idle.

Observability: one service-wide telemetry context (``service.*``
counters, sessions/sec gauge) plus a Chrome-trace lane per session
(``session-<id>``) folded into the service event log when the session
ends — ``write_chrome_trace`` shows tenants as swimlanes.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.api.session import SymbolicSession
from repro.chef.options import ChefConfig
from repro.lowlevel.expr import Sym, clear_intern_cache
from repro.obs.telemetry import Telemetry
from repro.service import protocol

__all__ = ["ChefService", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Operating limits of one daemon instance."""

    #: Unix-domain socket path the daemon listens on.
    socket_path: str
    #: sessions allowed to *run* concurrently; excess requests queue
    #: FIFO on the admission semaphore.
    max_sessions: int = 8
    #: per-session wall-clock budget ceiling (requests are clamped).
    max_time_budget: float = 60.0
    #: per-session low-level path ceiling; also the default for
    #: requests that ask for unlimited paths (0) — a service never
    #: grants unbounded exploration.
    max_ll_paths: int = 10_000
    #: record tracing spans (per-session Chrome-trace lanes).
    trace: bool = False
    #: ceiling for per-session solver query deadlines, seconds.  When
    #: set, every session runs with a deadline of at most this (requests
    #: may ask for a shorter one); wedged queries degrade to *unknown*
    #: instead of stalling the session (``solver.deadline_unknowns``).
    max_solver_deadline_s: Optional[float] = None
    #: deterministic fault-injection plan for chaos tests (connection
    #: drops fire in :meth:`ChefService._handle`); None in production.
    fault_plan: Optional[object] = None


class ChefService:
    """The daemon: admission and budgets."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.telemetry = Telemetry(enabled=config.trace, lane="service")
        self.registry = self.telemetry.registry
        self._sid_counter = itertools.count(1)
        self._start_time = time.monotonic()
        self._stop: Optional[asyncio.Event] = None
        self._admission: Optional[asyncio.Semaphore] = None
        from repro.faults import make_injector

        self._faults = make_injector(config.fault_plan)
        self._connections = 0

    # -- lifecycle -------------------------------------------------------------

    async def serve(self) -> None:
        """Listen until a ``shutdown`` request arrives."""
        self._stop = asyncio.Event()
        self._admission = asyncio.Semaphore(self.config.max_sessions)
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)
        server = await asyncio.start_unix_server(
            self._handle, path=self.config.socket_path
        )
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            if os.path.exists(self.config.socket_path):
                os.unlink(self.config.socket_path)

    def serve_forever(self) -> None:
        """Blocking wrapper around :meth:`serve` (its own event loop)."""
        asyncio.run(self.serve())

    # -- connection handling ---------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        self._connections += 1
        if self._faults is not None and self._faults.should_drop_connection(
            self._connections
        ):
            # Chaos test: hang up without a reply — clients must retry.
            self.registry.counter("service.connections_dropped").inc()
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            return
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line)
            except ValueError as exc:
                await self._send(writer, {"error": f"bad request: {exc}"})
                return
            op = request.get("op")
            if op == "ping":
                await self._send(writer, {"ok": True, "op": "ping", "pid": os.getpid()})
            elif op == "stats":
                await self._send(writer, self._stats())
            elif op == "shutdown":
                await self._send(writer, {"ok": True, "op": "shutdown"})
                self._stop.set()
            elif op == "run":
                await self._run_session(request, writer)
            else:
                await self._send(writer, {"error": f"unknown op: {op!r}"})
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the session unwinds via aevents' finally
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _send(self, writer, message: Dict[str, Any]) -> None:
        writer.write(protocol.encode_line(message))
        await writer.drain()

    # -- sessions --------------------------------------------------------------

    async def _run_session(self, request: Dict[str, Any], writer) -> None:
        sid = next(self._sid_counter)
        session_tele = Telemetry(enabled=self.config.trace, lane=f"session-{sid}")
        try:
            session = self._build_session(request, session_tele)
        except Exception as exc:
            self.registry.counter("service.sessions.rejected").inc()
            await self._send(writer, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self.registry.gauge("service.sessions.waiting").value += 1
        await self._admission.acquire()
        self.registry.gauge("service.sessions.waiting").value -= 1
        self.registry.counter("service.sessions.started").inc()
        self.registry.gauge("service.sessions.active").value += 1
        events_counter = self.registry.counter("service.events_streamed")
        started = time.monotonic()
        terminal: Optional[Dict[str, Any]] = None
        try:
            with self.telemetry.span("service.session", sid=sid):
                stream = session.aevents()
                try:
                    async for event in stream:
                        wire = protocol.event_to_wire(event)
                        if wire.get("event") == "RunFinished":
                            # Held back until the session is folded, so
                            # a client that has seen the terminal line
                            # observes consistent service counters.
                            terminal = wire
                            break
                        await self._send(writer, wire)
                        events_counter.inc()
                finally:
                    await stream.aclose()
            if terminal is not None:
                self.registry.counter("service.sessions.finished").inc()
        except (ConnectionResetError, BrokenPipeError):
            # Client hung up mid-stream: aevents' finally already closed
            # the underlying stream.
            self.registry.counter("service.sessions.abandoned").inc()
        except Exception as exc:
            self.registry.counter("service.sessions.failed").inc()
            try:
                await self._send(writer, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass
        finally:
            self._admission.release()
            self.registry.gauge("service.sessions.active").value -= 1
            self._fold_session(session, session_tele, time.monotonic() - started)
        if terminal is not None:
            try:
                await self._send(writer, terminal)
                events_counter.inc()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _fold_session(self, session, session_tele: Telemetry, duration: float) -> None:
        """Fold a finished session's telemetry into the service context.

        Runs on the loop thread once the session's pump thread has
        exited.  When no session is left running or waiting, the
        process-global symbolic tables are cleared, so they do not grow
        with every session the daemon serves.  Engines namespace their
        variables, so no later session can meet a stale ``Sym``.
        """
        self.telemetry.extend_events(session_tele.drain_events())
        self.registry.histogram("service.session_seconds").observe(duration)
        if not (
            self.registry.gauge("service.sessions.active").value
            or self.registry.gauge("service.sessions.waiting").value
        ):
            clear_intern_cache()
            Sym.reset_registry()
        try:
            metrics = session.metrics()
        except Exception:
            return
        for source_key, dest_key in (
            ("solver.deadline_unknowns", "service.solver.deadline_unknowns"),
            ("checkpoint.saves", "service.checkpoint.saves"),
            ("checkpoint.resumes", "service.checkpoint.resumes"),
        ):
            value = metrics.get(source_key, 0)
            if isinstance(value, (int, float)) and value:
                self.registry.counter(dest_key).inc(int(value))
        elapsed = max(time.monotonic() - self._start_time, 1e-9)
        finished = self.registry.counter("service.sessions.finished").value
        self.registry.gauge("service.sessions_per_sec").set(finished / elapsed)

    def _build_session(
        self, request: Dict[str, Any], session_tele: Telemetry
    ) -> SymbolicSession:
        """Construct the session a ``run`` request describes.

        Targets are either raw Clay source (``clay``) explored via
        :meth:`SymbolicSession.from_program`, or a registered guest
        language (``language`` + ``source``).
        """
        chef_config = self._clamp_config(request.get("config") or {})
        resume_path = request.get("resume")
        if resume_path is not None:
            # Continue a checkpointed campaign under this service's
            # clamps: budgets/trace are service policy, and the session
            # runs serially, even though the persisted config carries
            # the original values.
            return SymbolicSession.resume(
                resume_path,
                workers=1,
                telemetry=session_tele,
                time_budget=chef_config.time_budget,
                max_ll_paths=chef_config.max_ll_paths,
                solver_deadline_s=chef_config.solver_deadline_s,
                trace=self.config.trace,
            )
        clay_source = request.get("clay")
        language = request.get("language")
        source = request.get("source")
        if clay_source is not None:
            from repro.clay import compile_program

            program = compile_program(clay_source).program
            return SymbolicSession.from_program(
                program, chef_config, telemetry=session_tele
            )
        if language and source is not None:
            return SymbolicSession(language, source, chef_config)
        raise ValueError("run request needs 'clay' or 'language' + 'source'")

    def _clamp_config(self, requested: Dict[str, Any]) -> ChefConfig:
        """Budget-clamped :class:`ChefConfig` for one session.

        Clients choose strategy/seed/budgets within the service caps;
        tracing is service policy.  ``workers`` is not client-settable,
        so every session keeps the serial default.
        """
        config = ChefConfig()
        for field_name in (
            "strategy",
            "seed",
            "max_hl_paths",
            "path_instr_budget",
            "solver_budget",
            "sample_every",
            "unknown_policy",
            "checkpoint_dir",
            "checkpoint_every",
        ):
            if field_name in requested:
                config = replace(config, **{field_name: requested[field_name]})
        time_budget = float(requested.get("time_budget", self.config.max_time_budget))
        max_ll_paths = int(requested.get("max_ll_paths", 0))
        if max_ll_paths <= 0:
            max_ll_paths = self.config.max_ll_paths
        # Solver deadlines clamp toward *responsiveness*: a session may
        # ask for a tighter deadline than the service cap, never a
        # looser one (and with a cap set, "no deadline" means the cap).
        deadline = requested.get("solver_deadline_s")
        cap = self.config.max_solver_deadline_s
        if cap is not None:
            deadline = min(float(deadline), cap) if deadline else cap
        elif deadline is not None:
            deadline = float(deadline)
        return replace(
            config,
            time_budget=min(time_budget, self.config.max_time_budget),
            max_ll_paths=min(max_ll_paths, self.config.max_ll_paths),
            solver_deadline_s=deadline,
            trace=self.config.trace,
        )

    # -- introspection ---------------------------------------------------------

    def _stats(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": "stats",
            "uptime": time.monotonic() - self._start_time,
            "metrics": self.telemetry.metrics(),
            # Sessions ship no programs; the committed benchmark still
            # reads this key.
            "pool": {"program_ships": 0},
        }

    def write_chrome_trace(self, path) -> None:
        """Export service + per-session lanes as a Chrome-trace file."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self.telemetry)
