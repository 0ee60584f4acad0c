"""The SymbolicSession facade: one exploration, blocking or streaming.

A session ties together language lookup, engine construction, config,
solver backend and worker count behind one object::

    from repro import Session, ChefConfig, TestCaseFound

    session = Session("pylite", source, ChefConfig(strategy="cupa-path"))
    for event in session.events():
        if isinstance(event, TestCaseFound):
            print(event.case.inputs, event.case.exception_type)

``run()`` is the blocking twin; both drive the same Chef event stream,
so the test-case set is identical whichever you consume (and, for
exhaustive runs, identical at every worker count).  Pure-LVM programs —
e.g. Clay guests compiled with :func:`repro.clay.compile_program` — can
be explored with ``Session.from_program(program, config)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional

from repro.api.events import RunFinished, SessionEvent
from repro.api.language import GuestLanguage, get_language
from repro.chef.engine import Chef, RunResult
from repro.chef.options import ChefConfig
from repro.chef.testcase import TestCase
from repro.errors import ReproError
from repro.solver.backend import SolverBackend


class SymbolicSession:
    """One symbolic exploration of one guest program.

    A session explores exactly once: ``events()`` may be claimed once,
    ``run()`` consumes the stream internally and caches the result
    (repeat ``run()`` calls return the same :class:`RunResult`).
    """

    def __init__(
        self,
        language,
        source: str,
        config: Optional[ChefConfig] = None,
        *,
        solver: Optional[SolverBackend] = None,
        workers: Optional[int] = None,
        worker_pool=None,
    ):
        self._init_common(config, workers, solver, worker_pool)
        self.language: Optional[GuestLanguage] = get_language(language)
        self.engine = self.language.create_engine(source, self.config, solver=solver)

    def _init_common(
        self, config, workers, solver, worker_pool=None, telemetry=None
    ) -> None:
        """State shared by every construction path; keep the alternate
        constructors delegating here so new fields appear everywhere."""
        self.config = config if config is not None else ChefConfig()
        if workers is not None:
            self.config = replace(self.config, workers=workers)
        self.language = None
        self.engine = None
        self._program = None
        self._solver = solver
        self._worker_pool = worker_pool
        #: optional externally-owned Telemetry context for program
        #: sessions — the service daemon hands each session a
        #: ``session-<id>`` lane so the Chrome-trace export shows one
        #: swimlane per tenant.
        self._telemetry = telemetry
        self._chef: Optional[Chef] = None
        self._result: Optional[RunResult] = None
        self._streaming = False
        self._failed = False

    @classmethod
    def from_program(
        cls,
        program,
        config: Optional[ChefConfig] = None,
        *,
        solver: Optional[SolverBackend] = None,
        workers: Optional[int] = None,
        worker_pool=None,
        telemetry=None,
    ) -> "SymbolicSession":
        """Session over a finalized LIR :class:`Program` (no guest language).

        Engine-facade conveniences (``replay``, ``exception_name``) are
        unavailable; ``run()``/``events()`` work exactly as for a
        language session.  ``worker_pool`` optionally pins parallel
        exploration to a caller-owned
        :class:`~repro.parallel.pool.WorkerPool` (the caller closes it);
        by default a run leases the process-wide shared pool for its
        whole length, and the pool stays warm between sessions — see
        :meth:`close_worker_pools`.  A run that finds it leased by
        another run in this process gets a private pool, closed when
        the run ends.
        """
        session = cls.__new__(cls)
        session._init_common(config, workers, solver, worker_pool, telemetry)
        session._program = program
        return session

    @classmethod
    def resume(
        cls,
        path: str,
        *,
        workers: Optional[int] = None,
        worker_pool=None,
        telemetry=None,
        **config_overrides,
    ) -> "SymbolicSession":
        """Session continuing an interrupted campaign from a checkpoint.

        ``path`` is a checkpoint directory (containing ``campaign.ckpt``)
        or the checkpoint file itself, as written by a run with
        ``ChefConfig.checkpoint_dir`` set.  The resumed stream re-emits
        the checkpointed path events first, then explores the persisted
        frontier — for exhaustive runs the total event multiset equals
        the uninterrupted run's.  ``config_overrides`` patch the
        persisted config (e.g. ``time_budget=30.0``).
        """
        import os

        from repro.chef.checkpoint import checkpoint_path

        if os.path.isdir(path):
            path = checkpoint_path(path)
        session = cls.__new__(cls)
        session._init_common(None, workers, None, worker_pool, telemetry)
        if workers is not None:
            config_overrides["workers"] = workers
        chef = Chef.from_checkpoint(
            path,
            telemetry=telemetry,
            worker_pool=worker_pool,
            **config_overrides,
        )
        session._chef = chef
        session.config = chef.config
        session._program = chef.ll.program
        return session

    @classmethod
    def for_engine(
        cls,
        engine,
        config: Optional[ChefConfig] = None,
        *,
        language=None,
        workers: Optional[int] = None,
    ) -> "SymbolicSession":
        """Session over an already-built engine facade.

        Skips source recompilation — the way to explore the same
        compiled guest again (a session explores exactly once).  The
        engine's own solver is used; ``config`` defaults to the
        engine's and the engine is re-pointed at the session's config
        (its ``make_chef`` reads it); ``language`` is optional metadata.
        """
        session = cls.__new__(cls)
        session._init_common(
            config if config is not None else engine.config, workers, None
        )
        session.language = get_language(language) if language is not None else None
        session.engine = engine
        engine.config = session.config
        return session

    def _chef_instance(self) -> Chef:
        """Build the Chef loop on first use (engines build a fresh LIR
        program per Chef, so construction stays cheap until exploration
        actually starts)."""
        if self._chef is None:
            if self.engine is not None:
                self._chef = self.engine.make_chef()
            else:
                self._chef = Chef(
                    self._program,
                    self.config,
                    solver=self._solver,
                    telemetry=self._telemetry,
                )
            if self._worker_pool is not None:
                self._chef.worker_pool = self._worker_pool
        return self._chef

    # -- exploration ----------------------------------------------------------

    def events(self) -> Iterator[SessionEvent]:
        """Claim the event stream (once) and explore incrementally.

        Yields :mod:`repro.api.events` instances as exploration
        proceeds, ending with :class:`RunFinished`.  A second call —
        whether or not the first generator was exhausted — raises
        :class:`ReproError`: a session explores exactly once.
        """
        if self._failed:
            raise ReproError(
                "a previous exploration of this session raised; its engine "
                "state is unreliable — create a new session to re-run"
            )
        if self._streaming:
            raise ReproError(
                "session events() already claimed; a SymbolicSession "
                "explores exactly once — create a new session to re-run"
            )
        self._streaming = True
        return self._stream()

    def _stream(self) -> Iterator[SessionEvent]:
        # A raise mid-exploration (solver error, KeyboardInterrupt)
        # leaves the Chef loop half-mutated: poison the session so
        # retries get an accurate error instead of "already claimed".
        # GeneratorExit (consumer abandoned the stream) takes the same
        # poison path: the run is half-explored either way.
        inner = self._chef_instance().stream()
        try:
            for event in inner:
                if isinstance(event, RunFinished):
                    self._result = event.result
                yield event
        except BaseException:
            self._failed = True
            raise
        finally:
            # Unwind the Chef loop *now*, not at GC time: closing the
            # inner generator runs its finally/with blocks, so a
            # parallel run releases its worker-pool lease the moment the
            # consumer walks away.
            inner.close()

    def run(self) -> RunResult:
        """Explore to completion (blocking) and return the RunResult."""
        if self._result is None:
            for _event in self.events():
                pass
        assert self._result is not None
        return self._result

    async def aevents(self, max_buffer: int = 256):
        """Async twin of :meth:`events` for event-loop consumers.

        The blocking Chef loop runs in a pump thread (this is how the
        service daemon runs every session); events cross into the loop
        through a bounded queue (``max_buffer`` is the
        backpressure limit — a slow consumer stalls exploration instead
        of buffering it unboundedly).  Exceptions from the exploration
        re-raise at the ``async for`` site; abandoning the iterator
        (``aclose``, task cancellation) stops the pump and closes the
        underlying stream exactly as in :meth:`events`.
        """
        import asyncio
        import threading
        from concurrent.futures import TimeoutError as _FutureTimeout

        gen = self.events()  # claim now so double-claim raises here, not later
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue" = asyncio.Queue(max_buffer)
        stop = threading.Event()
        done = object()

        def ship(item) -> bool:
            """Put ``item`` on the loop-side queue; False once abandoned."""
            try:
                future = asyncio.run_coroutine_threadsafe(queue.put(item), loop)
            except RuntimeError:  # loop already closed
                return False
            while True:
                try:
                    future.result(timeout=0.1)
                    return True
                except _FutureTimeout:
                    if stop.is_set():
                        future.cancel()
                        return False
                except BaseException:  # cancelled, loop torn down
                    return False

        def pump() -> None:
            try:
                for event in gen:
                    if not ship(event) or stop.is_set():
                        return
                ship(done)
            except BaseException as exc:
                ship(exc)
            finally:
                gen.close()

        thread = threading.Thread(target=pump, name="session-events", daemon=True)
        thread.start()
        try:
            while True:
                item = await queue.get()
                if item is done:
                    return
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            stop.set()
            # Drain so a pump blocked on the full queue observes stop.
            while thread.is_alive():
                while True:
                    try:
                        queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                await asyncio.sleep(0.01)

    @property
    def result(self) -> Optional[RunResult]:
        """The finished RunResult, or None while still exploring."""
        return self._result

    @property
    def started(self) -> bool:
        """True once the event stream has been claimed (by events/run)."""
        return self._streaming

    @staticmethod
    def close_worker_pools() -> None:
        """Close the process-wide shared worker pools.

        Parallel runs lease persistent worker pools that stay warm
        between sessions (that reuse is the point — spawn once, run
        many).  They are closed automatically at interpreter exit; call
        this to reclaim the processes earlier.  Caller-owned pools
        passed via ``worker_pool=`` are not touched.
        """
        from repro.parallel.pool import close_shared_pools

        close_shared_pools()

    # -- observability ---------------------------------------------------------

    @property
    def telemetry(self):
        """The engine-wide :class:`~repro.obs.telemetry.Telemetry` context.

        Builds the Chef loop on first access (like exploration does);
        enable tracing via ``ChefConfig(trace=True)`` before starting.
        """
        return self._chef_instance().telemetry

    def metrics(self):
        """Merged metrics snapshot (dotted-name → value) for this session.

        After ``run()`` this is the same registry the ``RunResult``
        stat dicts are views of — one registry, serial or parallel.
        """
        return self.telemetry.metrics()

    def write_chrome_trace(self, path) -> None:
        """Export recorded spans as a Chrome/Perfetto trace JSON file.

        Requires ``ChefConfig(trace=True)``; with tracing off the file
        is written but contains only metadata (no span events).
        """
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self.telemetry)

    # -- engine-facade conveniences -------------------------------------------

    def replay(self, case: TestCase):
        """Re-execute a generated test in the vanilla host VM."""
        return self._require_engine().replay(case)

    def exception_name(self, type_id: int) -> str:
        return self._require_engine().exception_name(type_id)

    def coverage(self, suite, replay_all: bool = False):
        return self._require_engine().coverage(suite, replay_all=replay_all)

    def _require_engine(self):
        if self.engine is None:
            raise ReproError(
                "this session was built from a raw LIR program; replay and "
                "coverage need a guest-language engine (use Session(language, "
                "source, ...))"
            )
        return self.engine


#: Public alias — ``Session(language, source, config)`` reads better at
#: call sites; ``SymbolicSession`` is the documented class name.
Session = SymbolicSession
