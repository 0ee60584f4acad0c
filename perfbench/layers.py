"""Per-layer exclusive time, recorded from outside the engine.

:func:`install` wraps the public entry points of each layer (nothing in
``src/`` changes).  Every wrapped call is a span; spans nest per thread,
and a span's *self* time is its duration minus the time its children
cover, so the self times of one thread sum exactly to the duration of
its top-level spans.  Per-instruction hooks (``HighLevelTree.advance``,
``HighLevelCfg.observe``) are counted, not timed, so the wrappers do not
distort the split.

Pool workers are forked from the traced process and inherit the
wrappers; each worker starts from empty totals and writes them to
``<dump_dir>/worker-<pid>.json`` when the pool stops it.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

_clock = time.perf_counter


class _ThreadTotals:
    """Span stack and running totals of one thread (no locking needed)."""

    def __init__(self):
        #: child time accumulated under each open span.
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: summed duration of top-level spans.
        self.top_s = 0.0


class LayerTracer:
    """Span bookkeeping shared by every wrapper in one process."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self._reset()

    def _reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadTotals] = []

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def span(self, name_of: Callable[[], str], call):
        """Run ``call()`` as a span; ``name_of()`` names it on exit."""
        totals = self._totals()
        totals.stack.append(0.0)
        start = _clock()
        try:
            return call()
        finally:
            duration = _clock() - start
            children = totals.stack.pop()
            name = name_of()
            totals.self_s[name] += duration - children
            totals.total_s[name] += duration
            if totals.stack:
                totals.stack[-1] += duration
            else:
                totals.top_s += duration

    def count(self, name: str) -> None:
        self._totals().counts[name] += 1

    def snapshot(self) -> Dict:
        """Totals of every thread of this process, summed."""
        with self._lock:
            threads = list(self._threads)
        return merge([vars(totals) for totals in threads])

    def take(self) -> Dict:
        """:meth:`snapshot`, then start again from empty totals."""
        snap = self.snapshot()
        self._reset()
        return snap

    def dump_worker(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def merge(snapshots: List[Dict]) -> Dict:
    """Sum tracer totals (of threads, or of worker processes)."""
    out = {"self_s": defaultdict(float), "total_s": defaultdict(float),
           "counts": defaultdict(int), "top_s": 0.0}
    for snap in snapshots:
        for key in ("self_s", "total_s", "counts"):
            for name, value in snap[key].items():
                out[key][name] += value
        out["top_s"] += snap["top_s"]
    return {key: dict(v) if isinstance(v, dict) else v for key, v in out.items()}


def take_worker_snapshots(dump_dir: str) -> Dict:
    """Merged totals of every worker that dumped into ``dump_dir``.

    The dump files are removed, so the next call sees only workers that
    stopped after this one.
    """
    snaps = []
    for path in sorted(glob.glob(os.path.join(dump_dir, "worker-*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            snaps.append(json.load(handle))
        os.unlink(path)
    return merge(snaps)


# -- wrapping ------------------------------------------------------------------


def _wrap_method(tracer: LayerTracer, cls, attr: str, name: str) -> None:
    original = getattr(cls, attr)

    def wrapper(*args, **kwargs):
        return tracer.span(lambda: name, lambda: original(*args, **kwargs))

    setattr(cls, attr, wrapper)


def _count_method(tracer: LayerTracer, cls, attr: str, name: str) -> None:
    original = getattr(cls, attr)

    def wrapper(*args, **kwargs):
        tracer.count(name)
        return original(*args, **kwargs)

    setattr(cls, attr, wrapper)


def _rebind_function(module, attr: str, wrapper_of) -> None:
    """Wrap ``module.attr`` and every ``from module import attr`` copy."""
    import sys

    original = getattr(module, attr)
    wrapper = wrapper_of(original)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name.startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _wrap_function(tracer: LayerTracer, module, attr: str, name: str) -> None:
    def wrapper_of(original):
        def wrapper(*args, **kwargs):
            return tracer.span(lambda: name, lambda: original(*args, **kwargs))

        return wrapper

    _rebind_function(module, attr, wrapper_of)


def _wrap_solver(tracer: LayerTracer, cls, attr: str) -> None:
    """Solver queries split by whether they ran any search steps."""
    original = getattr(cls, attr)

    def wrapper(self, *args, **kwargs):
        before = self.stats.search_steps

        def name_of():
            searched = self.stats.search_steps != before
            return "solver.check_search" if searched else "solver.check_nosearch"

        return tracer.span(name_of, lambda: original(self, *args, **kwargs))

    setattr(cls, attr, wrapper)


def _wrap_events(tracer: LayerTracer, cls) -> None:
    """``Session.events()``: every step of the stream is a ``chef`` span.

    Time spent inside the stream that no deeper wrapper claims is the
    Chef loop's own (unattributed) remainder, ``chef.self_s``.
    """
    original = cls.events

    def events(self, *args, **kwargs):
        inner = original(self, *args, **kwargs)

        def stream():
            try:
                while True:
                    done = []

                    def step():
                        try:
                            return next(inner)
                        except StopIteration:
                            done.append(True)
                            return None

                    event = tracer.span(lambda: "chef", step)
                    if done:
                        return
                    yield event
            finally:
                inner.close()

        return stream()

    cls.events = events


def install(dump_dir: str) -> LayerTracer:
    """Wrap every layer's entry points; returns the process tracer."""
    import repro.api  # noqa: F401  (loads the modules whose names we rebind)
    import repro.clay
    import repro.frontend
    import repro.interpreters.pylite.engine  # noqa: F401
    import repro.parallel.snapshot
    import repro.parallel.worker
    import repro.service.daemon  # noqa: F401
    from repro.api.session import SymbolicSession
    from repro.chef import strategies
    from repro.chef.engine import Chef
    from repro.chef.hltree import HighLevelCfg, HighLevelTree
    from repro.frontend import CompiledPyLite
    from repro.lowlevel.executor import LowLevelEngine
    from repro.parallel.pool import WorkerPool
    from repro.solver.csp import CspSolver

    tracer = LayerTracer(dump_dir)
    os.register_at_fork(after_in_child=tracer._reset)

    _wrap_function(tracer, repro.frontend, "compile_pylite", "frontend.lower")
    _wrap_method(tracer, CompiledPyLite, "build_program", "frontend.emit")
    _wrap_function(tracer, repro.clay, "compile_program", "clay.compile")
    _wrap_method(tracer, LowLevelEngine, "run_path", "lowlevel.run_path")
    _wrap_method(tracer, LowLevelEngine, "activate", "lowlevel.activate")
    _wrap_solver(tracer, CspSolver, "check")
    _wrap_solver(tracer, CspSolver, "max_value")
    for cls in (strategies.RandomStrategy, strategies.PathCupaStrategy,
                strategies.CoverageCupaStrategy):
        _wrap_method(tracer, cls, "select", "chef.select")
        _wrap_method(tracer, cls, "add", "chef.add")
    _wrap_method(tracer, HighLevelTree, "record_path", "chef.record_path")
    _count_method(tracer, HighLevelTree, "advance", "chef.hl_advances")
    _count_method(tracer, HighLevelCfg, "observe", "chef.cfg_observes")
    _wrap_events(tracer, SymbolicSession)
    _wrap_method(tracer, WorkerPool, "run_round", "parallel.ship")
    _wrap_method(tracer, WorkerPool, "acquire", "parallel.lease_wait")
    _wrap_method(tracer, WorkerPool, "configure", "parallel.configure")
    _wrap_method(tracer, Chef, "_pending_handle", "parallel.classify")
    _wrap_function(tracer, repro.parallel.worker, "run_chunk", "parallel.worker_batch")
    _wrap_function(tracer, repro.parallel.snapshot, "snapshot_states",
                   "parallel.snapshot_encode")
    _wrap_function(tracer, repro.parallel.snapshot, "restore_state",
                   "parallel.snapshot_decode")

    def worker_main_of(original):
        def worker_main(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                tracer.dump_worker()

        return worker_main

    _rebind_function(repro.parallel.worker, "_pool_worker_main", worker_main_of)
    return tracer


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(main: Dict, workers: Dict, counters: Dict) -> Dict[str, float]:
    """Per-layer metrics from tracer totals plus engine counters.

    ``main`` is the traced process (the benchmark or the daemon),
    ``workers`` the merged pool workers; layer self times add both, since
    a layer's work runs wherever the workload puts it.  ``counters`` are
    the engine's own counter totals for the run.
    """
    both = merge([main, workers])
    self_s = both["self_s"]
    w_total = workers["total_s"]

    queries = counters.get("solver.queries", 0)
    cache_lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    return {
        "frontend.lower_s": self_s.get("frontend.lower", 0.0),
        "frontend.emit_s": self_s.get("frontend.emit", 0.0),
        "clay.compile_s": self_s.get("clay.compile", 0.0),
        "frontend.lvm_instrs": counters.get("frontend.lvm_instrs", 0),
        "lowlevel.run_path_self_s": self_s.get("lowlevel.run_path", 0.0),
        "lowlevel.activate_self_s": self_s.get("lowlevel.activate", 0.0),
        "lowlevel.instrs": counters.get("engine.instrs_executed", 0),
        "lowlevel.states_created": counters.get("states_created", 0),
        "solver.check_nosearch_s": self_s.get("solver.check_nosearch", 0.0),
        "solver.check_search_s": self_s.get("solver.check_search", 0.0),
        "solver.queries": queries,
        "solver.search_steps": counters.get("solver.search_steps", 0),
        "solver.incremental_hit_ratio": _ratio(
            counters.get("solver.incremental_hits", 0), queries
        ),
        "solver.cache_hit_ratio": _ratio(counters.get("cache.hits", 0), cache_lookups),
        "solver.atoms_sliced": counters.get("solver.atoms_sliced", 0),
        "chef.select_s": self_s.get("chef.select", 0.0),
        "chef.add_s": self_s.get("chef.add", 0.0),
        "chef.record_path_s": self_s.get("chef.record_path", 0.0),
        "chef.self_s": self_s.get("chef", 0.0),
        "chef.hl_advances": both["counts"].get("chef.hl_advances", 0),
        "chef.cfg_observes": both["counts"].get("chef.cfg_observes", 0),
        "parallel.ship_s": self_s.get("parallel.ship", 0.0),
        "parallel.snapshot_encode_s": self_s.get("parallel.snapshot_encode", 0.0),
        "parallel.snapshot_decode_s": self_s.get("parallel.snapshot_decode", 0.0),
        "parallel.worker_run_path_s": w_total.get("lowlevel.run_path", 0.0),
        "parallel.worker_solver_s": w_total.get("solver.check_search", 0.0)
        + w_total.get("solver.check_nosearch", 0.0),
        "parallel.useful_frac": _ratio(
            w_total.get("lowlevel.run_path", 0.0) + w_total.get("lowlevel.activate", 0.0),
            w_total.get("parallel.worker_batch", 0.0),
        ),
        "parallel.classify_s": self_s.get("parallel.classify", 0.0),
        "parallel.lease_wait_s": self_s.get("parallel.lease_wait", 0.0),
        "parallel.configure_s": self_s.get("parallel.configure", 0.0),
        "parallel.program_ships": counters.get("parallel.program_ships", 0),
        "parallel.worker_self_s": workers["self_s"].get("parallel.worker_batch", 0.0),
        "service.session_s": counters.get("service.session_s", 0.0),
        "service.overhead_s": counters.get("service.overhead_s", 0.0),
        "service.events_streamed": counters.get("service.events_streamed", 0),
        "service.cross_run_hits": counters.get("service.cross_run_hits", 0),
        "obs.traced_wall_s": main["top_s"],
        "obs.self_sum_s": sum(main["self_s"].values()),
        "obs.worker_busy_s": workers["top_s"],
    }
