"""One measuring process: repeated sessions of one workload.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 \\
        --seconds S --scratch DIR --result FILE

The process runs one unmeasured warm-up repetition, then repetitions
until ``--seconds`` have passed.  In-process repetitions (the PyLite and
branchy workloads) are one session each and start from fresh shared
worker pools, a fresh global model cache and fresh intern tables;
service-mix repetitions are one session loop each against a freshly
spawned daemon with a fresh ``--cache-dir``.  The timed region is the
exploration alone; host-speed probes (``calibrate.py``) bracket it, and
every correctness check runs after it.

With ``--trace 1`` the layer tracer is installed (see ``layers.py``) and
each repetition also reports its per-layer metrics.  The result is one
JSON document written to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

clock = time.perf_counter

#: generous per-session exploration budget; a budget stop fails the
#: path-count check instead of passing silently.
TIME_BUDGET = 60.0
#: concurrent closed-loop clients of the service-mix daemon.
SERVICE_CLIENTS = 2


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux 4.0+)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then also covers earlier repetitions


def peak_rss_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def count_checks(expected: int, ll_paths: int, hl_paths: int, completed: int,
                 found: int) -> list:
    """Path-count oracle: failure descriptions (empty = pass)."""
    problems = []
    if ll_paths != expected or completed != expected:
        problems.append(f"LL paths {ll_paths} (events {completed}), want {expected}")
    if hl_paths != expected or found != expected:
        problems.append(f"HL paths {hl_paths} (TestCaseFound {found}), want {expected}")
    return problems


def numeric(metrics) -> dict:
    return {k: v for k, v in metrics.items() if isinstance(v, (int, float))}


# -- in-process workloads ------------------------------------------------------


class InProcess:
    """One Session per repetition, explored in this process."""

    def __init__(self, workload: str, seed: int, tracer, scratch: str):
        from repro.chef.options import ChefConfig

        self.workload = workload
        self.tracer = tracer
        self.scratch = scratch
        if workload == "branchy-par":
            from repro.bench.workloads import traced_source

            self.source = traced_source(inputs.BRANCHY_BYTES)
            self.paths = inputs.BRANCHY_PATHS
            self.config = ChefConfig(seed=seed, time_budget=TIME_BUDGET, workers=2)
            self.cpus = 2
            self.reference = self._serial_signatures()
            import repro.clay

            program = repro.clay.compile_program(self.source).program
        else:
            from repro.frontend import compile_pylite

            pylite = inputs.serial_program(workload, seed)
            self.source = pylite.source
            self.paths = pylite.paths
            self.config = ChefConfig(seed=seed, time_budget=TIME_BUDGET)
            self.cpus = 1
            program = compile_pylite(self.source).build_program()
        self.lvm_instrs = program.total_instrs()

    def _session(self):
        """Compile, lower and emit: the set-up of one session."""
        from repro.api import Session

        if self.workload == "branchy-par":
            import repro.clay

            program = repro.clay.compile_program(self.source).program
            session = Session.from_program(program, self.config)
        else:
            session = Session("pylite", self.source, self.config)
        session.telemetry  # builds the Chef loop, which emits the Program
        return session

    def _serial_signatures(self) -> Counter:
        """The HL-signature multiset of a serial run of the same program."""
        import repro.clay
        from repro.api import Session
        from repro.chef.options import ChefConfig

        session = Session.from_program(
            repro.clay.compile_program(self.source).program,
            ChefConfig(time_budget=TIME_BUDGET, workers=1),
        )
        return Counter(case.hl_path_signature for case in session.run().suite.cases)

    def once(self) -> dict:
        from repro.api import Session
        from repro.api.events import PathCompleted, RunFinished, TestCaseFound
        from repro.chef.testcase import TestSuite
        from repro.lowlevel.expr import Sym, clear_intern_cache
        from repro.solver.cache import reset_global_model_cache

        # Fresh process-global state, and no garbage left to collect
        # inside the timed region.
        Session.close_worker_pools()
        reset_global_model_cache()
        clear_intern_cache()
        Sym.reset_registry()
        gc.collect()
        before = calibrate.probe(self.cpus)
        reset_peak_rss()
        if self.tracer is not None:
            self.tracer.take()

        start = clock()
        session = self._session()
        setup = clock() - start
        completed, found = [], []
        first_test = result = None
        start = clock()
        for event in session.events():
            if isinstance(event, TestCaseFound):
                if first_test is None:
                    first_test = clock() - start
                found.append(event.case)
            elif isinstance(event, PathCompleted):
                completed.append(event.case)
            elif isinstance(event, RunFinished):
                result = event.result
        explore = clock() - start
        rss = peak_rss_mb()
        speed = calibrate.speed_factor(before, calibrate.probe(self.cpus))

        Session.close_worker_pools()  # traced workers write their totals on stop
        rep = {
            "speed": speed,
            "peak_rss_mb": rss,
            "setup_s": [setup],
            "explore_s": explore,
            "first_test_s": [first_test],
            "ll_paths": result.ll_paths,
            "sessions_s": [setup + explore],
            "sessions_per_s": 1.0 / (setup + explore),
            "attempted": 1,
        }
        counters = numeric(session.metrics())
        counters["states_created"] = result.states_created
        counters["frontend.lvm_instrs"] = self.lvm_instrs
        if self.tracer is not None:
            rep["layers"] = layers.layer_metrics(
                self.tracer.take(), layers.take_worker_snapshots(self.scratch), counters
            )
        problems = count_checks(self.paths, result.ll_paths, result.hl_paths,
                                len(completed), len(found))
        if self.workload == "branchy-par":
            if Counter(c.hl_path_signature for c in completed) != self.reference:
                problems.append("HL-signature multiset differs from the serial run")
        else:
            reports = session.engine.differential_sweep(TestSuite(cases=found))
            problems += [f"differential: {r.detail}" for r in reports if not r.matches]
        rep["problems"] = problems
        rep["failed"] = 1 if problems else 0
        return rep


# -- service-mix ---------------------------------------------------------------


class ServiceLoop:
    """One closed session loop per repetition against a fresh daemon."""

    def __init__(self, seed: int, traced: bool, scratch: str):
        self.seed = seed
        self.traced = traced
        self.scratch = scratch
        self.sessions = inputs.service_sessions(seed)
        self.loops = 0
        self.engines = {}

    def once(self) -> dict:
        from repro.service.client import ServiceClient

        # A fresh directory per loop: fresh cache stores, socket, dumps.
        # The socket path is relative, which keeps it under the Unix
        # socket length limit however deep the checkout is.
        loop_dir = os.path.join(self.scratch, f"loop-{self.loops}")
        self.loops += 1
        os.makedirs(loop_dir)
        os.chdir(loop_dir)
        serve = ["serve", "--socket", "d.sock", "--workers", "2", "--cache-dir", "cache"]
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "tracedaemon.py"), "."] + serve
        else:
            cmd = [sys.executable, "-m", "repro.service"] + serve
        gc.collect()
        before = calibrate.probe(cpus=2)
        start = clock()
        daemon = subprocess.Popen(cmd)
        try:
            ServiceClient("d.sock", retries=400, backoff=0.005, backoff_max=0.02,
                          deadline=60.0).ping()
            setup = clock() - start
            records = [None] * len(self.sessions)
            cursor = iter(range(len(self.sessions)))
            lock = threading.Lock()

            def client_loop():
                client = ServiceClient("d.sock", timeout=120.0)
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    records[index] = self._one_session(client, self.sessions[index])

            start = clock()
            threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            loop_s = clock() - start
            speed = calibrate.speed_factor(before, calibrate.probe(cpus=2))
            control = ServiceClient("d.sock", timeout=60.0)
            stats = control.stats()
            rss = peak_rss_mb(daemon.pid)
            control.shutdown()
            daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            os.chdir(self.scratch)
        rep = self._check(records, stats, setup, loop_s)
        rep["speed"] = speed
        rep["peak_rss_mb"] = rss
        if self.traced:
            with open(os.path.join(loop_dir, "daemon.json"), "r", encoding="utf-8") as handle:
                main = json.load(handle)
            rep["layers"] = layers.layer_metrics(
                main, layers.take_worker_snapshots(loop_dir), rep["counters"]
            )
        shutil.rmtree(loop_dir, ignore_errors=True)
        return rep

    def _one_session(self, client, program) -> dict:
        """Submit one session and wait for its RunFinished (closed loop)."""
        record = {"events": [], "error": None, "first_test_s": None}
        submit = clock()
        try:
            for message in client.run_events(
                language="pylite", source=program.source,
                config={"seed": self.seed, "time_budget": TIME_BUDGET},
            ):
                if message.get("event") == "TestCaseFound" and record["first_test_s"] is None:
                    record["first_test_s"] = clock() - submit
                record["events"].append(message)
        except Exception as exc:  # an errored session counts as failed
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency_s"] = clock() - submit
        return record

    def _check(self, records, stats, setup, loop_s) -> dict:
        from repro.chef.testcase import TestCase, TestSuite
        from repro.interpreters.pylite.engine import PyLiteEngine

        problems = []
        counters = Counter()
        ll_total = failed = lvm_instrs = 0
        for program, record in zip(self.sessions, records):
            session_problems = []
            events = record["events"]
            finished = [m for m in events if m.get("event") == "RunFinished"]
            if record["error"] or not finished:
                session_problems.append(record["error"] or "no RunFinished")
            else:
                result = finished[0]["result"]
                ll_total += result["ll_paths"]
                counters["states_created"] += result["states_created"]
                updates = [m for m in events if m.get("event") == "MetricsUpdated"]
                if updates:
                    counters.update(numeric(updates[-1]["metrics"]))
                found = [m["case"] for m in events if m.get("event") == "TestCaseFound"]
                completed = sum(1 for m in events if m.get("event") == "PathCompleted")
                session_problems += count_checks(program.paths, result["ll_paths"],
                                                 result["hl_paths"], completed, len(found))
                engine = self.engines.get(program.source)
                if engine is None:
                    engine = self.engines[program.source] = PyLiteEngine(program.source)
                suite = TestSuite(cases=[TestCase(**wire) for wire in found])
                session_problems += [f"differential: {r.detail}"
                                     for r in engine.differential_sweep(suite) if not r.matches]
                lvm_instrs += engine.build_program().total_instrs()
            if session_problems:
                failed += 1
                problems += [f"{program.pack}({program.seed_string!r}): {p}"
                             for p in session_problems]
        service = stats["metrics"]
        seconds = service.get("service.session_seconds", {})
        latencies = [r["latency_s"] for r in records]
        in_daemon = seconds.get("sum", 0.0) / max(seconds.get("count", 0), 1)
        # Session counters are summed over sessions; program ships are a
        # pool total, which the stats reply carries directly.
        counters.update({
            "frontend.lvm_instrs": lvm_instrs,
            "parallel.program_ships": stats["pool"]["program_ships"],
            "service.session_s": in_daemon,
            "service.overhead_s": statistics.fmean(latencies) - in_daemon,
            "service.events_streamed": service.get("service.events_streamed", 0),
            "service.cross_run_hits": service.get("service.cache.cross_run_hits", 0),
        })
        return {
            "setup_s": [setup],
            "explore_s": loop_s,
            "first_test_s": [r["first_test_s"] for r in records
                             if r["first_test_s"] is not None],
            "ll_paths": ll_total,
            "sessions_s": latencies,
            "sessions_per_s": len(records) / loop_s,
            "attempted": len(records),
            "failed": failed,
            "problems": problems,
            "counters": dict(counters),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    out = {"workload": args.workload, "traced": bool(args.trace)}
    try:
        if args.workload not in ("branchy-par", "service-mix", *inputs.SERIAL):
            raise ValueError(f"unknown workload {args.workload!r}")
        if args.workload == "service-mix":
            # The daemon installs its own tracer (tracedaemon.py).
            runner = ServiceLoop(args.seed, bool(args.trace), args.scratch)
        else:
            tracer = layers.install(args.scratch) if args.trace else None
            runner = InProcess(args.workload, args.seed, tracer, args.scratch)
        warmup = runner.once()
        deadline = clock() + args.seconds
        reps = []
        while not reps or clock() < deadline:
            reps.append(runner.once())
        out["repetitions"] = [{k: v for k, v in r.items() if k != "counters"} for r in reps]
        out["attempted"] = warmup["attempted"] + sum(r["attempted"] for r in reps)
        out["failed"] = warmup["failed"] + sum(r["failed"] for r in reps)
        out["problems"] = warmup["problems"] + [p for r in reps for p in r["problems"]]
    except Exception:
        out["error"] = traceback.format_exc()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
