"""Machine-readable counters of the pytest benchmark suite.

Benchmarks call :func:`update_bench_json` with a section name and a
payload; the file accumulates sections across benchmark runs
(read-modify-write), so one pytest invocation of the benchmark suite
leaves a single JSON document of solver and parallel-exploration
counters.  The repeated end-to-end benchmark lives in ``perfbench/``
(declared by ``BENCHMARK.json``); this file is only a scratch report.

The envelope carries a ``meta`` block (:func:`run_metadata`: git sha,
python version, UTC timestamp, host core count) so a committed number
can always be traced back to the tree and machine that produced it.

Parallel wall-clock ratios go through :func:`speedup_summary`, which
reports ``wall_time_s`` per worker count and labels each ratio —
sub-1× is ``"overhead-bound"``, not a "0.12× speedup": on hosts whose
cores can't actually run the workers concurrently, the measurement is
IPC + snapshot-codec overhead, and calling it a speedup misled every
reader of the pr4-era files.  :func:`phase_totals` turns the span
histograms of a traced run into a per-phase time breakdown (ship /
merge / classify / worker compute), so the bench file says *where* a
wall-clock number went, not just what it was.

The document goes to ``REPRO_BENCH_JSON`` when that is set, else to
``repro-bench.json`` in the system temp directory — never into the
checkout, so running the test suite leaves every tracked file as it
was.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
import time
from typing import Dict, Optional

SCHEMA = "repro-bench/pr10"

#: Repo root (this file lives at src/repro/bench/perfjson.py).
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, os.pardir)
)

DEFAULT_PATH = os.path.join(tempfile.gettempdir(), "repro-bench.json")


def run_metadata() -> Dict:
    """Provenance of a bench run: git sha, python, timestamp, cores."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
    }


def speedup_summary(serial_wall_s: float, parallel_wall_s: Dict[int, float]) -> Dict:
    """Honest wall-clock comparison across worker counts.

    ``parallel_wall_s`` maps worker count → wall seconds.  Each entry
    reports the serial/parallel ratio and a label: ``"speedup"`` above
    1×, ``"overhead-bound"`` at or below — a sharded run that loses to
    the serial loop is dominated by snapshot/IPC cost, and should be
    read next to ``cpu_count`` (fewer cores than workers can't show a
    real speedup at all).
    """
    cpu_count = os.cpu_count() or 1
    runs = []
    for workers in sorted(parallel_wall_s):
        wall = parallel_wall_s[workers]
        ratio = serial_wall_s / wall if wall else 0.0
        runs.append(
            {
                "workers": workers,
                "wall_time_s": round(wall, 4),
                "ratio_vs_serial": round(ratio, 3),
                "label": "speedup" if ratio > 1.0 else "overhead-bound",
                "cores_limited": cpu_count < workers,
            }
        )
    return {
        "serial_wall_time_s": round(serial_wall_s, 4),
        "cpu_count": cpu_count,
        "runs": runs,
    }


def phase_totals(metrics: Dict) -> Dict:
    """Per-phase time breakdown from a merged metrics snapshot.

    Span histograms land in the registry as ``span.<name>`` dicts with
    ``count``/``sum``; this flattens them to ``{name: {count,
    total_s}}`` so the bench JSON can report where the wall-clock of a
    traced run actually went (snapshot shipping vs merge vs
    classification vs in-worker compute).  Pass the coordinator-side
    snapshot and the merged worker snapshot separately — their lanes
    overlap in time, so their totals must not be added together.
    """
    out: Dict = {}
    for name, value in metrics.items():
        if name.startswith("span.") and isinstance(value, dict):
            out[name[len("span."):]] = {
                "count": value.get("count", 0),
                "total_s": round(value.get("sum", 0.0), 4),
            }
    return out


def update_bench_json(section: str, payload: Dict, path: Optional[str] = None) -> str:
    """Merge ``payload`` under ``section`` in the bench JSON; returns path.

    Unknown or corrupt existing content is replaced rather than crashing
    the benchmark that reports into it.  ``meta`` is restamped on every
    write, so it describes the latest run that touched the file.
    """
    target = path or os.environ.get("REPRO_BENCH_JSON") or DEFAULT_PATH
    document: Dict = {}
    try:
        with open(target, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and existing.get("schema") == SCHEMA:
            document = existing
    except (OSError, ValueError):
        pass
    document["schema"] = SCHEMA
    document["meta"] = run_metadata()
    document.pop("cpu_count", None)  # pr4 field, now inside meta
    sections = document.setdefault("sections", {})
    sections[section] = payload
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


__all__ = [
    "DEFAULT_PATH",
    "SCHEMA",
    "phase_totals",
    "run_metadata",
    "speedup_summary",
    "update_bench_json",
]
