"""Helpers for the pytest benchmark suite: settings, tables, JSON report.

The repeated end-to-end benchmark lives in ``perfbench/``; it uses
:mod:`repro.bench.workloads` and :func:`repro.bench.perfjson.run_metadata`.
"""

from repro.bench.harness import BenchSettings
from repro.bench.reporting import render_table

__all__ = ["BenchSettings", "render_table"]
