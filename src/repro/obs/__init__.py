"""repro.obs — engine-wide observability (metrics, spans, exporters).

Three pieces, layered so any component can use the cheap parts alone:

- :mod:`repro.obs.metrics` — typed counters/gauges/histograms in a
  :class:`MetricsRegistry`; the single store behind ``SolverStats``
  and ``EngineStats``.  Always on.
- :mod:`repro.obs.telemetry` — the :class:`Telemetry` context (one
  registry + one span tracer), threaded explicitly per engine; span
  tracing is opt-in and a no-op costs one branch.
- :mod:`repro.obs.export` — Chrome trace-event JSON (for
  ``chrome://tracing`` / Perfetto), JSON-lines event logs and a
  plain-text summary table.

See the "Observability" section of ``docs/architecture.md`` for the
span taxonomy and metric name catalogue.
"""

from repro.obs.export import (
    chrome_trace,
    summary_table,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    split_prefixed,
)
from repro.obs.telemetry import NULL_SPAN, Span, Telemetry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Telemetry",
    "chrome_trace",
    "merge_snapshots",
    "split_prefixed",
    "summary_table",
    "write_chrome_trace",
    "write_events_jsonl",
]
