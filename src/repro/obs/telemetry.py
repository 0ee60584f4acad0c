"""The Telemetry context: one metrics registry + one span tracer.

A :class:`Telemetry` object is the per-engine observability context.
It is threaded *explicitly* through the layers (solver, low-level
engine, Chef, session, parallel workers) — there are no globals, so
concurrent sessions in one process stay isolated.  Components that are
constructed without one get a private disabled context: their metrics
still accumulate (counters are always on — they back the stats objects
benchmarks read), but no spans are recorded.

Tracing is opt-in because spans cost two clock reads and an event
append each.  Disabled-mode overhead is a single branch: hot code
guards on ``telemetry.enabled`` (or calls :meth:`Telemetry.span`,
which returns the shared no-op span); the benchmark suite checks that
a disabled run calls no tracer function.

Span events use wall-clock seconds from ``time.perf_counter`` —
on Linux a system-wide monotonic clock, so spans recorded in forked
worker processes land on the same time axis as the coordinator's and
the Chrome-trace export shows real lane overlap.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, merge_snapshots

__all__ = ["NULL_SPAN", "Span", "Telemetry"]

#: Slowest-observation capture depth for span histograms.
_KEEP_SLOWEST = 5


class _NullSpan:
    """Shared no-op span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One timed phase; records a trace event and a duration histogram.

    Use as a context manager::

        with telemetry.span("solver.check", atoms=len(atoms)) as span:
            result = ...
            span.set(status=result.status)

    On exit the span appends a Chrome-trace-shaped event to its
    telemetry context and observes its duration into the
    ``span.<name>`` histogram (with slowest-capture, labelled by the
    span's attributes — this is where "what were the slowest solver
    queries" comes from).
    """

    __slots__ = ("_telemetry", "name", "attrs", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict):
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        end = time.perf_counter()
        telemetry = self._telemetry
        duration = end - self._start
        telemetry.events.append(
            {
                "name": self.name,
                "ph": "X",
                "ts": self._start,
                "dur": duration,
                "pid": telemetry.pid,
                "lane": telemetry.lane,
                "args": self.attrs,
            }
        )
        label = (
            ", ".join(f"{k}={v}" for k, v in self.attrs.items()) if self.attrs else None
        )
        telemetry.registry.histogram("span." + self.name, _KEEP_SLOWEST).observe(
            duration, label=label
        )
        return False


class Telemetry:
    """Per-engine observability context: registry + tracer + event log.

    ``enabled`` gates the *tracer* only; the registry is always live.
    ``lane`` names this context's swimlane in trace exports
    ("coordinator", "worker-<pid>", ...).
    """

    def __init__(
        self,
        enabled: bool = False,
        registry: Optional[MetricsRegistry] = None,
        lane: str = "main",
    ):
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.lane = lane
        self.pid = os.getpid()
        #: span/instant events in internal form (seconds; see exporters).
        self.events: List[Dict] = []
        #: adopted foreign registries whose numbers belong in this
        #: context's metrics() view.
        self._adopted: List[MetricsRegistry] = []
        #: adopted static snapshots (e.g. merged per-worker registries).
        self._adopted_snapshots: List[Dict] = []

    def child(self, lane: str) -> "Telemetry":
        """A view of this context under another lane name.

        Shares the registry, the event log (the lists are the same
        objects) and the enabled flag; only the lane label differs —
        the coordinator uses this to put its ship/merge spans on their
        own swimlane next to the engine's.
        """
        twin = Telemetry(enabled=self.enabled, registry=self.registry, lane=lane)
        twin.events = self.events
        twin._adopted = self._adopted
        twin._adopted_snapshots = self._adopted_snapshots
        return twin

    # -- tracing --------------------------------------------------------------

    def span(self, name: str, **attrs):
        """A timed span, or the shared no-op when tracing is disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Zero-duration marker event (dropped when tracing is disabled)."""
        if not self.enabled:
            return
        self.events.append(
            {
                "name": name,
                "ph": "i",
                "ts": time.perf_counter(),
                "dur": 0.0,
                "pid": self.pid,
                "lane": self.lane,
                "args": attrs,
            }
        )

    def drain_events(self) -> List[Dict]:
        """Return and clear the event log (workers ship these per batch)."""
        events, self.events = self.events, []
        return events

    def extend_events(self, events) -> None:
        """Fold another context's drained events into this log."""
        self.events.extend(events)

    # -- metrics aggregation --------------------------------------------------

    def adopt_registry(self, registry: MetricsRegistry) -> None:
        """Include a foreign registry in :meth:`metrics`.

        Adopting the context's own registry (or one already adopted) is
        a no-op.
        """
        if registry is self.registry:
            return
        if any(reg is registry for reg in self._adopted):
            return
        self._adopted.append(registry)

    def adopt_snapshot(self, snapshot: Dict) -> None:
        """Include a static snapshot (e.g. merged worker totals)."""
        self._adopted_snapshots.append(snapshot)

    def metrics(self) -> Dict:
        """Merged snapshot: own registry + adopted registries/snapshots."""
        snapshot = self.registry.snapshot()
        if not self._adopted and not self._adopted_snapshots:
            # Merging one snapshot gives it back, at a cost the serial
            # loop would pay after every path.
            return snapshot
        parts: List[Dict] = [snapshot]
        parts.extend(registry.snapshot() for registry in self._adopted)
        parts.extend(self._adopted_snapshots)
        return merge_snapshots(parts)
