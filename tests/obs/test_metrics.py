"""Unit tests for the obs metrics registry primitives."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_property,
    merge_snapshots,
    split_prefixed,
)


class TestPrimitives:
    def test_counter_inc(self):
        counter = Counter("solver.queries")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set(self):
        gauge = Gauge("cache.entries")
        gauge.set(17)
        assert gauge.value == 17

    def test_histogram_observe_and_snapshot(self):
        hist = Histogram("span.solver.check")
        for value in (0.5, 2.0, 1.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(3.5)
        assert snap["min"] == pytest.approx(0.5)
        assert snap["max"] == pytest.approx(2.0)

    def test_histogram_slowest_capture_is_capped_and_sorted(self):
        hist = Histogram("span.solver.check", keep_slowest=3)
        for i in range(10):
            hist.observe(float(i), label=f"query-{i}")
        slowest = hist.snapshot()["slowest"]
        assert len(slowest) == 3
        assert [label for _v, label in slowest] == ["query-9", "query-8", "query-7"]


class TestRegistry:
    def test_create_or_return_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_collision_across_types_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_flat_and_detached(self):
        registry = MetricsRegistry()
        registry.counter("solver.queries").inc(3)
        registry.gauge("cache.entries").set(2)
        registry.histogram("span.check").observe(0.25)
        snap = registry.snapshot()
        assert snap["solver.queries"] == 3
        assert snap["cache.entries"] == 2
        assert snap["span.check"]["count"] == 1
        registry.counter("solver.queries").inc()
        assert snap["solver.queries"] == 3  # snapshot is a copy

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.gauge("g").set(9)
        registry.histogram("h").observe(9.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["c"] == 0
        assert snap["g"] == 0
        assert snap["h"]["count"] == 0


class TestSnapshotAlgebra:
    def test_merge_adds_numbers_and_folds_histograms(self):
        merged = merge_snapshots(
            [
                {"solver.queries": 3, "span.check": {"count": 2, "sum": 1.0, "min": 0.25, "max": 0.75, "slowest": [[0.75, "a"]]}},
                {"solver.queries": 4, "span.check": {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0, "slowest": [[2.0, "b"]]}},
            ]
        )
        assert merged["solver.queries"] == 7
        assert merged["span.check"]["count"] == 3
        assert merged["span.check"]["sum"] == pytest.approx(3.0)
        assert merged["span.check"]["min"] == pytest.approx(0.25)
        assert merged["span.check"]["max"] == pytest.approx(2.0)
        assert merged["span.check"]["slowest"][0][0] == pytest.approx(2.0)

    def test_merge_of_disjoint_keys_unions(self):
        merged = merge_snapshots([{"a": 1}, {"b": 2}])
        assert merged == {"a": 1, "b": 2}

    def test_split_prefixed_strips_prefix(self):
        snap = {"solver.queries": 5, "parallel.ships": 2, "engine.forks": 1}
        assert split_prefixed(snap, "solver") == {"queries": 5}
        assert split_prefixed(snap, "parallel") == {"ships": 2}


class TestCounterProperty:
    def test_property_views_read_and_write_the_registry(self):
        class Stats:
            def __init__(self, registry):
                self._counters = {"queries": registry.counter("solver.queries")}

        Stats.queries = counter_property("queries")
        registry = MetricsRegistry()
        stats = Stats(registry)
        stats.queries += 3
        # Reads are plain ints, so before/after comparisons don't alias.
        before = stats.queries
        stats.queries += 1
        assert before == 3
        assert stats.queries == 4
        assert registry.snapshot()["solver.queries"] == 4


class TestTelemetryMetrics:
    def _telemetry(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(enabled=True)
        registry = telemetry.registry
        registry.counter("engine.forks").inc(3)
        registry.gauge("solver.entries").set(2.5)
        registry.histogram("span.empty", 5)
        slow = registry.histogram("span.solver.check", 5)
        # Ties and more observations than are kept: the order of the
        # kept ones must survive unchanged.
        for value, label in [(0.5, "a"), (0.25, "b"), (0.5, "c"), (0.75, "d"),
                             (0.25, "e"), (0.5, "f"), (0.1, "g"), (0.75, "h")]:
            slow.observe(value, label)
        return telemetry

    def test_unadopted_metrics_equal_the_merged_snapshot(self):
        telemetry = self._telemetry()
        metrics = telemetry.metrics()
        assert metrics == merge_snapshots([telemetry.registry.snapshot()])
        assert list(metrics) == list(merge_snapshots([telemetry.registry.snapshot()]))
        assert metrics["span.solver.check"]["slowest"] == [
            [0.75, "d"], [0.75, "h"], [0.5, "a"], [0.5, "c"], [0.5, "f"]
        ]

    def test_a_session_reports_the_merged_snapshot(self):
        from repro.api import Session
        from repro.chef.options import ChefConfig
        from repro.clay import compile_program

        program = compile_program("""
        const BUF = 700;
        fn main() {
            make_symbolic(BUF, 2, 0, 255);
            if (load(BUF) == 'a') { out(1); } else { out(0); }
            end_symbolic();
        }
        """).program
        session = Session.from_program(program, ChefConfig(seed=1, trace=True))
        session.run()
        telemetry = session.telemetry
        assert not telemetry._adopted and not telemetry._adopted_snapshots
        assert telemetry.metrics() == merge_snapshots([telemetry.registry.snapshot()])

    def test_adopted_registries_still_merge(self):
        telemetry = self._telemetry()
        other = MetricsRegistry()
        other.counter("engine.forks").inc(2)
        telemetry.adopt_registry(other)
        assert telemetry.metrics()["engine.forks"] == 5
