"""The metrics registry: instruments, collectors, namespacing, and the
collision check of the one dotted view."""

import pytest

from repro.obs.metrics import BUCKETS, Counter, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter("sat.conflicts")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.snapshot() == {"sat.conflicts": 5}

    def test_histogram_buckets_and_percentiles(self):
        assert list(BUCKETS) == sorted(BUCKETS)
        histogram = Histogram("stage.seconds")
        for value in [0.0008] * 90 + [0.03] * 9 + [10.0]:
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["stage.seconds.count"] == 100
        assert snap["stage.seconds.sum"] == pytest.approx(0.072 + 0.27 + 10.0)
        # Percentile estimates are bucket upper bounds.
        assert snap["stage.seconds.p50"] == 0.001
        assert snap["stage.seconds.p90"] == 0.001
        assert snap["stage.seconds.p99"] == 0.05
        assert histogram.overflow == 1
        assert histogram.percentile(100) == float("inf")

    def test_empty_histogram(self):
        histogram = Histogram("x")
        assert histogram.percentile(50) == 0.0
        assert histogram.snapshot()["x.count"] == 0


class TestRegistry:
    def test_instruments_are_memoized_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.histogram("a")
        registry.histogram("h")
        with pytest.raises(TypeError):
            registry.counter("h")

    def test_collector_namespacing_with_strip(self):
        # Sources emit plain keys; the registry adds the namespace.
        registry = MetricsRegistry()
        registry.register_collector(
            "sat", lambda: {"conflicts": 3, "decisions": 9}
        )
        snap = registry.snapshot()
        assert snap == {"sat.conflicts": 3, "sat.decisions": 9}

    def test_snapshot_collision_names_both_sources(self):
        # The dotted snapshot is the one view, and it keeps the collision
        # check: two sources producing the same key raise, naming both.
        registry = MetricsRegistry()
        registry.register_collector("one", lambda: {"two.wffs": 1})
        registry.register_collector("one.two", lambda: {"wffs": 2})
        with pytest.raises(ValueError, match="'one'.*'one.two'"):
            registry.snapshot()

    def test_instruments_join_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.errors").inc(2)
        registry.histogram("pipeline.execute.seconds").observe(0.002)
        snap = registry.snapshot()
        assert snap["pipeline.errors"] == 2
        assert snap["pipeline.execute.seconds.count"] == 1
        registry.register_collector("pipeline", lambda: {"errors": 0})
        with pytest.raises(ValueError, match="'pipeline'.*'instrument:"):
            registry.snapshot()

    def test_reregistering_namespace_replaces(self):
        registry = MetricsRegistry()
        registry.register_collector("x", lambda: {"k": 1})
        registry.register_collector("x", lambda: {"k": 2})
        assert registry.snapshot() == {"x.k": 2}
