"""The staged pipeline's observability and stage contracts."""

import pytest

from repro.core.engine import Database
from repro.core.pipeline import (
    STAGES,
    TRACE_HISTORY,
    PipelineTracer,
    UpdateTrace,
)
from repro.core.transaction import KIND_GROUND, KIND_SIMULTANEOUS
from repro.errors import ParseError
from repro.obs.metrics import MetricsRegistry


class TestTracer:
    def test_stage_timing_accumulates(self):
        registry = MetricsRegistry()
        tracer = PipelineTracer(registry)
        tracer.begin("gua")
        with tracer.stage("parse"):
            pass
        with tracer.stage("execute") as event:
            event.detail["wffs_added"] = 2
        tracer.commit()

        trace = tracer.last()
        assert isinstance(trace, UpdateTrace)
        assert [e.stage for e in trace.events] == ["parse", "execute"]
        assert all(e.seconds >= 0 for e in trace.events)
        assert trace.events[1].detail["wffs_added"] == 2
        assert len(tracer.history()) == 1
        snap = registry.snapshot()
        assert snap["pipeline.parse.seconds.count"] == 1
        assert snap["pipeline.execute.seconds.count"] == 1

    def test_abort_drops_trace_but_keeps_totals(self):
        registry = MetricsRegistry()
        tracer = PipelineTracer(registry)
        tracer.begin("gua")
        with tracer.stage("parse"):
            pass
        tracer.abort()
        assert tracer.last() is None
        assert tracer.history() == ()
        assert registry.snapshot()["pipeline.parse.seconds.count"] == 1

    def test_bounded_history(self):
        registry = MetricsRegistry()
        tracer = PipelineTracer(registry)
        for _ in range(TRACE_HISTORY + 2):
            tracer.begin("gua")
            with tracer.stage("parse"):
                pass
            tracer.commit()
        assert len(tracer.history()) == TRACE_HISTORY
        assert (
            registry.snapshot()["pipeline.parse.seconds.count"]
            == TRACE_HISTORY + 2
        )

    def test_statistics_keys(self):
        registry = MetricsRegistry()
        PipelineTracer(registry)
        snap = registry.snapshot()
        for stage in STAGES:
            assert snap[f"pipeline.{stage}.seconds.count"] == 0
            assert snap[f"pipeline.{stage}.seconds.sum"] == 0.0


class TestDatabaseStageStatistics:
    """Regression: metrics_snapshot() must report per-stage pipeline
    timings."""

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_every_stage_counted_per_update(self, backend):
        db = Database(backend=backend)
        db.update("INSERT P(a) | P(b) WHERE T")
        db.update("ASSERT P(a)")
        stats = db.metrics_snapshot()
        assert stats["engine.updates_applied"] == 2
        for stage in STAGES:
            assert stats[f"pipeline.{stage}.seconds.count"] == 2, stage
            assert stats[f"pipeline.{stage}.seconds.sum"] >= 0.0
        # Execution took measurable (nonzero) time somewhere.
        assert stats["pipeline.execute.seconds.sum"] > 0.0

    def test_last_trace_shape(self):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        trace = db.last_trace()
        assert [e.stage for e in trace.events] == list(STAGES)
        assert trace.backend == "gua"
        assert trace.kind == KIND_GROUND
        assert trace.sequence == db.transactions.log.entries()[-1].sequence
        assert trace.total_seconds == sum(e.seconds for e in trace.events)

    def test_open_update_traced_as_open(self):
        db = Database(facts=["P(a)"])
        db.update("INSERT Q(?x) WHERE P(?x)")
        trace = db.last_trace()
        assert trace.kind == "open"
        normalize = trace.events[1]
        assert normalize.stage == "normalize"
        assert normalize.detail["pairs"] == 1

    def test_failed_update_not_traced(self):
        db = Database()
        with pytest.raises(ParseError):
            db.update("FROBNICATE P(a)")
        assert db.last_trace() is None
        assert db.metrics_snapshot()["engine.updates_applied"] == 0
        assert len(db.transactions.log) == 0


class TestJournalStage:
    def test_ground_and_simultaneous_kinds(self):
        db = Database(facts=["P(a)", "P(b)"])
        db.update("ASSERT P(a)")
        db.update("INSERT Q(?x) WHERE P(?x)")
        kinds = [entry.kind for entry in db.transactions.log.entries()]
        assert kinds == [KIND_GROUND, KIND_SIMULTANEOUS]

    def test_journal_matches_replay(self):
        db = Database()
        db.run_script(
            "INSERT P(a) | P(b) WHERE T; INSERT Mark(?x) WHERE P(?x)"
        )
        replayed = db.transactions.replay()
        assert replayed.world_set() == db.theory.world_set()

