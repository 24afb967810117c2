"""Engine-level telemetry wiring: the one dotted metrics view behind
``Database.metrics_snapshot()`` (its key set, and key uniqueness across all
sources), the keys the façade benchmark reads, and the rollback guarantee
that a rewound update's trace is never reported as current."""

import pytest

from repro.core.engine import Database
from repro.core.pipeline import STAGES

BACKENDS = ["gua", "log", "naive"]

_HISTOGRAM_STATS = ("count", "sum", "p50", "p90", "p99")

#: The dotted key set of every backend before the telemetry collapse,
#: without the arena's per-pass ``arena.memo_<pass>_{hits,misses}`` pairs,
#: which appear process-wide as transform passes first run.
PRE_COLLAPSE_COMMON_KEYS = (
    {
        "arena.hit_rate",
        "arena.intern_hits",
        "arena.intern_misses",
        "arena.interned_nodes",
        "engine.updates_applied",
        "obs.enabled",
        "obs.roots_buffered",
        "obs.roots_finished",
        "obs.sample_every",
        "obs.spans_started",
        "pipeline.updates",
    }
    | {f"pipeline.{stage}.calls" for stage in STAGES}
    | {f"pipeline.{stage}.seconds" for stage in STAGES}
    | {
        f"pipeline.{stage}.seconds.{stat}"
        for stage in STAGES
        for stat in _HISTOGRAM_STATS
    }
)
PRE_COLLAPSE_BACKEND_KEYS = {
    "gua": {
        "sat.clauses_added",
        "sat.conflicts",
        "sat.decisions",
        "sat.propagations",
        "sat.solve_calls",
        "theory.constants",
        "theory.dependencies",
        "theory.ground_atoms",
        "theory.max_predicate_population",
        "theory.nodes",
        "theory.predicate_constants",
        "theory.predicates",
        "theory.wffs",
        "tseitin.cache_hits",
        "tseitin.cache_misses",
    },
    "log": {"log.materialized", "log.pending", "log.replays"},
    "naive": {"naive.universe_atoms", "naive.worlds"},
}

#: The four keys the collapse drops; their data lives on in the stage
#: histograms' ``.count``/``.sum`` and in ``engine.updates_applied``.
DROPPED_KEYS = (
    {f"pipeline.{stage}.calls" for stage in STAGES}
    | {f"pipeline.{stage}.seconds" for stage in STAGES}
    | {"pipeline.updates", "obs.sample_every"}
)

#: Every ``metrics_snapshot()`` key the façade benchmark (perfbench) reads.
PERFBENCH_KEYS = {
    "theory.nodes",
    "theory.wffs",
    "sat.decisions",
    "sat.conflicts",
    "tseitin.cache_hits",
    "tseitin.cache_misses",
    "arena.intern_hits",
    "arena.intern_misses",
    "obs.enabled",
}


def worked_db(backend):
    return Database(facts=["R(a)", "R(a) | R(b)"], backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestStatisticsUniqueness:
    def test_flat_keys_unique_across_all_sources(self, backend):
        # snapshot() raises on any cross-source collision, so merely
        # building the view after real work asserts global key uniqueness.
        db = worked_db(backend)
        db.update("INSERT R(c) | R(a) WHERE R(b) & R(a)")
        stats = db.metrics_snapshot()
        assert len(stats) == len(set(stats))

    def test_legacy_flat_keys_survive(self, backend):
        # The key set is the pre-collapse one minus exactly the four dropped keys.
        db = worked_db(backend)
        db.update("DELETE R(a) WHERE T")
        db.ask("R(b)")
        stats = db.metrics_snapshot()
        memo = {key for key in stats if key.startswith("arena.memo_")}
        assert all(
            key.endswith("_hits") or key.endswith("_misses") for key in memo
        )
        expected = (PRE_COLLAPSE_COMMON_KEYS | PRE_COLLAPSE_BACKEND_KEYS[backend]) - DROPPED_KEYS
        assert set(stats) - memo == expected
        assert not DROPPED_KEYS & set(stats)
        assert stats["engine.updates_applied"] == 1


class TestNamespacedView:
    def test_flat_and_namespaced_agree(self):
        # Each dotted value is its source's plain-key value.
        db = worked_db("gua")
        db.update("DELETE R(a) WHERE T")
        db.ask("R(b)")
        snap = db.metrics_snapshot()
        assert snap["sat.solve_calls"] == db.theory.sat_stats.solve_calls
        assert snap["theory.wffs"] == db.theory.statistics()["wffs"]
        assert snap["engine.updates_applied"] == len(db.transactions.log)
        assert snap["pipeline.execute.seconds.count"] == 1

    def test_stage_histograms_recorded(self):
        db = worked_db("gua")
        db.update("DELETE R(a) WHERE T")
        snap = db.metrics_snapshot()
        assert snap["pipeline.execute.seconds.count"] == 1
        assert snap["pipeline.execute.seconds.sum"] > 0
        assert snap["pipeline.execute.seconds.p90"] > 0
        # One recording path: the histogram holds exactly the seconds the
        # update's trace reports for the stage.
        assert snap["pipeline.execute.seconds.sum"] == (
            db.last_trace().stage_seconds("execute")
        )

    def test_collision_raises_naming_both_sources(self):
        db = worked_db("gua")
        db.metrics.register_collector(
            "pipeline.execute", lambda: {"seconds.count": -1}
        )
        with pytest.raises(
            ValueError,
            match="'pipeline.execute'.*'instrument:pipeline.execute.seconds'",
        ):
            db.metrics_snapshot()


class TestPerfbenchContract:
    def test_snapshot_and_trace_carry_what_perfbench_reads(self):
        db = worked_db("gua")
        db.update("INSERT R(c) | R(a) WHERE R(b) & R(a)")
        db.ask("R(c)")
        snap = db.metrics_snapshot()
        missing = PERFBENCH_KEYS - set(snap)
        assert not missing, f"missing keys: {sorted(missing)}"
        assert snap["obs.enabled"] == 0
        assert snap["sat.decisions"] == db.theory.sat_stats.decisions
        trace = db.last_trace()
        for stage in ("normalize", "tag", "journal"):
            (event,) = [e for e in trace.events if e.stage == stage]
            assert trace.stage_seconds(stage) == event.seconds >= 0.0


class TestRollbackTraceReset:
    def test_last_trace_rewinds_with_the_journal(self):
        db = worked_db("gua")
        db.update("INSERT R(c) WHERE T")
        db.savepoint("sp")
        db.update("DELETE R(c) WHERE T")
        assert db.last_trace().sequence == 1
        db.rollback("sp")
        assert db.last_trace().sequence == 0
        # The next update reuses the rewound sequence number.
        db.update("INSERT R(d) WHERE T")
        assert db.last_trace().sequence == 1
        assert db.metrics_snapshot()["engine.updates_applied"] == 2

    def test_rollback_to_empty_clears_last_trace(self):
        db = worked_db("gua")
        db.savepoint("start")
        db.update("INSERT R(c) WHERE T")
        db.rollback("start")
        assert db.last_trace() is None
        assert "nothing to explain" in db.explain_update()

    def test_rolled_back_spans_discarded(self, traced):
        db = worked_db("gua")
        db.update("INSERT R(c) WHERE T")
        db.savepoint("sp")
        db.update("DELETE R(c) WHERE T")
        db.rollback("sp")
        mine = [
            root
            for root in traced.roots()
            if root.attrs.get("pipeline") == db.pipeline.pipeline_id
        ]
        assert [root.attrs["sequence"] for root in mine] == [0]

    def test_explain_after_rollback_reports_surviving_update(self, traced):
        db = worked_db("gua")
        db.update("INSERT R(c) WHERE T")
        db.savepoint("sp")
        db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
        assert "update #1" in db.explain_update()
        db.rollback("sp")
        report = db.explain_update()
        # The live result was rewound, so the report is for update #0,
        # reconstructed — never the rolled-back MODIFY.
        assert "update #0" in report
        assert "R(a')" not in report
        assert db.pipeline.last_result is None
        assert db.pipeline.last_sequence is None

    def test_other_pipelines_spans_survive_rollback(self, traced):
        bystander = worked_db("gua")
        bystander.update("INSERT R(x) WHERE T")
        db = worked_db("gua")
        db.savepoint("sp")
        db.update("INSERT R(c) WHERE T")
        db.rollback("sp")
        survivors = [
            root
            for root in traced.roots()
            if root.attrs.get("pipeline") == bystander.pipeline.pipeline_id
        ]
        assert len(survivors) == 1


class TestTracerTruncate:
    def test_truncate_is_idempotent(self):
        db = worked_db("gua")
        db.savepoint("sp")
        db.update("INSERT R(c) WHERE T")
        db.rollback("sp")
        db.rollback("sp")  # rolling back twice must not over-rewind
        assert db.last_trace() is None
        assert len(db.tracer.history()) == 0
