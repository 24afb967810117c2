"""Regression tests for the incremental-SAT PR's engine-level fixes.

* ``Database.update`` must route :class:`OpenUpdate` objects through the
  grounding path instead of crashing in the tag step;
* ``Database.rollback`` must restore the auto-simplifier's cadence along
  with the theory;
* ``Database.metrics_snapshot()`` must surface the solver and clause-cache
  counters;
* the per-wff Tseitin cache must invalidate when GUA renames an atom in
  place (the Step 2 rewrite mutates stored wffs without replacing them).
"""

import pytest

from repro.core.engine import Database
from repro.ldml.open_updates import OpenUpdate, parse_open_update
from repro.theory.schema import schema_from_dict


class TestOpenUpdateRouting:
    def test_open_update_object_routed_to_grounding(self):
        db = Database()
        db.update("INSERT Emp(alice, sales) WHERE T")
        db.update("INSERT Emp(bob, sales) WHERE T")
        # Passing the parsed object used to fall through to the tag step and
        # crash with AttributeError (OpenUpdate has no .to_insert()).
        result = db.update(parse_open_update("DELETE Emp(?x, sales) WHERE Emp(?x, sales)"))
        assert result is not None
        assert not db.is_possible("Emp(alice, sales)")
        assert not db.is_possible("Emp(bob, sales)")

    def test_open_update_object_equivalent_to_string(self):
        text = "INSERT Sal(?x, high) WHERE Emp(?x, sales)"
        db_string = Database()
        db_object = Database()
        for db in (db_string, db_object):
            db.update("INSERT Emp(alice, sales) WHERE T")
        db_string.update(text)
        db_object.update(parse_open_update(text))
        assert db_string.theory.world_set() == db_object.theory.world_set()

    def test_open_update_object_with_schema_tagging(self):
        schema = schema_from_dict({"Emp": ["Name", "Dept"]})
        db = Database(schema=schema)
        db.update("INSERT Emp(alice, sales) WHERE T")
        db.update(parse_open_update("DELETE Emp(?x, sales) WHERE Emp(?x, sales)"))
        assert not db.is_possible("Emp(alice, sales)")

    def test_plain_ground_update_object_still_direct(self):
        from repro.ldml.ast import Insert

        db = Database()
        db.update(Insert("P(a)"))
        assert db.is_certain("P(a)")
        assert isinstance(parse_open_update("INSERT P(?x) WHERE P(?x)"), OpenUpdate)


class TestRollbackSimplifierSync:
    def test_rollback_restores_simplifier_cadence(self):
        db = Database(simplify_every=2)
        db.update("INSERT P(a) WHERE T")  # counter: 1
        db.savepoint("sp")  # cadence captured at counter=1
        db.update("INSERT P(b) WHERE T")  # counter hits 2 -> simplifies
        assert len(db._simplifier.reports) == 1
        db.rollback("sp")
        # The rolled-back simplification never happened on this timeline.
        assert len(db._simplifier.reports) == 0
        db.update("INSERT P(c) WHERE T")  # back at the savepoint: counter 1->2
        assert len(db._simplifier.reports) == 1

    def test_savepoint_update_rollback_update_consistent(self):
        db = Database(simplify_every=3)
        db.update("INSERT P(a) WHERE T")
        db.savepoint("sp")
        before = db._simplifier._since_last
        db.update("INSERT P(b) WHERE T")
        db.update("INSERT P(c) | P(d) WHERE T")
        db.rollback("sp")
        assert db._simplifier._since_last == before
        assert len(db.transactions.log) == 1
        # The restored database behaves like the pre-rollback one.
        db.update("INSERT P(e) WHERE T")
        assert db.is_certain("P(a)")
        assert db.is_certain("P(e)")
        assert not db.is_possible("P(b)")

    def test_rollback_without_simplifier_unaffected(self):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        db.savepoint("sp")
        db.update("INSERT P(b) WHERE T")
        db.rollback("sp")
        assert db.is_certain("P(a)")
        assert not db.is_possible("P(b)")


class TestStatisticsSurface:
    def test_statistics_keys(self):
        db = Database()
        db.update("INSERT P(a) | P(b) WHERE T")
        db.ask("P(a)")
        stats = db.metrics_snapshot()
        for key in (
            "theory.wffs",
            "theory.nodes",
            "theory.ground_atoms",
            "sat.decisions",
            "sat.propagations",
            "sat.conflicts",
            "sat.solve_calls",
            "sat.clauses_added",
            "tseitin.cache_hits",
            "tseitin.cache_misses",
            "engine.updates_applied",
        ):
            assert key in stats, key
        assert stats["engine.updates_applied"] == 1
        assert stats["sat.solve_calls"] > 0

    def test_query_burst_hits_clause_cache(self):
        db = Database()
        db.update("INSERT P(a) | P(b) WHERE T")
        db.theory.reset_solver_statistics()
        for _ in range(5):
            db.ask("P(a)")
        stats = db.metrics_snapshot()
        # After the first query encodes the section, the rest are pure hits.
        assert stats["tseitin.cache_hits"] > stats["tseitin.cache_misses"]

    def test_cli_stats_command(self, capsys):
        from repro.cli import handle_command

        db = Database()
        db.update("INSERT P(a) WHERE T")
        handle_command(db, ".metrics")
        output = capsys.readouterr().out
        assert "sat.solve_calls" in output
        assert "tseitin.cache_misses" in output


class TestPerWffCacheInvalidation:
    def test_rename_invalidates_only_touched_wffs(self):
        from repro.logic.terms import PredicateConstant

        db = Database()
        db.update("INSERT P(a) WHERE T")
        db.update("INSERT Q(b) WHERE T")
        db.theory.clauses()  # populate the per-wff cache
        db.theory.reset_solver_statistics()

        atom = next(iter(db.theory.store.predicate_atoms(
            db.theory.language.predicate("P")
        )))
        db.theory.store.rename(atom, PredicateConstant("@fresh_pc"))
        db.theory.clauses()
        stats = db.theory.tseitin_statistics()
        # Only the wff(s) containing P(a) re-encode; Q(b)'s wff hits.
        assert stats["cache_misses"] >= 1
        assert stats["cache_hits"] >= 1

    def test_worlds_correct_after_gua_rename(self):
        # GUA Step 2 renames in place; stale clause caches would leave the
        # old atom constrained and produce wrong worlds.
        db = Database()
        db.update("INSERT P(a) WHERE T")
        assert db.is_certain("P(a)")
        db.update("DELETE P(a) WHERE T")
        assert not db.is_possible("P(a)")
        db.update("INSERT P(a) | P(b) WHERE T")
        worlds = db.theory.world_set()
        assert len(worlds) >= 2
        assert db.ask("P(a)").status == "possible"

    def test_simplification_replaces_cache_entries(self):
        db = Database()
        for i in range(6):
            db.update(f"INSERT P(c{i}) WHERE T")
        before = db.theory.world_count()
        db.simplify()
        assert db.theory.world_count() == before
        for i in range(6):
            assert db.is_certain(f"P(c{i})")
