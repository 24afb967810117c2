"""End-to-end scenarios following the paper's narrative.

These tests walk the full stack the way the paper's running example does:
the Orders/InStock schema, LDML statements from Section 3.1 verbatim,
branching updates introducing incomplete information, and ASSERT removing
it when better knowledge arrives.
"""

import pytest

from repro.core.engine import Database
from repro.core.naive import NaiveWorldStore, commutes
from repro.theory.schema import schema_from_dict


@pytest.fixture
def db():
    schema = schema_from_dict(
        {"Orders": ["OrderNo", "PartNo", "Quan"], "InStock": ["PartNo", "Quan"]}
    )
    return Database(schema=schema)


class TestSection31Examples:
    """The five example statements of Section 3.1, run in a sensible order."""

    def test_examples_run_and_behave(self, db):
        # Seed data so the examples have something to act on.
        db.update("INSERT Orders(700,32,9) WHERE T")
        db.update("INSERT InStock(32,1) WHERE T")

        # MODIFY Orders(700,32,9) TO BE Orders(700,32,1)
        db.update("MODIFY Orders(700,32,9) TO BE Orders(700,32,1) WHERE T")
        assert db.is_certain("Orders(700,32,1)")
        assert not db.is_possible("Orders(700,32,9)")

        # DELETE Orders(700,32,1)  (adapted to the current tuple)
        db.update("DELETE Orders(700,32,1) WHERE T")
        assert not db.is_possible("Orders(700,32,1)")

        # INSERT Orders(800,32,1000) WHERE !Orders(800,32,100)
        db.update("INSERT Orders(800,32,1000) WHERE !Orders(800,32,100)")
        assert db.is_certain("Orders(800,32,1000)")

        # INSERT !InStock(32,1) WHERE T — negative information entered.
        db.update("INSERT !InStock(32,1) WHERE T")
        assert not db.is_possible("InStock(32,1)")

        # INSERT F WHERE !InStock(32,1) — integrity bomb: since InStock(32,1)
        # is now false everywhere, this annihilates every world.
        db.update("INSERT F WHERE !InStock(32,1)")
        assert not db.is_consistent()


class TestIncompleteInformationLifecycle:
    def test_branch_then_resolve(self, db):
        # A clerk knows the order is for part 32, quantity 1 or 7.
        db.update("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
        assert db.ask("Orders(100,32,1)").status == "possible"
        assert db.is_certain("Orders(100,32,1) | Orders(100,32,7)")
        assert db.world_count() == 3  # both could even hold (inclusive or)

        # Better knowledge arrives: it was quantity 1, and only that row.
        db.update("ASSERT Orders(100,32,1) & !Orders(100,32,7)")
        assert db.ask("Orders(100,32,1)").status == "certain"
        assert db.world_count() == 1

    def test_update_acts_on_all_worlds(self, db):
        db.update("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
        # Cancel order 100 regardless of which world is real.
        db.update("DELETE Orders(100,32,1) WHERE T")
        db.update("DELETE Orders(100,32,7) WHERE T")
        assert not db.is_possible("Orders(100,32,1) | Orders(100,32,7)")

    def test_conditional_update_touches_only_matching_worlds(self, db):
        db.update("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
        # Record a backorder only where the big quantity was ordered.
        db.update("INSERT InStock(32,0) WHERE Orders(100,32,7)")
        assert db.ask("InStock(32,0)").status == "possible"
        # Worlds with quantity 7 now definitely show the backorder:
        assert db.is_certain("Orders(100,32,7) -> InStock(32,0)")

    def test_three_way_choice(self, db):
        db.update(
            "INSERT Orders(1,30,5) | Orders(1,31,5) | Orders(1,32,5) WHERE T"
        )
        db.update("ASSERT !Orders(1,30,5)")
        db.update("ASSERT !Orders(1,31,5)")
        assert db.is_certain("Orders(1,32,5)")


class TestCommutativityEndToEnd:
    def test_full_scenario_commutes(self):
        from repro.bench.workload import orders_scenario

        scenario = orders_scenario(n_orders=4, n_parts=2, rng=7)
        script = [
            "INSERT Orders(500,30,2) & OrderNo(500) & PartNo(30) & Quan(2) WHERE T",
            "DELETE Orders(500,30,2) WHERE InStock(30,0)",
            "ASSERT Orders(500,30,2) | !Orders(500,30,2)",
        ]
        assert commutes(scenario.theory, script)

    def test_gua_database_matches_naive_store(self, db):
        script = [
            "INSERT Orders(1,30,1) | Orders(1,30,2) WHERE T",
            "MODIFY Orders(1,30,1) TO BE Orders(1,30,3) WHERE T",
            "ASSERT Orders(1,30,3) | Orders(1,30,2)",
        ]
        naive = NaiveWorldStore.from_theory(db.theory)
        for statement in script:
            from repro.ldml.parser import parse_update

            update = db.pipeline.tag_ground(parse_update(statement))
            naive.apply(update)
            db.update(statement)
        assert frozenset(db.theory.alternative_worlds()) == naive.worlds


class TestKnowledgeBaseUseCase:
    """Section 1 motivates 'AI applications using a knowledge base built on
    top of ground knowledge' — exercise the library as a tiny KB."""

    def test_diagnosis_style_reasoning(self):
        db = Database()
        # Observations with uncertainty:
        db.update("INSERT Symptom(fever) WHERE T")
        db.update("INSERT Cause(flu) | Cause(cold) WHERE Symptom(fever)")
        # Domain rule entered as an update (exclusion):
        db.update("INSERT !Cause(cold) WHERE Cause(flu) & Cause(cold)")
        assert db.is_certain("Cause(flu) | Cause(cold)")
        # Test result rules out the cold:
        db.update("ASSERT !Cause(cold)")
        assert db.is_certain("Cause(flu)")

    def test_belief_revision_via_insert(self):
        db = Database()
        db.update("INSERT Status(door,open) WHERE T")
        # New observation overrides the old belief (Winslett update):
        db.update("INSERT !Status(door,open) WHERE T")
        assert db.is_certain("!Status(door,open)")

    def test_forgetting_via_tautology(self):
        db = Database()
        db.update("INSERT Status(door,open) WHERE T")
        # 'The truth valuation is now unknown' (Section 3.2):
        db.update("INSERT Status(door,open) | !Status(door,open) WHERE T")
        assert db.ask("Status(door,open)").status == "possible"
