"""Unit tests for LDML updates with variables."""

import pytest

from repro.core.engine import Database
from repro.errors import NotGroundError, ParseError, UpdateError
from repro.ldml.open_updates import OpenUpdate, parse_open_update
from repro.logic.terms import Constant, Predicate
from repro.theory.theory import ExtendedRelationalTheory

Orders = Predicate("Orders", 3)


@pytest.fixture
def theory():
    t = ExtendedRelationalTheory()
    t.add_formula("Orders(1,32,5)")
    t.add_formula("Orders(2,32,7)")
    t.add_formula("Orders(3,33,2)")
    return t


class TestParsing:
    def test_variables_recognized(self):
        open_update = parse_open_update("DELETE Orders(?o, 32, ?q) WHERE T")
        assert open_update.variables() == ("o", "q")

    def test_no_variables_is_ground(self):
        open_update = parse_open_update("INSERT Orders(1,32,5) WHERE T")
        assert open_update.is_ground()

    def test_variables_in_clause(self):
        open_update = parse_open_update("INSERT Flag(?x) WHERE Emp(?x, sales)")
        assert open_update.variables() == ("x",)

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_open_update("INSERT P(_var_x) WHERE T")

    def test_repr_shows_surface_syntax(self):
        open_update = parse_open_update("DELETE Orders(?o, 32, ?q) WHERE T")
        assert "?o" in repr(open_update)


class TestCandidates:
    def test_position_constrained(self, theory):
        open_update = parse_open_update("DELETE Orders(?o, 32, ?q) WHERE T")
        candidates = open_update.candidate_values(theory)
        assert [c.name for c in candidates["o"]] == ["1", "2"]
        assert [c.name for c in candidates["q"]] == ["5", "7"]

    def test_unconstrained_position_collects_all(self, theory):
        open_update = parse_open_update("DELETE Orders(?o, ?p, ?q) WHERE T")
        candidates = open_update.candidate_values(theory)
        assert len(candidates["o"]) == 3

    def test_no_matching_atoms_empty(self, theory):
        open_update = parse_open_update("DELETE Missing(?x) WHERE T")
        candidates = open_update.candidate_values(theory)
        assert candidates["x"] == ()


class TestGrounding:
    def test_ground_with_binding(self):
        open_update = parse_open_update("DELETE Orders(?o, 32, ?q) WHERE T")
        ground = open_update.ground(
            {"o": Constant("1"), "q": Constant("5")}
        )
        insert = ground.to_insert()
        assert "Orders(1,32,5)" in str(insert.body)

    def test_partial_binding_rejected(self):
        open_update = parse_open_update("DELETE Orders(?o, 32, ?q) WHERE T")
        with pytest.raises(NotGroundError):
            open_update.ground({"o": Constant("1")})

    def test_bindings_cartesian_over_candidates(self, theory):
        open_update = parse_open_update("DELETE Orders(?o, 32, ?q) WHERE T")
        bindings = list(open_update.bindings(theory))
        assert len(bindings) == 2 * 2  # {1,2} x {5,7}

    def test_explicit_domains_override(self, theory):
        open_update = parse_open_update("INSERT Audit(?x) WHERE T")
        bindings = list(
            open_update.bindings(theory, domains={"x": [Constant("only")]})
        )
        assert len(bindings) == 1

    def test_expand_empty_range_raises(self, theory):
        open_update = parse_open_update("DELETE Missing(?x) WHERE T")
        with pytest.raises(UpdateError):
            open_update.expand(theory)

    def test_expand_prunes_dead_clauses(self, theory):
        # Candidates are {1,2} x {5,7} = 4 combos, but only (1,5) and (2,7)
        # match an existing tuple; the cross combos have certainly-false
        # clauses and are pruned.
        open_update = parse_open_update(
            "DELETE Orders(?o, 32, ?q) WHERE Orders(?o, 32, ?q)"
        )
        assert len(open_update.expand(theory)) == 2
        assert len(open_update.expand(theory, prune=False)) == 4

    def test_pruning_preserves_worlds(self, theory):
        from repro.core.gua import GuaExecutor

        open_update = parse_open_update(
            "DELETE Orders(?o, 32, ?q) WHERE Orders(?o, 32, ?q)"
        )
        pruned_theory = theory.copy()
        full_theory = theory.copy()
        GuaExecutor(pruned_theory).apply_simultaneous(
            open_update.expand(theory)
        )
        GuaExecutor(full_theory).apply_simultaneous(
            open_update.expand(theory, prune=False)
        )
        assert pruned_theory.world_set() == full_theory.world_set()


class TestEndToEnd:
    def test_bulk_delete(self):
        db = Database()
        db.update("INSERT Orders(1,32,5) WHERE T")
        db.update("INSERT Orders(2,32,7) WHERE T")
        db.update("INSERT Orders(3,33,2) WHERE T")
        db.update("DELETE Orders(?o, 32, ?q) WHERE T")
        assert not db.is_possible("Orders(1,32,5) | Orders(2,32,7)")
        assert db.is_certain("Orders(3,33,2)")

    def test_conditional_bulk_insert(self):
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.update("INSERT Emp(bob,sales) WHERE T")
        db.update("INSERT Emp(carol,hr) WHERE T")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        assert db.is_certain("Moved(alice) & Moved(bob)")
        assert not db.is_possible("Moved(carol)")

    def test_bulk_update_acts_simultaneously(self):
        """A swap that only works under simultaneous semantics: move every
        sales employee to hr *and* every hr employee to sales at once."""
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.update("INSERT Emp(carol,hr) WHERE T")
        from repro.ldml.open_updates import parse_open_update
        from repro.ldml.simultaneous import SimultaneousInsert

        to_hr = parse_open_update(
            "INSERT Emp(?x,hr) & !Emp(?x,sales) WHERE Emp(?x,sales)"
        ).expand(db.theory)
        to_sales = parse_open_update(
            "INSERT Emp(?y,sales) & !Emp(?y,hr) WHERE Emp(?y,hr)"
        ).expand(db.theory)
        swap = SimultaneousInsert(list(to_hr.pairs) + list(to_sales.pairs))
        db.update(swap)
        assert db.is_certain("Emp(alice,hr) & Emp(carol,sales)")
        assert not db.is_possible("Emp(alice,sales) | Emp(carol,hr)")

    def test_open_update_over_uncertain_data(self):
        db = Database()
        db.update("INSERT Orders(1,32,5) | Orders(1,32,6) WHERE T")
        # Cancel all part-32 orders, whichever quantity was real.
        db.update("DELETE Orders(?o, 32, ?q) WHERE Orders(?o, 32, ?q)")
        assert not db.is_possible("Orders(1,32,5) | Orders(1,32,6)")

    def test_open_update_commutes_with_naive(self):
        from repro.core.naive import NaiveWorldStore
        from repro.ldml.open_updates import parse_open_update

        theory = ExtendedRelationalTheory(
            formulas=["Orders(1,32,5)", "Orders(2,32,7) | Orders(2,33,7)"]
        )
        open_update = parse_open_update(
            "DELETE Orders(?o, 32, ?q) WHERE Orders(?o, 32, ?q)"
        )
        simultaneous = open_update.expand(theory)
        naive = NaiveWorldStore.from_theory(theory).apply(simultaneous)
        from repro.core.gua import GuaExecutor

        GuaExecutor(theory).apply_simultaneous(simultaneous)
        assert theory.world_set() == naive.worlds

    def test_engine_detects_question_mark(self):
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.update("DELETE Emp(?x, sales) WHERE T")  # routed to update_open
        assert not db.is_possible("Emp(alice,sales)")

    def test_auto_tagging_applies_to_open_updates(self):
        from repro.theory.schema import schema_from_dict

        schema = schema_from_dict({"R": ["A"]})
        db = Database(schema=schema)
        db.update("INSERT R(x) WHERE T")   # auto-tagged with A(x)
        db.update("INSERT Flag(?v) WHERE R(?v)")
        assert db.is_certain("Flag(x)")
        assert db.is_certain("A(x)")
