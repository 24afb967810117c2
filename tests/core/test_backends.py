"""Backend conformance: one suite, three execution strategies.

Every :class:`~repro.core.engine.Database` backend — gua (live theory),
log (replay strawman), naive (explicit worlds) — must produce the same
world sets and the same three-valued answers through the same façade calls.
The anchor cases are the paper's Section 3.3 worked examples (E2/E3); the
rest cover ground, open, simultaneous, and SQL statements arriving through
the one pipeline entry point.
"""

import pytest

from repro.core.engine import Database
from repro.errors import UpdateError
from repro.logic.parser import parse_atom
from repro.theory.schema import schema_from_dict
from repro.theory.worlds import AlternativeWorld

BACKENDS = ["gua", "log", "naive"]

a, b, c, a_prime = (
    parse_atom("R(a)"),
    parse_atom("R(b)"),
    parse_atom("R(c)"),
    parse_atom("R(a')"),
)


def paper_db(backend):
    return Database(facts=["R(a)", "R(a) | R(b)"], backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestWorkedExamples:
    def test_e2_non_branching_modify(self, backend):
        db = paper_db(backend)
        db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
        assert set(db.worlds()) == {
            AlternativeWorld([b, a_prime]),
            AlternativeWorld([a]),
        }

    def test_e3_branching_insert(self, backend):
        db = paper_db(backend)
        db.update("INSERT R(c) | R(a) WHERE R(b) & R(a)")
        assert set(db.worlds()) == {
            AlternativeWorld([a]),
            AlternativeWorld([b, c]),
            AlternativeWorld([b, a]),
            AlternativeWorld([b, c, a]),
        }

    def test_e3_answers(self, backend):
        db = paper_db(backend)
        db.update("INSERT R(c) | R(a) WHERE R(b) & R(a)")
        assert db.ask("R(a) | R(b)").status == "certain"
        assert db.ask("R(c)").status == "possible"
        assert db.ask("R(d)").status == "impossible"


@pytest.mark.parametrize("backend", BACKENDS)
class TestStatementForms:
    def test_ground_script(self, backend):
        db = Database(backend=backend)
        db.run_script(
            "INSERT P(x) | P(y) WHERE T; -- branch\n"
            "ASSERT P(x); DELETE P(y) WHERE T"
        )
        assert db.ask("P(x)").status == "certain"
        assert db.ask("P(y)").status == "impossible"

    def test_open_update_through_update(self, backend):
        db = Database(facts=["Q(a)", "Q(b)"], backend=backend)
        db.update("DELETE Q(?x) WHERE Q(?x)")
        assert set(db.worlds()) == {AlternativeWorld([])}

    def test_open_update_via_update_open(self, backend):
        db = Database(facts=["Q(a)", "Q(b) | Q(c)"], backend=backend)
        db.update_open("INSERT Marked(?x) WHERE Q(?x)")
        # In every world, exactly the held Q-atoms got marked.
        for world in db.worlds():
            held = {atom.args[0] for atom in world if atom.predicate.name == "Q"}
            marked = {
                atom.args[0] for atom in world if atom.predicate.name == "Marked"
            }
            assert held == marked

    def test_sql_statement(self, backend):
        schema = schema_from_dict({"Orders": ["OrderNo", "PartNo", "Quan"]})
        db = Database(schema=schema, backend=backend)
        db.sql("INSERT INTO Orders VALUES (700, 32, 9)")
        assert db.ask("Orders(700, 32, 9)").status == "certain"

    def test_inconsistent_theory_answers(self, backend):
        db = Database(facts=["P(a)"], backend=backend)
        db.update("ASSERT P(a) & !P(a)")
        assert not db.is_consistent()
        # No models: everything certain, nothing possible — on every backend.
        answer = db.ask("P(a)")
        assert answer.certain and not answer.possible


def test_world_sets_agree_across_backends():
    """The same mixed stream lands on the same worlds, pairwise."""
    script = (
        "INSERT P(a) | P(b) WHERE T;"
        "INSERT P(c) WHERE P(a);"
        "MODIFY P(b) TO BE P(d) WHERE P(c);"
        "INSERT Tag(?x) WHERE P(?x)"
    )
    world_sets = {}
    for backend in BACKENDS:
        db = Database(backend=backend)
        db.run_script(script)
        world_sets[backend] = set(db.worlds())
    assert world_sets["gua"] == world_sets["log"] == world_sets["naive"]


class TestBackendSurface:
    def test_unknown_backend_rejected(self):
        with pytest.raises(
            UpdateError, match=r"unknown backend 'quantum'.*'gua', 'log', 'naive'"
        ):
            Database(backend="quantum")

    def test_naive_has_no_theory(self):
        from repro.errors import TheoryError

        db = Database(backend="naive")
        with pytest.raises(TheoryError):
            db.theory

    def test_savepoints_are_gua_only(self):
        for backend in ("log", "naive"):
            db = Database(backend=backend)
            with pytest.raises(UpdateError, match="savepoint"):
                db.savepoint("s")

    def test_log_backend_compacts(self):
        db = Database(backend="log")
        db.update("INSERT P(a) WHERE T")
        assert db.size() == 1  # one pending log entry
        db.compact()
        assert db.size() == 0
        assert db.ask("P(a)").status == "certain"

    def test_compact_is_log_only(self):
        with pytest.raises(UpdateError, match="compact"):
            Database(backend="gua").compact()

    def test_statistics_shapes(self):
        gua = Database(backend="gua")
        log = Database(backend="log")
        naive = Database(backend="naive")
        for db in (gua, log, naive):
            db.update("INSERT P(a) WHERE T")
        assert "sat.solve_calls" in gua.metrics_snapshot()
        assert log.metrics_snapshot()["log.pending"] == 1
        assert naive.metrics_snapshot()["naive.worlds"] == 1
        for db in (gua, log, naive):
            assert db.metrics_snapshot()["engine.updates_applied"] == 1
