"""``explain_update`` on the paper's worked examples (E2/E3), across all
three backends.

The report must name the renamed atoms and the extended completion axioms
exactly as GUA Steps 1–4 dictate: E2's ``MODIFY R(a) TO BE R(a') WHERE
R(b)`` extends the completion with ``!R(a')`` (Step 1), renames both
``R(a)`` and ``R(a')`` to fresh predicate constants (Step 2), and adds one
definition and one restriction wff (Steps 3–4).
"""

import pytest

from repro.core.engine import Database
from repro.obs.explain import explain_update

BACKENDS = ["gua", "log", "naive"]


def paper_db(backend):
    """The Section 3.3 worked-example state: {R(a), R(a) | R(b)}."""
    return Database(facts=["R(a)", "R(a) | R(b)"], backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestE2Modify:
    def test_report_follows_gua_steps(self, backend):
        db = paper_db(backend)
        db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
        report = db.explain_update()
        lines = report.splitlines()

        assert "GUA EXPLAIN — update #0 (ground)" in lines[0]
        assert f"{backend!r} backend" in lines[0]
        # The MODIFY reduces to its INSERT form (Section 3.2).
        assert "statement: INSERT R(a') & !R(a) WHERE R(b) & R(a)" in report
        assert "g = 4 ground atom instances" in report

        # Step 1: the new atom R(a') gets a completion axiom disjunct.
        step1 = next(line for line in lines if line.startswith("Step 1"))
        assert "added 1 wff" in step1
        assert "    + !R(a')" in report

        # Step 2: both R(a) (in the theory) and R(a') (in the fresh
        # completion wff) are renamed to fresh predicate constants.
        step2 = next(line for line in lines if line.startswith("Step 2 "))
        assert "R(a) => @" in step2
        assert "R(a') => @" in step2
        assert "3 stored occurrence(s)" in step2

        # Steps 3-4: one definition wff, one restriction wff.
        assert "Step 3  (define the update): added 1 wff(s)" in report
        assert "Step 4  (restrict the update): added 1 wff(s)" in report
        step4_wff = lines[lines.index(next(
            line for line in lines if line.startswith("Step 4")
        )) + 1]
        assert "<->" in step4_wff

        # No schema, no dependencies: Steps 2'/5/6/7 add nothing.
        for label in ("Step 2'", "Step 5", "Step 6", "Step 7"):
            step = next(line for line in lines if line.startswith(label))
            assert "no wffs added" in step or "nothing to rename" in step

    def test_delete_report(self, backend):
        db = paper_db(backend)
        db.update("DELETE R(a) WHERE T")
        report = db.explain_update()
        assert "statement: INSERT !R(a) WHERE T & R(a)" in report
        assert "R(a) => @" in report


@pytest.mark.parametrize("backend", BACKENDS)
class TestE3Insert:
    def test_branching_insert_report(self, backend):
        db = paper_db(backend)
        db.update("INSERT R(c) | R(a) WHERE R(b) & R(a)")
        report = db.explain_update()
        # Step 1 extends the completion for the new atom R(c) ...
        assert "+ !R(c)" in report
        # ... and Step 2 renames both atoms in the update's scope.
        step2 = next(
            line for line in report.splitlines() if line.startswith("Step 2 ")
        )
        assert "R(a) => @" in step2 and "R(c) => @" in step2
        assert "Step 3  (define the update): added 1 wff(s)" in report
        assert "Step 4  (restrict the update): added 1 wff(s)" in report


@pytest.mark.parametrize("backend", BACKENDS)
class TestOpenInsert:
    def test_statement_names_each_clause(self, backend):
        # An open update runs as the simultaneous set it grounds to; the
        # statement line shows that set, one WHERE clause per binding.
        db = Database(facts=["P(a)", "P(b)"], backend=backend)
        db.update("INSERT Q(?x) WHERE P(?x)")
        report = db.explain_update()
        statement = next(
            line for line in report.splitlines() if "statement:" in line
        )
        assert "INSERT Q(a) WHERE P(a)" in statement
        assert "INSERT Q(b) WHERE P(b)" in statement
        assert "Step 3  (define the update): added 2 wff(s)" in report


class TestSourceAndTrace:
    def test_gua_uses_live_result(self):
        db = paper_db("gua")
        db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
        assert "[live GUA execution]" in db.explain_update()

    @pytest.mark.parametrize("backend", ["log", "naive"])
    def test_other_backends_reconstruct(self, backend):
        db = paper_db(backend)
        db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
        report = db.explain_update()
        assert "[reconstructed by replaying the journal" in report

    def test_reconstruction_sees_pre_update_state(self):
        # The narrative of update #N must be computed against the state
        # *before* #N, even when later state has moved on.
        db = paper_db("log")
        db.update("INSERT R(d) WHERE T")
        db.update("DELETE R(d) WHERE T")
        report = db.explain_update()
        assert "update #1" in report
        assert "statement: INSERT !R(d) WHERE T & R(d)" in report

    def test_no_updates(self):
        db = Database()
        assert "nothing to explain" in db.explain_update()

    def test_module_function_matches_method(self):
        db = paper_db("gua")
        db.update("DELETE R(a) WHERE T")
        assert explain_update(db) == db.explain_update()

    def test_span_tree_included_when_traced(self, traced):
        db = paper_db("gua")
        db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
        report = db.explain_update()
        assert "span tree (wall clock):" in report
        assert "gua.step2_rename" in report
        assert "pipeline.execute" in report

    def test_hint_when_tracing_disabled(self):
        db = paper_db("gua")
        db.update("DELETE R(a) WHERE T")
        assert "span tracing disabled" in db.explain_update()
