"""The theory's persistent query solver answers as a fresh solver would.

Every ask runs on one solver per theory that holds each stored wff's
clauses under an activation literal (see
``ExtendedRelationalTheory.sync_query_solver``).  The reference here is the
discipline it replaced: a fresh ``Solver`` over ``theory.clauses()`` plus
the query's clauses, built for every question.
"""

import pytest

from repro.core.engine import Database
from repro.core.simplification import simplify_theory
from repro.errors import ReproError
from repro.logic.cnf import tseitin
from repro.logic.sat import Solver
from repro.logic.syntax import And, Atom, Not, Or
from repro.qa import generate_case
from repro.query.answers import ask, witness_world
from repro.theory import theory as theory_module
from repro.theory.theory import ExtendedRelationalTheory


def _fresh_answer(theory, query):
    """(certain, possible) from a fresh solver per question."""

    def satisfiable(goal):
        clauses = theory.clauses() + list(tseitin(goal, prefix="@q").clauses)
        return Solver(clauses).solve() is not None

    return not satisfiable(Not(query)), satisfiable(query)


def _queries(theory):
    atoms = [Atom(atom) for atom in sorted(theory.atom_universe())]
    queries = [q for leaf in atoms for q in (leaf, Not(leaf))]
    for left, right in zip(atoms, atoms[1:]):
        queries.extend((And((left, right)), Or((left, right))))
    return queries


def _assert_agrees(theory, where):
    for query in _queries(theory):
        answer = ask(theory, query)
        assert (answer.certain, answer.possible) == _fresh_answer(
            theory, query
        ), (where, str(query))


@pytest.mark.parametrize("seed", range(40))
def test_answers_equal_fresh_solver(seed):
    case = generate_case(seed)
    db = case.make_database("gua")
    statements = case.statement_objects()
    middle = len(statements) // 2
    db.savepoint("start")
    _assert_agrees(db.theory, "initial")
    for index, statement in enumerate(statements):
        try:
            db.update(statement)
        except ReproError:
            continue
        _assert_agrees(db.theory, index)
        if index == middle:
            simplify_theory(db.theory)
            _assert_agrees(db.theory, "simplified")
    db.rollback("start")
    _assert_agrees(db.theory, "rolled back")


def test_rebuild_fires_and_keeps_answers():
    db = Database()
    db.update("INSERT P(a) | P(b) WHERE T")
    theory = db.theory
    rebuilds = 0
    for i in range(60):
        # Each update renames P(a) (retiring wffs), each ask retires its
        # own clauses; dead clauses pile up until a rebuild.
        db.update(f"INSERT P(a) | P(c{i}) WHERE T")
        rebuilds += theory.sync_query_solver()[2]
        assert db.ask("P(a) | P(b)").status == "possible"
        assert db.ask(f"P(a) | P(c{i})").status == "certain"
    assert rebuilds >= 1
    current = theory._query_solver
    assert 2 * current.dead <= current.live + theory_module.REBUILD_SLACK


def test_inconsistent_theory_certain_and_impossible():
    theory = ExtendedRelationalTheory(formulas=["P(a)", "!P(a)", "Q(b) | Q(c)"])
    for query in ("P(a)", "!P(a)", "Q(b)", "Q(b) & Q(c)"):
        answer = ask(theory, query)
        assert (answer.certain, answer.possible) == (True, False), query
    assert not theory.is_consistent()
    assert witness_world(theory, "Q(b)") is None


def test_consistency_cached_per_store_version():
    theory = ExtendedRelationalTheory(formulas=["P(a) | P(b)"])
    assert theory.is_consistent()
    calls = theory.sat_stats.solve_calls
    assert theory.is_consistent()
    assert theory.sat_stats.solve_calls == calls
    theory.add_formula("!P(a)")
    theory.add_formula("!P(b)")
    assert not theory.is_consistent()


def _interning_order(clauses):
    """The solver's variable numbering as ``add_clause`` defines it: each
    clause's unseen atoms, in ``(str(atom), polarity)`` order."""
    order, seen = [], set()
    for clause in clauses:
        for atom, _ in sorted(clause, key=lambda lv: (str(lv[0]), lv[1])):
            if atom not in seen:
                seen.add(atom)
                order.append(atom)
    return tuple(order)


@pytest.mark.parametrize("seed", range(10))
def test_add_clause_numbering_unchanged(seed):
    theory = generate_case(seed).initial_theory()
    clauses = theory.clauses()
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.atoms == _interning_order(clauses)
