"""Property tests: the watched-literal solver vs a truth-table oracle.

The incremental two-watched-literal engine must agree with brute-force
truth-table evaluation on randomized small clause sets — satisfiability,
model validity, assumption handling, incremental clause addition, and
enumeration completeness/determinism.  Seeded generators keep every run
reproducible.
"""

import random

import pytest

from repro.logic.allsat import iter_models, iter_projected_models
from repro.logic.sat import Solver, SolverStats, solve
from repro.logic.terms import Predicate
from repro.logic.valuation import Valuation

P = Predicate("P", 1)
ATOMS = [P(f"a{i}") for i in range(6)]


def random_clauses(rng, *, max_clauses=8, max_len=4, allow_empty=False):
    n = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(n):
        if allow_empty and rng.random() < 0.05:
            clauses.append(frozenset())
            continue
        length = rng.randint(1, max_len)
        clauses.append(
            frozenset(
                (rng.choice(ATOMS), rng.random() < 0.5) for _ in range(length)
            )
        )
    return clauses


def clause_atoms(clauses):
    return sorted({atom for c in clauses for atom, _ in c})


def satisfies(valuation, clauses):
    return all(
        any(valuation[atom] is polarity for atom, polarity in c) for c in clauses
    )


def brute_force_models(clauses):
    atoms = clause_atoms(clauses)
    return [
        v for v in Valuation.all_over(atoms) if satisfies(v, clauses)
    ]


@pytest.mark.parametrize("seed", range(60))
def test_satisfiability_matches_oracle(seed):
    rng = random.Random(seed)
    clauses = random_clauses(rng, allow_empty=True)
    expected = bool(brute_force_models(clauses))
    model = solve(clauses)
    assert (model is not None) is expected
    if model is not None:
        assert satisfies(model, clauses)


@pytest.mark.parametrize("seed", range(40))
def test_assumptions_match_oracle(seed):
    rng = random.Random(1000 + seed)
    clauses = random_clauses(rng)
    atoms = clause_atoms(clauses)
    assumed = [
        (atom, rng.random() < 0.5)
        for atom in rng.sample(atoms, min(len(atoms), rng.randint(1, 3)))
    ]
    expected = any(
        all(v[a] is p for a, p in assumed) for v in brute_force_models(clauses)
    )
    model = Solver(clauses).solve(assumptions=assumed)
    assert (model is not None) is expected
    if model is not None:
        assert satisfies(model, clauses)
        for atom, polarity in assumed:
            assert model[atom] is polarity


@pytest.mark.parametrize("seed", range(30))
def test_enumeration_is_exact_and_deterministic(seed):
    rng = random.Random(2000 + seed)
    clauses = random_clauses(rng, max_clauses=5, max_len=3)
    expected = set(brute_force_models(clauses))
    first = list(iter_models(clauses))
    second = list(iter_models(clauses))
    assert first == second  # deterministic order, model for model
    assert set(first) == expected
    assert len(first) == len(set(first))  # no duplicates


@pytest.mark.parametrize("seed", range(20))
def test_projected_enumeration_matches_oracle(seed):
    rng = random.Random(3000 + seed)
    clauses = random_clauses(rng, max_clauses=5, max_len=3)
    atoms = clause_atoms(clauses)
    onto = rng.sample(atoms, min(len(atoms), 3))
    expected = {
        frozenset(a for a in onto if v[a]) for v in brute_force_models(clauses)
    }
    projections = list(iter_projected_models(clauses, onto))
    assert {
        frozenset(a for a in onto if proj[a]) for proj in projections
    } == expected
    assert len(projections) == len(set(projections))


@pytest.mark.parametrize("seed", range(20))
def test_incremental_add_clause_equals_batch(seed):
    """Adding clauses one by one must agree with constructing in one shot."""
    rng = random.Random(4000 + seed)
    clauses = random_clauses(rng)
    batch = Solver(clauses)
    incremental = Solver()
    for c in clauses:
        incremental.add_clause(c)
    assert batch.solve() == incremental.solve()
    # And solving twice on one instance is stable (no state leaks).
    assert incremental.solve() == incremental.solve()


class TestAssumptionPrecheck:
    """Conflicting assumptions must be rejected before any search runs."""

    def test_conflict_over_absent_atoms_rejected_without_search(self):
        # A clause set that would force real search work if entered.
        rng = random.Random(7)
        clauses = random_clauses(rng, max_clauses=8, max_len=3)
        absent = P("zz")
        stats = SolverStats()
        solver = Solver(clauses, stats=stats)
        result = solver.solve(assumptions=[(absent, True), (absent, False)])
        assert result is None
        assert stats.decisions == 0
        assert stats.propagations == 0

    def test_conflict_over_present_atoms_rejected_without_search(self):
        clauses = [frozenset({(ATOMS[0], True), (ATOMS[1], True)})]
        stats = SolverStats()
        solver = Solver(clauses, stats=stats)
        result = solver.solve(
            assumptions=[(ATOMS[0], True), (ATOMS[0], False)]
        )
        assert result is None
        assert stats.decisions == 0

    def test_consistent_duplicate_assumptions_fine(self):
        clauses = [frozenset({(ATOMS[0], True)})]
        model = Solver(clauses).solve(
            assumptions=[(ATOMS[0], True), (ATOMS[0], True)]
        )
        assert model is not None and model[ATOMS[0]]

    def test_absent_assumption_still_honoured_in_model(self):
        clauses = [frozenset({(ATOMS[0], True)})]
        absent = P("zz")
        model = Solver(clauses).solve(assumptions=[(absent, True)])
        assert model is not None and model[absent]


class TestStatsCounters:
    def test_counters_accumulate_and_reset(self):
        stats = SolverStats()
        clauses = [
            frozenset({(ATOMS[0], True), (ATOMS[1], True)}),
            frozenset({(ATOMS[0], False), (ATOMS[1], True)}),
        ]
        solver = Solver(clauses, stats=stats)
        assert solver.solve() is not None
        assert stats.solve_calls == 1
        assert stats.clauses_added == 2
        snapshot = stats.as_dict()
        assert snapshot["solve_calls"] == 1
        stats.reset()
        assert stats.solve_calls == 0

    def test_shared_stats_across_solvers(self):
        stats = SolverStats()
        Solver([frozenset({(ATOMS[0], True)})], stats=stats).solve()
        Solver([frozenset({(ATOMS[1], True)})], stats=stats).solve()
        assert stats.solve_calls == 2
