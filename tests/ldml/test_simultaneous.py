"""Unit tests for simultaneous ground updates (the Section 4 reduction)."""

import pytest

from repro.errors import UpdateError
from repro.ldml.ast import Delete, Insert
from repro.ldml.simultaneous import (
    SimultaneousInsert,
    apply_simultaneous_to_world,
    differs_from_sequential,
    update_worlds_simultaneously,
)
from repro.logic.parser import parse, parse_atom
from repro.logic.terms import Predicate
from repro.theory.schema import schema_from_dict
from repro.theory.worlds import AlternativeWorld

P = Predicate("P", 1)
a, b, c = P("a"), P("b"), P("c")
EMPTY = AlternativeWorld()


class TestConstruction:
    def test_from_pairs(self):
        sim = SimultaneousInsert([("P(a)", "P(b)"), ("T", "P(c)")])
        assert len(sim) == 2

    def test_from_ground_updates(self):
        sim = SimultaneousInsert([Insert("P(a)"), Delete(b, "T")])
        assert len(sim) == 2

    def test_empty_rejected(self):
        with pytest.raises(UpdateError):
            SimultaneousInsert([])

    def test_atoms_accessors(self):
        sim = SimultaneousInsert([("P(a)", "P(b)"), ("P(c)", "P(b)")])
        assert sim.written_atoms() == {b}
        assert sim.read_atoms() == {a, c}
        assert sim.atoms() == {a, b, c}

    def test_equality(self):
        assert SimultaneousInsert([("T", "P(a)"), ("T", "P(b)")]) == (
            SimultaneousInsert([("T", "P(a)"), ("T", "P(b)")])
        )


class TestSemantics:
    def test_no_active_clause_identity(self):
        sim = SimultaneousInsert([("P(a)", "P(b)"), ("P(c)", "P(b)")])
        assert apply_simultaneous_to_world(sim, EMPTY) == {EMPTY}

    def test_all_clauses_active(self):
        sim = SimultaneousInsert([("T", "P(a)"), ("T", "P(b)")])
        assert apply_simultaneous_to_world(sim, EMPTY) == {
            AlternativeWorld([a, b])
        }

    def test_clauses_read_original_world(self):
        """The defining property: phi_2 sees the pre-update valuation even
        when pair 1 writes its atoms."""
        sim = SimultaneousInsert([("P(a)", "!P(a) & P(b)"), ("P(b)", "P(c)")])
        world = AlternativeWorld([a])
        # P(b) false *originally*, so pair 2 never fires.
        assert apply_simultaneous_to_world(sim, world) == {
            AlternativeWorld([b])
        }

    def test_differs_from_sequential_detects(self):
        sim = SimultaneousInsert([("P(a)", "!P(a) & P(b)"), ("P(b)", "P(c)")])
        assert differs_from_sequential(sim, AlternativeWorld([a]))

    def test_independent_pairs_match_sequential(self):
        sim = SimultaneousInsert([("T", "P(a)"), ("T", "P(b)")])
        assert not differs_from_sequential(sim, EMPTY)

    def test_joint_branching(self):
        sim = SimultaneousInsert([("T", "P(a) | P(b)"), ("T", "P(c)")])
        produced = apply_simultaneous_to_world(sim, EMPTY)
        assert produced == {
            AlternativeWorld([a, c]),
            AlternativeWorld([b, c]),
            AlternativeWorld([a, b, c]),
        }

    def test_jointly_unsatisfiable_bodies_annihilate(self):
        sim = SimultaneousInsert([("T", "P(a)"), ("T", "!P(a)")])
        assert apply_simultaneous_to_world(sim, EMPTY) == frozenset()

    def test_rule3_filters(self):
        schema = schema_from_dict({"R": ["A"]})
        sim = SimultaneousInsert([("T", "R(x)")])
        produced = apply_simultaneous_to_world(sim, EMPTY, schema=schema)
        assert produced == frozenset()

    def test_update_worlds_unions(self):
        sim = SimultaneousInsert([("P(a)", "P(b)")])
        worlds = {EMPTY, AlternativeWorld([a])}
        result = update_worlds_simultaneously(worlds, sim)
        assert result == {EMPTY, AlternativeWorld([a, b])}


class TestGuaSimultaneous:
    """Commutative diagram for the generalized algorithm."""

    def _check(self, section, pairs):
        from repro.core.gua import GuaExecutor
        from repro.core.naive import NaiveWorldStore
        from repro.theory.theory import ExtendedRelationalTheory

        theory = ExtendedRelationalTheory(formulas=section)
        sim = SimultaneousInsert(pairs)
        naive = NaiveWorldStore.from_theory(theory).apply(sim)
        GuaExecutor(theory).apply_simultaneous(sim)
        assert theory.world_set() == naive.worlds, (section, pairs)

    def test_independent_pairs(self):
        self._check(["P(a)"], [("T", "P(b)"), ("T", "P(c)")])

    def test_read_write_interference(self):
        self._check(["P(a)"], [("P(a)", "!P(a) & P(b)"), ("P(b)", "P(c)")])

    def test_overlapping_bodies(self):
        self._check(
            ["P(a) | P(b)"],
            [("P(a)", "P(c) & !P(a)"), ("P(b)", "P(c) | P(a)")],
        )

    def test_branching_pairs(self):
        self._check([], [("T", "P(a) | P(b)"), ("T", "P(b) | P(c)")])

    def test_annihilating_pairs(self):
        self._check(["P(a)"], [("P(a)", "P(b)"), ("P(a)", "!P(b)")])

    def test_inactive_everywhere(self):
        self._check(["P(a)"], [("P(zz)", "P(b)"), ("P(qq)", "!P(a)")])

    def test_systematic_small_cases(self):
        import itertools

        sections = [[], ["P(a)"], ["P(a) | P(b)"]]
        clauses = ["T", "P(a)", "!P(b)"]
        bodies = ["P(b)", "!P(a)", "P(a) | P(c)"]
        for section in sections:
            for (phi1, w1), (phi2, w2) in itertools.combinations(
                itertools.product(clauses, bodies), 2
            ):
                self._check(list(section), [(phi1, w1), (phi2, w2)])

    def test_with_type_axioms(self):
        from repro.core.gua import GuaExecutor
        from repro.core.naive import NaiveWorldStore
        from repro.theory.theory import ExtendedRelationalTheory

        schema = schema_from_dict({"R": ["A"]})
        theory = ExtendedRelationalTheory(schema=schema)
        theory.add_formula("R(x) & A(x)")
        # Pair 1 tags its tuple; pair 2 does not (its worlds must vanish).
        sim = SimultaneousInsert(
            [("T", "R(u) & A(u)"), ("R(x)", "R(v)")]
        )
        naive = NaiveWorldStore.from_theory(theory).apply(sim)
        GuaExecutor(theory).apply_simultaneous(sim)
        assert theory.world_set() == naive.worlds

    def test_with_dependency(self):
        from repro.core.gua import GuaExecutor
        from repro.core.naive import NaiveWorldStore
        from repro.theory.dependencies import FunctionalDependency
        from repro.theory.theory import ExtendedRelationalTheory

        E = Predicate("E", 2)
        fd = FunctionalDependency(E, [0], [1])
        theory = ExtendedRelationalTheory(dependencies=[fd])
        theory.add_formula("E(k,v1)")
        sim = SimultaneousInsert([("T", "E(k,v2)"), ("T", "E(j,v3)")])
        naive = NaiveWorldStore.from_theory(theory).apply(sim)
        GuaExecutor(theory).apply_simultaneous(sim)
        assert theory.world_set() == naive.worlds

    def test_step4_groups_atoms_by_writing_pairs(self):
        from repro.core.gua import GuaExecutor
        from repro.theory.theory import ExtendedRelationalTheory

        # Q(a) and Q(b) are written by the same two pairs, R(c) by one.
        sim = SimultaneousInsert(
            [("P(a)", "Q(a) & Q(b) & R(c)"), ("P(b)", "Q(a) | Q(b)")]
        )
        theory = ExtendedRelationalTheory(formulas=["P(a) | P(b)"])
        result = GuaExecutor(theory).apply(sim)
        restrictions = [str(f) for f in result.step_additions["step4"]]
        assert restrictions == [
            "!P(a) & !P(b) -> (Q(a) <-> @p0) & (Q(b) <-> @p1)",
            "!P(a) -> (R(c) <-> @p2)",
        ]
        split = ExtendedRelationalTheory(formulas=["P(a) | P(b)"])
        result = GuaExecutor(split, combine_restrict=False).apply(sim)
        assert len(result.step_additions["step4"]) == 3
        assert theory.world_set() == split.world_set()
        self._check(["P(a) | P(b)"], sim.pairs)

    def test_singleton_equals_plain_apply(self):
        from repro.core.gua import GuaExecutor
        from repro.theory.theory import ExtendedRelationalTheory

        left = ExtendedRelationalTheory(formulas=["P(a)"])
        right = left.copy()
        GuaExecutor(left).apply_simultaneous(
            SimultaneousInsert([("P(a)", "P(b)")])
        )
        GuaExecutor(right).apply(Insert("P(b)", "P(a)"))
        assert left.world_set() == right.world_set()
        assert left.formulas() == right.formulas()


def _assert_ground_is_one_pair_set(theory, update):
    """``apply(update)`` and ``apply(SimultaneousInsert([(w, b)]))`` on
    copies of *theory* add the very same wffs, step by step, with the same
    counters; returns the ground side's theory to continue from."""
    from repro.core.gua import GuaExecutor

    insert = update.to_insert()
    ground_theory, pair_theory = theory.copy(), theory.copy()
    ground = GuaExecutor(ground_theory).apply(update)
    paired = GuaExecutor(pair_theory).apply(
        SimultaneousInsert([(insert.where, insert.body)])
    )
    assert len(ground.added_formulas) == len(paired.added_formulas)
    assert all(
        mine is theirs
        for mine, theirs in zip(ground.added_formulas, paired.added_formulas)
    ), update
    assert ground.step_additions.keys() == paired.step_additions.keys()
    for step, added in ground.step_additions.items():
        assert len(added) == len(paired.step_additions[step])
        assert all(
            mine is theirs
            for mine, theirs in zip(added, paired.step_additions[step])
        ), (update, step)
    assert ground.stats == paired.stats
    assert ground.fresh_constants == paired.fresh_constants
    return ground_theory


class TestGroundIsOnePairSet:
    """A ground INSERT ``w WHERE phi`` is the one-pair set ``{(phi, w)}``:
    both forms run the same Steps 1-7 and store the same wffs."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_cases(self, seed):
        from repro.ldml.ast import GroundUpdate
        from repro.qa import generate_case

        case = generate_case(seed)
        theory = case.initial_theory()
        ground = [
            update
            for update in case.statement_objects()
            if isinstance(update, GroundUpdate)
        ]
        for update in ground:
            theory = _assert_ground_is_one_pair_set(theory, update)

    def test_schema_and_functional_dependency(self):
        from repro.ldml.parser import parse_update
        from repro.theory.dependencies import FunctionalDependency
        from repro.theory.theory import ExtendedRelationalTheory

        E = Predicate("E", 2)
        schema = schema_from_dict({"E": ["K", "V"]})
        theory = ExtendedRelationalTheory(
            schema=schema,
            dependencies=[FunctionalDependency(E, [0], [1])],
            formulas=[
                "E(k,v1) & K(k) & V(v1)",
                "K(j) & V(v2) & V(v3)",
                "E(j,v2) & !E(j,v3) | E(j,v3) & !E(j,v2)",
            ],
        )
        assert theory.satisfies_axiom_invariant()
        # Between them the statements reach Steps 1, 2', 3, 4, 5 and 6.
        for text in (
            "INSERT E(m,v4) & K(m) & V(v4) WHERE T",
            "INSERT E(n,v1) & K(n) WHERE E(k,v1)",
            "DELETE E(k,v1) WHERE E(j,v2)",
            "MODIFY E(j,v3) TO BE E(j,v5) WHERE T",
            "INSERT !V(v1) WHERE !E(j,v2)",
            "INSERT E(k,v6) | E(p,v6) WHERE T",
        ):
            theory = _assert_ground_is_one_pair_set(theory, parse_update(text))
