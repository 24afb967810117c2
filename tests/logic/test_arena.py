"""Interning semantics: hash-consed terms and formulas are identity-keyed.

The arena's contract is that structural equality and object identity
coincide for every term and formula node — and that interning is purely
syntactic: it never commutes ``a | b`` with ``b | a`` or otherwise changes
what a formula *is*.  The property test here builds random formulas twice
through independent construction paths and asserts the two results are the
same object, with structural equality of the printed form as the oracle.
"""

from __future__ import annotations

import copy
import pickle

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.logic.arena import ARENA
from repro.logic.parser import parse
from repro.logic.printer import to_text
from repro.logic.syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    Not,
    Or,
    Top,
)
from repro.logic.terms import Constant, GroundAtom, Predicate, PredicateConstant

P = Predicate("P", 1)
Q = Predicate("Q", 2)


class TestTermInterning:
    def test_constants_are_shared(self):
        assert Constant("c") is Constant("c")
        assert Constant("c") is not Constant("d")

    def test_predicates_are_shared(self):
        assert Predicate("P", 1) is Predicate("P", 1)
        assert Predicate("P", 1) is not Predicate("P", 2)

    def test_ground_atoms_are_shared(self):
        assert P("a") is P("a")
        assert Q("a", "b") is Q("a", "b")
        assert P("a") is not P("b")

    def test_predicate_constants_are_shared(self):
        assert PredicateConstant("@p1") is PredicateConstant("@p1")

    def test_skolem_constants_do_not_alias_plain_constants(self):
        from repro.theory.skolem import SKOLEM_PREFIX, SkolemConstant

        plain = Constant(SKOLEM_PREFIX + "x")
        skolem = SkolemConstant("x")
        assert skolem.name == plain.name
        assert type(skolem) is not type(plain)
        assert SkolemConstant("x") is skolem

    def test_pickle_round_trip_preserves_identity(self):
        atom = Q("a", "b")
        assert pickle.loads(pickle.dumps(atom)) is atom


class TestFormulaInterning:
    def test_truth_constants_are_singletons(self):
        assert Top() is TRUE
        assert Bottom() is FALSE

    def test_structurally_equal_nodes_are_identical(self):
        left = And((Atom(P("a")), Not(Atom(P("b")))))
        right = And((Atom(P("a")), Not(Atom(P("b")))))
        assert left is right

    def test_interning_is_syntactic_not_commutative(self):
        ab = Or((Atom(P("a")), Atom(P("b"))))
        ba = Or((Atom(P("b")), Atom(P("a"))))
        assert ab is not ba
        assert ab != ba

    def test_parse_twice_returns_same_object(self):
        text = "P(a) & (P(b) -> !P(c)) <-> Q(a,b)"
        assert parse(text) is parse(text)

    def test_nary_flattening_normalizes_to_same_node(self):
        a, b, c = Atom(P("a")), Atom(P("b")), Atom(P("c"))
        assert And((And((a, b)), c)) is And((a, And((b, c)))) is And((a, b, c))

    def test_shared_subtrees_are_shared_objects(self):
        inner = parse("P(a) & P(b)")
        outer = parse("(P(a) & P(b)) | !(P(a) & P(b))")
        assert outer.operands[0] is inner
        assert outer.operands[1].operand is inner

    def test_copy_and_deepcopy_are_identity(self):
        formula = parse("P(a) -> P(b)")
        assert copy.copy(formula) is formula
        assert copy.deepcopy(formula) is formula

    def test_pickle_round_trip_preserves_identity(self):
        formula = parse("!(P(a) | P(b)) <-> P(c)")
        assert pickle.loads(pickle.dumps(formula)) is formula

    def test_arena_counts_traffic(self):
        misses_before = ARENA.misses
        # Keep the first construction referenced: the intern tables are
        # weak, so an unreferenced node is collected and cannot be a hit.
        first = Atom(P("fresh_arena_counter_probe"))
        assert ARENA.misses > misses_before  # at least the new constant
        probe_hits = ARENA.hits
        second = Atom(P("fresh_arena_counter_probe"))
        assert second is first
        assert ARENA.hits > probe_hits
        stats = ARENA.statistics()
        assert stats["intern_hits"] == ARENA.hits
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["interned_nodes"] > 0


# -- the randomized identity-vs-structure property -----------------------------

ATOM_NAMES = ("a", "b", "c")

#: Shape descriptions, built independently of the formula constructors so
#: the two realizations below share no objects except what the arena interns.
shapes = st.recursive(
    st.sampled_from([("atom", n) for n in ATOM_NAMES] + [("top",), ("bot",)]),
    lambda children: st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.just("and"), children, children),
        st.tuples(st.just("or"), children, children),
        st.tuples(st.just("implies"), children, children),
        st.tuples(st.just("iff"), children, children),
    ),
    max_leaves=10,
)


def _realize(shape):
    kind = shape[0]
    if kind == "atom":
        return Atom(GroundAtom(Predicate("P", 1), (Constant(shape[1]),)))
    if kind == "top":
        return Top()
    if kind == "bot":
        return Bottom()
    if kind == "not":
        return Not(_realize(shape[1]))
    operands = tuple(_realize(s) for s in shape[1:])
    if kind == "and":
        return And(operands)
    if kind == "or":
        return Or(operands)
    if kind == "implies":
        return Implies(*operands)
    return Iff(*operands)


@settings(max_examples=150, deadline=None)
@given(shapes)
def test_interned_identity_agrees_with_structural_oracle(shape):
    first = _realize(shape)
    second = _realize(shape)
    # Identity-keyed equality must coincide with the structural oracle: two
    # independent constructions of the same shape are one object, and their
    # rendered syntax (a faithful structural encoding) agrees.
    assert first is second
    assert to_text(first) == to_text(second)
    assert hash(first) == hash(second)


@settings(max_examples=100, deadline=None)
@given(shapes, shapes)
def test_distinct_structures_stay_distinct(left_shape, right_shape):
    left, right = _realize(left_shape), _realize(right_shape)
    if to_text(left) == to_text(right):
        assert left is right
    else:
        assert left is not right
        assert left != right
