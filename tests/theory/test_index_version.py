"""Unit tests for the store version counter (derived-cache staleness)."""

from repro.logic.parser import parse, parse_atom
from repro.logic.syntax import And, Atom
from repro.logic.terms import Predicate, PredicateConstant
from repro.theory.index import WffStore
from repro.theory.theory import ExtendedRelationalTheory


class TestVersionCounter:
    def test_add_bumps(self):
        store = WffStore()
        before = store.version
        store.add(parse("P(a)"))
        assert store.version > before

    def test_rename_bumps(self):
        store = WffStore()
        store.add(parse("P(a)"))
        before = store.version
        store.rename(parse_atom("P(a)"), PredicateConstant("@x"))
        assert store.version > before

    def test_noop_rename_does_not_bump(self):
        store = WffStore()
        store.add(parse("P(a)"))
        before = store.version
        store.rename(parse_atom("P(zz)"), PredicateConstant("@x"))
        assert store.version == before

    def test_remove_bumps(self):
        store = WffStore()
        stored = store.add(parse("P(a)"))
        before = store.version
        store.remove(stored)
        assert store.version > before

    def test_replace_all_bumps(self):
        store = WffStore()
        store.add(parse("P(a)"))
        before = store.version
        store.replace_all([parse("P(b)")])
        assert store.version > before

    def test_reads_do_not_bump(self):
        store = WffStore()
        store.add(parse("P(a) | P(b)"))
        before = store.version
        store.formulas()
        store.ground_atoms()
        store.contains_atom(parse_atom("P(a)"))
        store.predicate_atoms(parse_atom("P(a)").predicate)
        assert store.version == before


class TestInternedAtomVersioning:
    """Rename/version semantics on hash-consed (shared) formula nodes.

    With the arena, the *same* ``Atom`` object appears in every wff that
    mentions it.  GUA Step 2 renames must still bump exactly the owner
    wffs' versions, redirect every per-position occurrence, and invalidate
    only the touched entries of the theory's per-wff Tseitin cache.
    """

    def test_rename_bumps_every_owner_of_the_shared_atom(self):
        store = WffStore()
        left = store.add(parse("P(a) | Q(b)"))
        right = store.add(parse("P(a) & R(c)"))
        other = store.add(parse("Q(b)"))
        # Interning: both wffs embed the identical Atom node.
        assert left.to_formula().operands[0] is right.to_formula().operands[0]
        versions = (left.version, right.version, other.version)
        redirected = store.rename(parse_atom("P(a)"), PredicateConstant("@v"))
        assert redirected == 2
        assert left.version > versions[0]
        assert right.version > versions[1]
        assert other.version == versions[2]

    def test_readding_same_formula_reuses_interned_nodes(self):
        store = WffStore()
        formula = parse("P(a) & Q(b)")
        first = store.add(formula)
        second = store.add(formula)
        # The store's node memo maps the interned formula to shared
        # stored nodes, but occurrence accounting stays per position.
        assert first.root is second.root
        assert store.occurrence_count(parse_atom("P(a)")) == 2

    def test_duplicate_conjuncts_count_per_position(self):
        P = Predicate("P", 1)
        atom = Atom(P("a"))
        store = WffStore()
        store.add(And(tuple([atom] * 50)))
        # One interned leaf, fifty tree positions: the paper's occurrence
        # list has length fifty and rename must report redirecting all.
        assert store.occurrence_count(P("a")) == 50
        assert store.rename(P("a"), PredicateConstant("@w")) == 50

    def test_rename_invalidates_tseitin_cache_per_owner_wff(self):
        theory = ExtendedRelationalTheory()
        theory.add_formula("P(a) | Q(b)")
        theory.add_formula("P(a) & R(c)")
        theory.add_formula("S(d) | S(e)")
        theory.clauses()  # populate the per-wff cache
        theory.reset_solver_statistics()
        theory.store.rename(parse_atom("P(a)"), PredicateConstant("@t"))
        theory.clauses()
        stats = theory.tseitin_statistics()
        # Both wffs sharing the interned P(a) re-encode; the third hits.
        assert stats["cache_misses"] == 2
        assert stats["cache_hits"] == 1

    def test_worlds_correct_after_rename_of_shared_atom(self):
        theory = ExtendedRelationalTheory()
        theory.add_formula("P(a) | Q(b)")
        theory.add_formula("!P(a)")
        theory.clauses()
        theory.store.rename(parse_atom("P(a)"), PredicateConstant("@u"))
        theory.add_formula("!@u")
        # With @u forced false, P(a) is unconstrained and Q(b) is forced.
        assert all(
            world.satisfies(parse("Q(b)"))
            for world in theory.alternative_worlds()
        )
