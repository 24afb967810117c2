"""Algorithm GUA — the paper's ground update algorithm (Sections 3.3, 3.5).

Given a ground INSERT ``w WHERE phi`` (DELETE/MODIFY/ASSERT arrive already
reduced via :meth:`~repro.ldml.ast.GroundUpdate.to_insert`) and an extended
relational theory T, GUA rewrites T *syntactically* so that the alternative
worlds of the result are exactly those obtained by updating every
alternative world of T individually (Theorems 1 and 5).

The seven steps:

1.  **Add to completion axioms** — for each ground atom of ``w`` or ``phi``
    not in T, add the wff ``!f`` (the completion axioms being derived, the
    disjunct appears automatically; Lemma 1 guarantees the models are
    unchanged).
2'. **Attribute completion** (schema only) — same treatment for the
    attribute atoms ``A_i(c_i)`` induced by relation atoms of ``w``.
2.  **Rename** — for each distinct ground atom ``f`` of ``w``, mint a fresh
    predicate constant ``p_f`` and redirect every stored occurrence of
    ``f`` to it, in place, through the Section 3.6 index.
3.  **Define the update** — add ``(phi)σ -> w``.
4.  **Restrict the update** — add ``!(phi)σ -> (f <-> p_f)`` for each
    ``f`` in ``w`` (all conjuncts folded into one implication, the
    Section 3.6 optimization).
5.  **Instantiate type axioms** — for relation/attribute atoms touched by
    ``w`` whose attribute obligations are not guaranteed by ``w``.
6.  **Instantiate dependency axioms** — ground every dependency over
    bindings whose body atoms all lie in the theory's atom universe and
    that involve at least one updated atom.
7.  **Close the completion axioms** — ``!f`` for atoms first introduced by
    Steps 5/6, plus attribute completion for their constants.

The executor mutates the theory in place and returns a :class:`GuaResult`
carrying the substitution, the added wffs, and instrumentation counters used
by the complexity experiments (E4-E6).

**Precondition (Section 3.5).**  With type or dependency axioms present, the
input theory must satisfy the paper's invariant: removing those axioms does
not change the models — equivalently, no alternative world of the bare
section violates them (``ExtendedRelationalTheory.satisfies_axiom_invariant``
checks it; ``TheoryBuilder.build(check_invariant=True)`` enforces it at
construction).  GUA maintains the invariant across updates, but cannot
repair a theory that starts outside it: a pre-existing violation among
untouched atoms is filtered by the model-level rule 3 yet is invisible to
the incremental Steps 5/6, so Theorem 5's diagram only commutes from legal
starting points — exactly the paper's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.errors import UpdateError
from repro.ldml.ast import GroundUpdate, Insert
from repro.ldml.parser import parse_update
from repro.logic.entailment import entails
from repro.logic.substitution import GroundSubstitution
from repro.logic.syntax import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    conjoin,
)
from repro.logic.terms import GroundAtom, PredicateConstant
from repro.obs.spans import span
from repro.theory.theory import ExtendedRelationalTheory

#: How Step 5 decides whether ``w`` guarantees an attribute atom.
#: "conjunct" is the paper's O(1) optimization ("the testing of logical
#: implications is reduced to a test of whether A_i(c_i) is a conjunct of
#: w"); "full" runs a complete entailment check.
EntailmentMode = str


@dataclass
class GuaStats:
    """Instrumentation counters, aligned with the Section 3.6 cost model."""

    g: int = 0  #: ground atom instances in the update (the paper's g)
    renamed_atoms: int = 0
    renamed_occurrences: int = 0
    wffs_added: int = 0
    nodes_added: int = 0
    completion_additions: int = 0
    type_instances: int = 0
    dependency_instances: int = 0
    dependency_bindings_examined: int = 0


@dataclass
class GuaResult:
    """Outcome of one GUA execution.

    ``step_additions`` maps a GUA step key (``"step1"``, ``"step2'"``, ...,
    ``"step7"``) to the wffs that step added, in order — the raw material
    of the :func:`repro.obs.explain.explain_update` narrative.
    """

    update: Insert
    substitution: GroundSubstitution
    fresh_constants: Dict[GroundAtom, PredicateConstant]
    added_formulas: List[Formula] = field(default_factory=list)
    stats: GuaStats = field(default_factory=GuaStats)
    step_additions: Dict[str, List[Formula]] = field(default_factory=dict)


class GuaExecutor:
    """Runs GUA against one theory; reusable across updates.

    Parameters:
        entailment_mode: "conjunct" (paper's optimized Step 5 test) or
            "full" (complete entailment; more instances suppressed, costlier).
        combine_restrict: emit Step 4 as a single implication over the
            conjunction of all biconditionals (the Section 3.6 form) rather
            than one wff per updated atom.
        incremental_dependencies: Step 6 only grounds bindings touching the
            updated atoms (the per-update incremental form).  Turning this
            off grounds every binding — used by the E6 worst-case bench.
    """

    def __init__(
        self,
        theory: ExtendedRelationalTheory,
        *,
        entailment_mode: EntailmentMode = "conjunct",
        combine_restrict: bool = True,
        incremental_dependencies: bool = True,
        restriction_policy: str = "winslett",
    ):
        from repro.ldml.policies import check_policy

        if entailment_mode not in ("conjunct", "full"):
            raise UpdateError(
                f"unknown entailment mode {entailment_mode!r} "
                "(expected 'conjunct' or 'full')"
            )
        self.theory = theory
        self.entailment_mode = entailment_mode
        self.combine_restrict = combine_restrict
        self.incremental_dependencies = incremental_dependencies
        self.restriction_policy = check_policy(restriction_policy)

    # -- public API -------------------------------------------------------------

    def apply(self, update: Union[GroundUpdate, str]) -> GuaResult:
        """Perform one ground update, mutating the theory in place.

        Accepts a :class:`~repro.ldml.simultaneous.SimultaneousInsert` too,
        dispatching to :meth:`apply_simultaneous`: this is the one place
        live execution, replay and ``explain_update`` choose between the
        ground and the simultaneous path.
        """
        from repro.ldml.simultaneous import SimultaneousInsert

        if isinstance(update, SimultaneousInsert):
            return self.apply_simultaneous(update)
        if isinstance(update, str):
            update = parse_update(update)
        insert = update.to_insert()
        if insert.body.predicate_constants() or insert.where.predicate_constants():
            raise UpdateError(
                "ground updates may not mention predicate constants"
            )
        stats = GuaStats()
        stats.g = self._count_atom_instances(insert)
        result = GuaResult(
            update=insert,
            substitution=GroundSubstitution({}),
            fresh_constants={},
            stats=stats,
        )

        with span("gua.apply", g=stats.g) as sp:
            with span("gua.step1_extend_completions"):
                self._step1_completion(insert, result)
            with span("gua.step2p_attribute_completion"):
                self._step2_prime_attribute_completion(insert, result)
            with span("gua.step2_rename") as s2:
                sigma = self._step2_rename(insert, result)
                if s2:
                    s2.attrs["renamed_atoms"] = stats.renamed_atoms
                    s2.attrs["occurrences"] = stats.renamed_occurrences
            with span("gua.step3_define"):
                self._step3_define(insert, sigma, result)
            with span("gua.step4_restrict"):
                self._step4_restrict(insert, sigma, result)
            with span("gua.step5_type_axioms"):
                new_axiom_atoms = self._step5_type_axioms(insert, result)
            with span("gua.step6_dependencies") as s6:
                new_axiom_atoms |= self._step6_dependencies(insert, result)
                if s6:
                    s6.attrs["bindings"] = stats.dependency_bindings_examined
            with span("gua.step7_close_completions"):
                self._step7_close_completion(new_axiom_atoms, result)
            if sp:
                sp.attrs["wffs_added"] = stats.wffs_added
        return result

    def apply_simultaneous(self, update) -> GuaResult:
        """Perform a set of ground updates *simultaneously* (Section 4).

        The generalization of Steps 1-7 to pairs ``(phi_i, w_i)``:

        * Step 1/2' extend the completion axioms for every atom of any pair;
        * Step 2 renames the union of the bodies' atoms through one sigma;
        * Step 3 adds ``(phi_i)σ -> w_i`` for each pair;
        * Step 4 guards each renamed atom f with the *conjunction* of
          ``!(phi_i)σ`` over the pairs whose body mentions f — f keeps its
          old value exactly when no clause that writes it fired;
        * Steps 5-7 run with the union of written atoms as the touched set.

        A singleton set degenerates to :meth:`apply` exactly.
        """
        from repro.ldml.simultaneous import SimultaneousInsert

        if self.restriction_policy != "winslett":
            raise UpdateError(
                "simultaneous updates are defined for the paper's (winslett) "
                f"semantics only, not {self.restriction_policy!r}"
            )
        if not isinstance(update, SimultaneousInsert):
            update = SimultaneousInsert(update)
        single = update.as_single_insert()
        if single is not None:
            return self.apply(single)

        pairs = update.pairs
        stats = GuaStats()
        stats.g = sum(
            self._count_atom_instances(Insert(body, where))
            for where, body in pairs
        )
        result = GuaResult(
            update=Insert(conjoin([body for _, body in pairs])),
            substitution=GroundSubstitution({}),
            fresh_constants={},
            stats=stats,
        )

        with span("gua.apply_simultaneous", pairs=len(pairs), g=stats.g):
            # Steps 1 and 2': completion axioms for every mentioned atom.
            store = self.theory.store
            with span("gua.step1_extend_completions"):
                mentioned: Set[GroundAtom] = set()
                for where, body in pairs:
                    mentioned |= body.ground_atoms() | where.ground_atoms()
                for atom in sorted(mentioned):
                    if not store.contains_atom(atom):
                        self._add(Not(Atom(atom)), result, "step1")
                        result.stats.completion_additions += 1
            schema = self.theory.schema
            with span("gua.step2p_attribute_completion"):
                if schema is not None:
                    for _, body in pairs:
                        for atom in sorted(body.ground_atoms()):
                            for obligation in schema.type_obligations(atom):
                                if not store.contains_atom(obligation):
                                    self._add(
                                        Not(Atom(obligation)), result, "step2'"
                                    )
                                    result.stats.completion_additions += 1

            # Step 2: one sigma over the union of written atoms.
            with span("gua.step2_rename") as s2:
                written: Set[GroundAtom] = set()
                for _, body in pairs:
                    written |= body.ground_atoms()
                mapping: Dict[GroundAtom, PredicateConstant] = {}
                for atom in sorted(written):
                    fresh = self.theory.fresh_predicate_constant()
                    mapping[atom] = fresh
                    redirected = store.rename(atom, fresh)
                    # Same invalidation as the ground path: renamed-away
                    # atoms void their registered Step 5/6 instances.
                    self.theory.invalidate_axiom_instances(atom)
                    result.stats.renamed_atoms += 1
                    result.stats.renamed_occurrences += redirected
                sigma = GroundSubstitution(mapping)
                result.substitution = sigma
                result.fresh_constants = mapping
                if s2:
                    s2.attrs["renamed_atoms"] = result.stats.renamed_atoms
                    s2.attrs["occurrences"] = result.stats.renamed_occurrences

            # Step 3: one definition wff per pair.
            with span("gua.step3_define"):
                for where, body in pairs:
                    self._add(
                        Implies(sigma.apply(where), body), result, "step3"
                    )

            # Step 4: per-atom guard over the clauses that write it.
            with span("gua.step4_restrict"):
                for atom in sorted(written):
                    guards = [
                        Not(sigma.apply(where))
                        for where, body in pairs
                        if atom in body.ground_atoms()
                    ]
                    self._add(
                        Implies(
                            conjoin(guards),
                            Iff(Atom(atom), Atom(mapping[atom])),
                        ),
                        result,
                        "step4",
                    )

            # Steps 5-7 on the union footprint.  Step 5 must judge guarantees
            # per writing pair: an obligation counts as guaranteed only when
            # *every* body that writes the atom guarantees it — whichever
            # clause fired, the produced models then satisfy the type axiom.
            with span("gua.step5_type_axioms"):
                new_axiom_atoms = self._step5_type_axioms_multi(pairs, result)
            with span("gua.step6_dependencies"):
                joint = Insert(conjoin([body for _, body in pairs]))
                new_axiom_atoms |= self._step6_dependencies(joint, result)
            with span("gua.step7_close_completions"):
                self._step7_close_completion(new_axiom_atoms, result)
        return result

    def _step5_type_axioms_multi(self, pairs, result: GuaResult) -> Set[GroundAtom]:
        schema = self.theory.schema
        if schema is None:
            return set()
        bodies_writing: Dict[GroundAtom, List[Formula]] = {}
        for _, body in pairs:
            for atom in body.ground_atoms():
                bodies_writing.setdefault(atom, []).append(body)

        def guaranteed(atom: GroundAtom) -> bool:
            return all(
                self._body_guarantees(body, atom)
                for body in bodies_writing[atom]
            )

        universe = self.theory.atom_universe()
        instances: List[Tuple[GroundAtom, Tuple[GroundAtom, ...]]] = []
        for atom in sorted(bodies_writing):
            obligations = schema.type_obligations(atom)
            if not obligations:
                continue
            # Condition (1): skip only when every body writing the relation
            # atom guarantees every obligation (liberal instantiation is
            # always sound; skipping requires the guarantee from whichever
            # clause fired).
            if all(
                all(self._body_guarantees(body, ob) for ob in obligations)
                for body in bodies_writing[atom]
            ):
                continue
            instances.append((atom, obligations))

        touched_attributes = {
            atom
            for atom in bodies_writing
            if schema.is_attribute(atom.predicate) and not guaranteed(atom)
        }
        if touched_attributes:
            for atom in sorted(universe):
                obligations = schema.type_obligations(atom)
                if obligations and set(obligations) & touched_attributes:
                    instances.append((atom, obligations))

        new_atoms: Set[GroundAtom] = set()
        store = self.theory.store
        for relation_atom, obligations in instances:
            instance = Implies(
                Atom(relation_atom),
                conjoin([Atom(ob) for ob in obligations]),
            )
            if self._register_axiom_instance(instance):
                fresh = [
                    candidate
                    for candidate in (relation_atom, *obligations)
                    if not store.contains_atom(candidate)
                ]
                self._add(instance, result, "step5")
                result.stats.type_instances += 1
                new_atoms.update(fresh)
        return new_atoms

    # -- steps ---------------------------------------------------------------------

    def _count_atom_instances(self, insert: Insert) -> int:
        """The paper's g: instances of ground atomic formulas in the update."""
        count = 0
        for formula in (insert.body, insert.where):
            for node in formula.walk():
                if isinstance(node, Atom) and isinstance(node.atom, GroundAtom):
                    count += 1
        return count

    def _add(self, formula: Formula, result: GuaResult, step: str) -> None:
        stored = self.theory.add_formula(formula)
        result.added_formulas.append(formula)
        result.step_additions.setdefault(step, []).append(formula)
        result.stats.wffs_added += 1
        result.stats.nodes_added += stored.size()

    def _step1_completion(self, insert: Insert, result: GuaResult) -> None:
        store = self.theory.store
        mentioned = sorted(
            insert.body.ground_atoms() | insert.where.ground_atoms()
        )
        for atom in mentioned:
            if not store.contains_atom(atom):
                self._add(Not(Atom(atom)), result, "step1")
                result.stats.completion_additions += 1

    def _step2_prime_attribute_completion(
        self, insert: Insert, result: GuaResult
    ) -> None:
        schema = self.theory.schema
        if schema is None:
            return
        store = self.theory.store
        for atom in sorted(insert.body.ground_atoms()):
            for obligation in schema.type_obligations(atom):
                if not store.contains_atom(obligation):
                    self._add(Not(Atom(obligation)), result, "step2'")
                    result.stats.completion_additions += 1

    def _step2_rename(self, insert: Insert, result: GuaResult) -> GroundSubstitution:
        mapping: Dict[GroundAtom, PredicateConstant] = {}
        for atom in sorted(insert.body.ground_atoms()):
            fresh = self.theory.fresh_predicate_constant()
            mapping[atom] = fresh
            redirected = self.theory.store.rename(atom, fresh)
            # The in-theory copies of any Step 5/6 instances over this atom
            # now refer to its historical value; drop them from the dedup
            # registry so this update's Steps 5/6 can re-instantiate.
            self.theory.invalidate_axiom_instances(atom)
            result.stats.renamed_atoms += 1
            result.stats.renamed_occurrences += redirected
        sigma = GroundSubstitution(mapping)
        result.substitution = sigma
        result.fresh_constants = mapping
        return sigma

    def _step3_define(
        self, insert: Insert, sigma: GroundSubstitution, result: GuaResult
    ) -> None:
        clause = sigma.apply(insert.where)
        self._add(Implies(clause, insert.body), result, "step3")

    def _step4_restrict(
        self, insert: Insert, sigma: GroundSubstitution, result: GuaResult
    ) -> None:
        """Step 4, parameterized by the restriction policy (Section 3.4:
        other semantics arise "simply by altering formula (1)")."""
        if not result.fresh_constants:
            return
        if self.restriction_policy == "amnesic":
            return  # formula (1) dropped: old values forgotten everywhere
        biconditionals = [
            Iff(Atom(atom), Atom(fresh))
            for atom, fresh in sorted(
                result.fresh_constants.items(), key=lambda kv: kv[0]
            )
        ]
        if self.restriction_policy == "guarded":
            # formula (1) without its guard: old values always pinned.
            for biconditional in biconditionals:
                self._add(biconditional, result, "step4")
            return
        clause = Not(sigma.apply(insert.where))
        if self.combine_restrict:
            self._add(Implies(clause, conjoin(biconditionals)), result, "step4")
        else:
            for biconditional in biconditionals:
                self._add(Implies(clause, biconditional), result, "step4")

    # -- Step 5: type axiom instantiation ----------------------------------------------

    def _body_guarantees(self, body: Formula, atom: GroundAtom) -> bool:
        """Does ``w`` guarantee *atom* true in every produced model?"""
        if self.entailment_mode == "conjunct":
            return self._is_conjunct(body, atom)
        return entails(body, Atom(atom))

    @staticmethod
    def _is_conjunct(body: Formula, atom: GroundAtom) -> bool:
        """The paper's O(1)-per-test approximation: atom syntactically a
        top-level conjunct of w (or w itself).  Atoms are interned, so the
        comparisons are identity probes."""
        if isinstance(body, Atom):
            return body.atom is atom
        if isinstance(body, And):
            return any(
                isinstance(op, Atom) and op.atom is atom for op in body.operands
            )
        return False

    def _step5_type_axioms(
        self, insert: Insert, result: GuaResult
    ) -> Set[GroundAtom]:
        schema = self.theory.schema
        if schema is None:
            return set()
        body_atoms = insert.body.ground_atoms()
        universe = self.theory.atom_universe()
        instances: List[Tuple[GroundAtom, Tuple[GroundAtom, ...]]] = []

        # Condition (1): a relation atom in w whose attribute obligations
        # are not all guaranteed by w.
        for atom in sorted(body_atoms):
            obligations = schema.type_obligations(atom)
            if not obligations:
                continue
            if all(self._body_guarantees(insert.body, ob) for ob in obligations):
                continue
            instances.append((atom, obligations))

        # Condition (2): an attribute atom in w that w does not guarantee —
        # the update may delete it from some worlds, so every relation atom
        # in the theory obliged by it needs its instance materialized.
        touched_attributes = {
            atom
            for atom in body_atoms
            if schema.is_attribute(atom.predicate)
            and not self._body_guarantees(insert.body, atom)
        }
        if touched_attributes:
            for atom in sorted(universe):
                obligations = schema.type_obligations(atom)
                if obligations and set(obligations) & touched_attributes:
                    instances.append((atom, obligations))

        new_atoms: Set[GroundAtom] = set()
        for relation_atom, obligations in instances:
            instance = Implies(
                Atom(relation_atom),
                conjoin([Atom(ob) for ob in obligations]),
            )
            if self._register_axiom_instance(instance):
                self._add(instance, result, "step5")
                result.stats.type_instances += 1
                for candidate in (relation_atom, *obligations):
                    if candidate not in universe:
                        new_atoms.add(candidate)
        return new_atoms

    # -- Step 6: dependency instantiation -----------------------------------------------

    def _step6_dependencies(
        self, insert: Insert, result: GuaResult
    ) -> Set[GroundAtom]:
        dependencies = self.theory.dependencies
        if not dependencies:
            return set()
        store = self.theory.store
        universe = None  # materialized lazily only for the full grounding
        new_atoms: Set[GroundAtom] = set()
        for dependency in dependencies:
            if self.incremental_dependencies:
                instances = self._incremental_instances(dependency, insert)
            else:
                universe = universe or self.theory.atom_universe()
                instances = dependency.instantiations(universe)
            # Materialize before adding: the lazy join reads the store's
            # live indexes, and adding an instance can insert new atoms into
            # the very index being iterated (e.g. an MVD head atom of the
            # joined predicate).
            instances = list(instances)
            for instance in instances:
                result.stats.dependency_bindings_examined += 1
                if not self._register_axiom_instance(instance):
                    continue
                fresh = [
                    atom
                    for atom in instance.ground_atoms()
                    if not store.contains_atom(atom)
                ]
                self._add(instance, result, "step6")
                result.stats.dependency_instances += 1
                new_atoms.update(fresh)
        return new_atoms

    def _incremental_instances(self, dependency, insert: Insert):
        """Per-update Step 6 grounding via the store's live indexes.

        Functional dependencies use the Section 3.6 key index (O(g log R)
        conflict-free, O(g R) all-conflict); other template dependencies use
        the seeded join over the store's per-predicate indexes.
        """
        from repro.theory.dependencies import FdKeyIndex, FunctionalDependency

        store = self.theory.store
        touched = insert.body.ground_atoms()
        if isinstance(dependency, FunctionalDependency):
            key_index = self.theory.fd_key_index(
                dependency, lambda: FdKeyIndex(dependency)
            )
            return dependency.incremental_instances(store, touched, key_index)
        return dependency.instantiations(
            (),  # universe unused when atoms_by_predicate is given
            touching=touched,
            atoms_by_predicate=store.iter_predicate_atoms,
            contains=store.contains_atom,
        )

    def _register_axiom_instance(self, instance: Formula) -> bool:
        """Deduplicate axiom instances across updates (True = first time).

        The registry is first-class theory state (captured by
        :meth:`ExtendedRelationalTheory.snapshot` and rewound by rollback).
        """
        return self.theory.register_axiom_instance(instance)

    # -- Step 7 ----------------------------------------------------------------------------

    def _step7_close_completion(
        self, new_atoms: Set[GroundAtom], result: GuaResult
    ) -> None:
        schema = self.theory.schema
        store = self.theory.store
        closure = set(new_atoms)
        if schema is not None:
            for atom in new_atoms:
                closure.update(schema.type_obligations(atom))
        for atom in sorted(closure):
            # An atom "first introduced in Steps 5/6" has occurrences from
            # the instance wffs only; Lemma 1 requires !f alongside the new
            # completion disjunct to keep the world set unchanged.
            if atom in new_atoms or not store.contains_atom(atom):
                self._add(Not(Atom(atom)), result, "step7")
                result.stats.completion_additions += 1


def gua_update(
    theory: ExtendedRelationalTheory,
    update: Union[GroundUpdate, str],
    **options,
) -> GuaResult:
    """One-shot convenience wrapper: run GUA for a single update."""
    return GuaExecutor(theory, **options).apply(update)


def gua_run_script(
    theory: ExtendedRelationalTheory,
    updates: Sequence[Union[GroundUpdate, str]],
    **options,
) -> List[GuaResult]:
    """Run a sequence of updates through one executor."""
    executor = GuaExecutor(theory, **options)
    return [executor.apply(update) for update in updates]
