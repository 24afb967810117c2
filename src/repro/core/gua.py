"""Algorithm GUA — the paper's ground update algorithm (Sections 3.3, 3.5).

Given a ground INSERT ``w WHERE phi`` (DELETE/MODIFY/ASSERT arrive already
reduced via :meth:`~repro.ldml.ast.GroundUpdate.to_insert`) and an extended
relational theory T, GUA rewrites T *syntactically* so that the alternative
worlds of the result are exactly those obtained by updating every
alternative world of T individually (Theorems 1 and 5).

Section 4 reduces an update with variables to "a set of ground updates
performed simultaneously", and GUA generalizes to that set.  The steps
below therefore run once, over ``(phi_i, w_i)`` pairs: a ground INSERT is
the one-pair set ``{(phi, w)}``, a
:class:`~repro.ldml.simultaneous.SimultaneousInsert` carries its own pairs.
The seven steps:

1.  **Add to completion axioms** — for each ground atom of any ``w_i`` or
    ``phi_i`` not in T, add the wff ``!f`` (the completion axioms being
    derived, the disjunct appears automatically; Lemma 1 guarantees the
    models are unchanged).
2'. **Attribute completion** (schema only) — same treatment for the
    attribute atoms ``A_i(c_i)`` induced by the written relation atoms.
2.  **Rename** — for each distinct ground atom ``f`` written by some
    ``w_i``, mint a fresh predicate constant ``p_f`` and redirect every
    stored occurrence of ``f`` to it, in place, through the Section 3.6
    index.
3.  **Define the update** — add ``(phi_i)σ -> w_i`` for each pair.
4.  **Restrict the update** — group the written atoms by the pairs that
    write them and add ``conj(!(phi_i)σ) -> conj(f <-> p_f)`` per group:
    f keeps its old value exactly when no clause that writes it fired.
    With one pair this is the single implication of the Section 3.6
    optimization.
5.  **Instantiate type axioms** — for relation/attribute atoms touched by
    the update whose attribute obligations are not guaranteed by every
    body that writes them.
6.  **Instantiate dependency axioms** — ground every dependency over
    bindings whose body atoms all lie in the theory's atom universe and
    that involve at least one written atom.
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
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union

from repro.errors import UpdateError
from repro.ldml.ast import GroundUpdate, Insert
from repro.ldml.parser import parse_update
from repro.ldml.simultaneous import SimultaneousInsert
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

#: The ``(phi_i, w_i)`` pairs GUA runs over; a ground INSERT is one pair.
Pairs = Tuple[Tuple[Formula, Formula], ...]


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

    ``update`` is the object that ran: the ground update reduced to its
    :class:`~repro.ldml.ast.Insert`, or the
    :class:`~repro.ldml.simultaneous.SimultaneousInsert`.  ``writers``
    maps each written atom, in sorted order, to the indices of the pairs
    whose body writes it (Steps 2-6 read it).  ``step_additions`` maps a
    GUA step key (``"step1"``, ``"step2'"``, ..., ``"step7"``) to the wffs
    that step added, in order — the raw material of the
    :func:`repro.obs.explain.explain_update` narrative.
    """

    update: Union[Insert, SimultaneousInsert]
    substitution: GroundSubstitution
    fresh_constants: Dict[GroundAtom, PredicateConstant]
    writers: Dict[GroundAtom, Tuple[int, ...]] = field(default_factory=dict)
    added_formulas: List[Formula] = field(default_factory=list)
    stats: GuaStats = field(default_factory=GuaStats)
    step_additions: Dict[str, List[Formula]] = field(default_factory=dict)


class GuaExecutor:
    """Runs GUA against one theory; reusable across updates.

    Parameters:
        entailment_mode: "conjunct" (paper's optimized Step 5 test) or
            "full" (complete entailment; more instances suppressed, costlier).
        combine_restrict: emit Step 4 as one implication per group of atoms
            written by the same pairs, over the conjunction of their
            biconditionals (the Section 3.6 form), rather than one wff per
            written atom.
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

    def apply(
        self, update: Union[GroundUpdate, SimultaneousInsert, str]
    ) -> GuaResult:
        """Perform one update, mutating the theory in place.

        A ground update (or LDML text) runs as the one-pair set
        ``((where, body),)`` of its INSERT reduction; a
        :class:`~repro.ldml.simultaneous.SimultaneousInsert` runs its own
        pairs.  Live execution, replay and ``explain_update`` all come
        through here.
        """
        if isinstance(update, str):
            update = parse_update(update)
        if isinstance(update, SimultaneousInsert):
            executed = update
            pairs: Pairs = update.pairs
            if len(pairs) > 1 and self.restriction_policy != "winslett":
                raise UpdateError(
                    "simultaneous updates are defined for the paper's "
                    "(winslett) semantics only, not "
                    f"{self.restriction_policy!r}"
                )
        else:
            executed = update.to_insert()
            pairs = ((executed.where, executed.body),)

        writers: Dict[GroundAtom, List[int]] = {}
        for index, (_, body) in enumerate(pairs):
            for atom in body.ground_atoms():
                writers.setdefault(atom, []).append(index)
        stats = GuaStats(
            g=sum(_count_atom_instances(f) for pair in pairs for f in pair)
        )
        result = GuaResult(
            update=executed,
            substitution=GroundSubstitution({}),
            fresh_constants={},
            writers={atom: tuple(writers[atom]) for atom in sorted(writers)},
            stats=stats,
        )

        with span("gua.apply", pairs=len(pairs), g=stats.g) as sp:
            with span("gua.step1_extend_completions"):
                self._step1_completion(pairs, result)
            with span("gua.step2p_attribute_completion"):
                self._step2_prime_attribute_completion(result)
            with span("gua.step2_rename") as s2:
                sigma = self._step2_rename(result)
                if s2:
                    s2.attrs["renamed_atoms"] = stats.renamed_atoms
                    s2.attrs["occurrences"] = stats.renamed_occurrences
            with span("gua.step3_define"):
                self._step3_define(pairs, sigma, result)
            with span("gua.step4_restrict"):
                self._step4_restrict(pairs, sigma, result)
            with span("gua.step5_type_axioms"):
                new_axiom_atoms = self._step5_type_axioms(pairs, result)
            with span("gua.step6_dependencies") as s6:
                new_axiom_atoms |= self._step6_dependencies(result)
                if s6:
                    s6.attrs["bindings"] = stats.dependency_bindings_examined
            with span("gua.step7_close_completions"):
                self._step7_close_completion(new_axiom_atoms, result)
            if sp:
                sp.attrs["wffs_added"] = stats.wffs_added
        return result

    def apply_simultaneous(
        self, pairs: Union[SimultaneousInsert, Iterable]
    ) -> GuaResult:
        """Perform a set of ground updates simultaneously (Section 4):
        *pairs* (``(where, body)`` pairs or ground updates) wrapped in a
        :class:`~repro.ldml.simultaneous.SimultaneousInsert` and run by
        :meth:`apply`."""
        if not isinstance(pairs, SimultaneousInsert):
            pairs = SimultaneousInsert(pairs)
        return self.apply(pairs)

    # -- steps ---------------------------------------------------------------------

    def _add(self, formula: Formula, result: GuaResult, step: str) -> None:
        stored = self.theory.add_formula(formula)
        result.added_formulas.append(formula)
        result.step_additions.setdefault(step, []).append(formula)
        result.stats.wffs_added += 1
        result.stats.nodes_added += stored.size()

    def _complete(self, atoms, result: GuaResult, step: str) -> None:
        """Add ``!f`` for each atom of *atoms* the theory does not mention."""
        store = self.theory.store
        for atom in atoms:
            if not store.contains_atom(atom):
                self._add(Not(Atom(atom)), result, step)
                result.stats.completion_additions += 1

    def _step1_completion(self, pairs: Pairs, result: GuaResult) -> None:
        mentioned: Set[GroundAtom] = set()
        for where, body in pairs:
            mentioned |= body.ground_atoms() | where.ground_atoms()
        self._complete(sorted(mentioned), result, "step1")

    def _step2_prime_attribute_completion(self, result: GuaResult) -> None:
        schema = self.theory.schema
        if schema is None:
            return
        for atom in result.writers:
            self._complete(schema.type_obligations(atom), result, "step2'")

    def _step2_rename(self, result: GuaResult) -> GroundSubstitution:
        mapping: Dict[GroundAtom, PredicateConstant] = {}
        for atom in result.writers:
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
        self, pairs: Pairs, sigma: GroundSubstitution, result: GuaResult
    ) -> None:
        for where, body in pairs:
            self._add(Implies(sigma.apply(where), body), result, "step3")

    def _step4_restrict(
        self, pairs: Pairs, sigma: GroundSubstitution, result: GuaResult
    ) -> None:
        """Step 4, parameterized by the restriction policy (Section 3.4:
        other semantics arise "simply by altering formula (1)").

        Written atoms are grouped by the pairs that write them; a group's
        guard is the conjunction of those pairs' ``!(phi_i)σ``.
        """
        if not result.fresh_constants:
            return
        if self.restriction_policy == "amnesic":
            return  # formula (1) dropped: old values forgotten everywhere
        biconditionals = {
            atom: Iff(Atom(atom), Atom(fresh))
            for atom, fresh in result.fresh_constants.items()
        }
        if self.restriction_policy == "guarded":
            # formula (1) without its guard: old values always pinned.
            for biconditional in biconditionals.values():
                self._add(biconditional, result, "step4")
            return
        groups: Dict[Tuple[int, ...], List[Formula]] = {}
        for atom, biconditional in biconditionals.items():
            groups.setdefault(result.writers[atom], []).append(biconditional)
        guards = {
            writers: conjoin([Not(sigma.apply(pairs[i][0])) for i in writers])
            for writers in groups
        }
        if self.combine_restrict:
            for writers, group in groups.items():
                self._add(Implies(guards[writers], conjoin(group)), result, "step4")
        else:
            for atom, biconditional in biconditionals.items():
                guard = guards[result.writers[atom]]
                self._add(Implies(guard, biconditional), result, "step4")

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
        self, pairs: Pairs, result: GuaResult
    ) -> Set[GroundAtom]:
        schema = self.theory.schema
        if schema is None:
            return set()
        writers = result.writers

        def guaranteed(atom: GroundAtom, obligation: GroundAtom) -> bool:
            # Whichever clause fired, every body that writes *atom* must
            # guarantee *obligation* for the produced models to satisfy it.
            return all(
                self._body_guarantees(pairs[i][1], obligation)
                for i in writers[atom]
            )

        instances: List[Tuple[GroundAtom, Tuple[GroundAtom, ...]]] = []

        # Condition (1): a written relation atom whose attribute obligations
        # are not all guaranteed by the bodies that write it.
        for atom in writers:
            obligations = schema.type_obligations(atom)
            if not obligations:
                continue
            if all(guaranteed(atom, ob) for ob in obligations):
                continue
            instances.append((atom, obligations))

        # Condition (2): a written attribute atom not guaranteed by the
        # bodies that write it — the update may delete it from some worlds,
        # so every relation atom in the theory obliged by it needs its
        # instance materialized.
        touched_attributes = {
            atom
            for atom in writers
            if schema.is_attribute(atom.predicate) and not guaranteed(atom, atom)
        }
        # Only this condition reads the whole universe (O(R)); an update
        # that fires neither condition costs nothing here.
        if touched_attributes:
            for atom in sorted(self.theory.atom_universe()):
                obligations = schema.type_obligations(atom)
                if obligations and set(obligations) & touched_attributes:
                    instances.append((atom, obligations))

        store = self.theory.store
        new_atoms: Set[GroundAtom] = set()
        for relation_atom, obligations in instances:
            instance = Implies(
                Atom(relation_atom),
                conjoin([Atom(ob) for ob in obligations]),
            )
            if self._register_axiom_instance(instance):
                new_atoms.update(
                    candidate
                    for candidate in (relation_atom, *obligations)
                    if not store.contains_atom(candidate)
                )
                self._add(instance, result, "step5")
                result.stats.type_instances += 1
        return new_atoms

    # -- Step 6: dependency instantiation -----------------------------------------------

    def _step6_dependencies(self, result: GuaResult) -> Set[GroundAtom]:
        dependencies = self.theory.dependencies
        if not dependencies:
            return set()
        store = self.theory.store
        universe = None  # materialized lazily only for the full grounding
        new_atoms: Set[GroundAtom] = set()
        for dependency in dependencies:
            if self.incremental_dependencies:
                instances = self._incremental_instances(
                    dependency, result.writers
                )
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

    def _incremental_instances(self, dependency, touched: Iterable[GroundAtom]):
        """Per-update Step 6 grounding via the store's live indexes.

        Functional dependencies use the Section 3.6 key index (O(g log R)
        conflict-free, O(g R) all-conflict); other template dependencies use
        the seeded join over the store's per-predicate indexes.
        """
        from repro.theory.dependencies import FdKeyIndex, FunctionalDependency

        store = self.theory.store
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


def _count_atom_instances(formula: Formula) -> int:
    """The paper's g, per formula: instances of ground atomic formulas."""
    return sum(
        1
        for node in formula.walk()
        if isinstance(node, Atom) and isinstance(node.atom, GroundAtom)
    )


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
