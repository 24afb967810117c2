"""The extended relational theory object (Section 2 + Section 3.5).

An :class:`ExtendedRelationalTheory` owns:

* a :class:`~repro.theory.language.Language` (constants/predicates seen, and
  the fresh-predicate-constant supply for GUA Step 2);
* an optional :class:`~repro.theory.schema.DatabaseSchema` whose type axioms
  it derives;
* a tuple of dependency axioms;
* the *non-axiomatic section*: ground wffs held in the Section 3.6 indexed
  store (:class:`~repro.theory.index.WffStore`).

Unique-name and completion axioms are derived, never stored, per the paper.
The completion-axiom invariant — a disjunct for atom f exists iff f appears
in the theory — is maintained automatically because the derived axioms read
the store's live indexes.

Reasoning services (consistency, world enumeration/counting) compile the
section to CNF via Tseitin (selector variables are predicate constants and
therefore invisible) and run the DPLL enumerator with projection onto the
ground-atom universe.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from dataclasses import dataclass

from repro.errors import TheoryError
from repro.logic.allsat import iter_projected_models
from repro.logic.cnf import Clause, tseitin
from repro.logic.parser import parse
from repro.logic.sat import Solver, SolverStats
from repro.logic.syntax import Formula
from repro.logic.terms import GroundAtom, Predicate, PredicateConstant
from repro.obs.spans import span
from repro.theory.axioms import (
    CompletionAxiom,
    TypeAxiom,
    derive_completion_axioms,
    derive_type_axioms,
)
from repro.theory.dependencies import TemplateDependency
from repro.theory.index import StoredWff, WffStore
from repro.theory.language import Language
from repro.theory.schema import DatabaseSchema
from repro.theory.worlds import AlternativeWorld


@dataclass(frozen=True)
class TheorySnapshot:
    """An immutable capture of the theory's mutable state.

    Holds the non-axiomatic section plus the GUA axiom-instance registry, so
    a restore rewinds *both*: the stored wffs and the dedup memory that
    decides whether Steps 5/6 re-add an instance.  Formulas are immutable, so
    the snapshot shares them safely with the live theory.
    """

    formulas: Tuple[Formula, ...]
    axiom_instances: FrozenSet[Formula]


class ExtendedRelationalTheory:
    """A database with incomplete information, as a logical theory."""

    def __init__(
        self,
        language: Optional[Language] = None,
        schema: Optional[DatabaseSchema] = None,
        dependencies: Sequence[TemplateDependency] = (),
        formulas: Iterable[Union[Formula, str]] = (),
    ):
        if language is None:
            language = Language(schema=schema)
        elif schema is not None and language.schema is not None and language.schema is not schema:
            raise TheoryError("language and theory disagree on the schema")
        self.language = language
        self._schema = schema if schema is not None else language.schema
        self._dependencies: Tuple[TemplateDependency, ...] = tuple(dependencies)
        self._store = WffStore()
        # Per-wff Tseitin cache: store_id -> (wff version, encoded clauses).
        # An update re-encodes only the wffs GUA actually touched; untouched
        # wffs hit the cache even though the store version moved on.
        self._wff_clause_cache: Dict[int, Tuple[int, Tuple[Clause, ...]]] = {}
        self._clause_cache_hits = 0
        self._clause_cache_misses = 0
        self._universe_cache: Tuple[int, Optional[FrozenSet[GroundAtom]]] = (-1, None)
        # GUA's cross-update dedup registry for Step 5/6 axiom instances and
        # the per-dependency FD key indexes.  Both are first-class state of
        # the theory (captured by snapshot/restore), not ad-hoc attributes.
        # Instances are interned formulas, so the registry keys on the stable
        # arena node id — membership is one int-dict probe, no structural
        # hashing of the instance.
        self._axiom_instances: Dict[int, Formula] = {}
        # Reverse index atom -> registered instance keys, so a Step 2 rename
        # can evict exactly the instances it made stale (see
        # invalidate_axiom_instances) without scanning the registry.
        self._axiom_instances_by_atom: Dict[GroundAtom, Set[int]] = {}
        self._fd_key_indexes: Dict[int, object] = {}
        #: Shared work counters for every solver this theory spins up
        #: (consistency, world enumeration, and the query layer thread it).
        self.sat_stats = SolverStats()
        for formula in formulas:
            self.add_formula(formula)

    # -- the non-axiomatic section -------------------------------------------------

    def add_formula(self, formula: Union[Formula, str]) -> StoredWff:
        """Append a ground wff to the non-axiomatic section.

        Accepts concrete syntax for convenience.  Registers every symbol in
        the language; the atom universe (and hence the derived completion
        axioms) extends automatically.
        """
        if isinstance(formula, str):
            formula = parse(formula)
        if not isinstance(formula, Formula):
            raise TheoryError(f"expected a ground wff, got {formula!r}")
        self.language.register_formula(formula)
        return self._store.add(formula)

    def remove_wff(self, stored: StoredWff) -> None:
        self._store.remove(stored)

    def formulas(self) -> Tuple[Formula, ...]:
        """The current non-axiomatic section as immutable formulas."""
        return self._store.formulas()

    def stored_wffs(self) -> Tuple[StoredWff, ...]:
        return self._store.wffs()

    def replace_formulas(self, formulas: Iterable[Formula]) -> None:
        """Swap the whole non-axiomatic section (simplification hook).

        Caller is responsible for logical equivalence; by the closing remark
        of Section 3.4, logically equivalent sections have identical world
        sets under all future updates.
        """
        formulas = tuple(formulas)
        for formula in formulas:
            self.language.register_formula(formula)
        self._store.replace_all(formulas)
        # Rebuilding the store resets its arrival log; derived caches (the
        # FD key indexes, the GUA axiom-instance registry) would be stale.
        self._axiom_instances.clear()
        self._axiom_instances_by_atom.clear()
        self._fd_key_indexes.clear()

    @property
    def store(self) -> WffStore:
        """The Section 3.6 indexed store (GUA operates directly on it)."""
        return self._store

    # -- GUA-facing registries -------------------------------------------------------

    def register_axiom_instance(self, instance: Formula) -> bool:
        """Deduplicate Step 5/6 axiom instances across updates.

        Returns True the first time *instance* is seen (the caller should add
        it to the section), False on repeats.

        Hash-consing makes "same instance" the same object, so the check is
        an identity probe on the arena node id.

        A Step 2 rename rewrites the in-theory copy of an instance to refer
        to a *historical* constant, so the registered form no longer
        constrains the current atoms; the renamer must call
        :meth:`invalidate_axiom_instances` for each renamed atom, or a later
        Step 5/6 would skip re-adding a constraint the theory genuinely
        lost (found by the QA differential fuzzer: an FD instance silently
        stopped applying after its atom was re-inserted).
        """
        key = instance.arena_id
        if key in self._axiom_instances:
            return False
        self._axiom_instances[key] = instance
        for atom in instance.ground_atoms():
            self._axiom_instances_by_atom.setdefault(atom, set()).add(key)
        return True

    def invalidate_axiom_instances(self, atom: GroundAtom) -> int:
        """Evict registered Step 5/6 instances that mention *atom*.

        Called by GUA's Step 2 when *atom*'s occurrences are renamed to a
        fresh historical constant: the in-theory copies of those instances
        now speak about the old value, so the instances must be eligible
        for re-instantiation against the new one.  Returns the number
        evicted.
        """
        keys = self._axiom_instances_by_atom.pop(atom, None)
        if not keys:
            return 0
        evicted = 0
        for key in keys:
            instance = self._axiom_instances.pop(key, None)
            if instance is None:
                continue
            evicted += 1
            for other in instance.ground_atoms():
                if other is not atom:
                    bucket = self._axiom_instances_by_atom.get(other)
                    if bucket is not None:
                        bucket.discard(key)
                        if not bucket:
                            del self._axiom_instances_by_atom[other]
        return evicted

    def fd_key_index(self, dependency, factory):
        """The per-dependency key index for incremental Step 6 (memoized)."""
        index = self._fd_key_indexes.get(id(dependency))
        if index is None:
            index = factory()
            self._fd_key_indexes[id(dependency)] = index
        return index

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot(self) -> TheorySnapshot:
        """Capture the mutable state a rollback must rewind."""
        return TheorySnapshot(
            formulas=self._store.formulas(),
            axiom_instances=frozenset(self._axiom_instances.values()),
        )

    def restore(self, snapshot: TheorySnapshot) -> None:
        """Restore a :meth:`snapshot` in place.

        The theory object's identity is preserved — executors, transaction
        managers, and caches holding a reference keep working; the per-wff
        clause cache and FD key indexes are invalidated by the store rebuild.
        """
        self.replace_formulas(snapshot.formulas)
        self._axiom_instances = {f.arena_id: f for f in snapshot.axiom_instances}
        self._axiom_instances_by_atom = {}
        for key, instance in self._axiom_instances.items():
            for atom in instance.ground_atoms():
                self._axiom_instances_by_atom.setdefault(atom, set()).add(key)

    # -- derived structure -----------------------------------------------------------

    @property
    def schema(self) -> Optional[DatabaseSchema]:
        return self._schema

    @property
    def dependencies(self) -> Tuple[TemplateDependency, ...]:
        return self._dependencies

    def add_dependency(self, dependency: TemplateDependency) -> None:
        """Schema evolution hook ("a simple matter to extend", Section 3.5)."""
        self._dependencies = self._dependencies + (dependency,)

    def atom_universe(self) -> FrozenSet[GroundAtom]:
        """Ground atoms represented in the (derived) completion axioms."""
        version, cached = self._universe_cache
        if cached is not None and version == self._store.version:
            return cached
        universe = self._store.ground_atoms()
        self._universe_cache = (self._store.version, universe)
        return universe

    def predicate_atoms(self, predicate: Predicate) -> Tuple[GroundAtom, ...]:
        return self._store.predicate_atoms(predicate)

    def completion_axioms(self) -> Tuple[CompletionAxiom, ...]:
        predicates = set(self._store.predicates())
        predicates.update(p for p in self.language.predicates())
        if self._schema is not None:
            predicates.update(r.predicate for r in self._schema.relations())
            predicates.update(a.predicate for a in self._schema.attributes())
        return derive_completion_axioms(
            sorted(predicates), self._store.predicate_atoms
        )

    def type_axioms(self) -> Tuple[TypeAxiom, ...]:
        if self._schema is None:
            return ()
        return derive_type_axioms(self._schema)

    def size(self) -> int:
        """Total nodes in the non-axiomatic section (the growth measure)."""
        return self._store.size()

    def max_predicate_population(self) -> int:
        """The paper's R."""
        return self._store.max_predicate_population()

    def statistics(self) -> Dict[str, int]:
        """Health metrics: sizes an operator (or the E9 bench) watches.

        Keys: ``wffs``, ``nodes``, ``ground_atoms``, ``predicate_constants``,
        ``max_predicate_population`` (the paper's R), ``predicates``,
        ``constants``, ``dependencies``.
        """
        return {
            "wffs": len(self._store),
            "nodes": self._store.size(),
            "ground_atoms": len(self._store.ground_atoms()),
            "predicate_constants": len(self._store.predicate_constants()),
            "max_predicate_population": self._store.max_predicate_population(),
            "predicates": len(self.language.predicates()),
            "constants": len(self.language.constants()),
            "dependencies": len(self._dependencies),
        }

    def tseitin_statistics(self) -> Dict[str, int]:
        """Per-wff clause-cache traffic in :meth:`clauses` (``cache_hits``,
        ``cache_misses``; namespaced under ``tseitin``).  The SAT work
        counters are ``sat_stats.as_dict()``.  Both are cumulative; see
        :meth:`reset_solver_statistics`."""
        return {
            "cache_hits": self._clause_cache_hits,
            "cache_misses": self._clause_cache_misses,
        }

    def reset_solver_statistics(self) -> None:
        self.sat_stats.reset()
        self._clause_cache_hits = 0
        self._clause_cache_misses = 0

    # -- reasoning ----------------------------------------------------------------------

    def clauses(self) -> List[Clause]:
        """CNF of the non-axiomatic section (Tseitin; selectors invisible).

        Every ground atom of the universe is registered via a tautological
        clause: an atom may occur in the section only in positions that fold
        away (e.g. ``T -> f | T``), yet being represented in the completion
        axioms it is *unconstrained*, not false — the solver must see it.

        The encoding is cached **per stored wff**, keyed on the wff's
        ``(store_id, version)`` identity: an update re-encodes only the
        wffs GUA actually touched (added, or rewrote via a Step 2 rename),
        not the whole non-axiomatic section.  Selector prefixes embed the
        store id, so cached encodings from different wffs never collide.
        A fresh list is returned each call (callers append their query
        clauses to it).
        """
        cache = self._wff_clause_cache
        result: List[Clause] = []
        live: set = set()
        for stored in self._store.wffs():
            key = stored.store_id
            live.add(key)
            entry = cache.get(key)
            if entry is not None and entry[0] == stored.version:
                self._clause_cache_hits += 1
                result.extend(entry[1])
                continue
            self._clause_cache_misses += 1
            encoded = tseitin(stored.to_formula(), prefix=f"@ts{key}_")
            cache[key] = (stored.version, encoded.clauses)
            result.extend(encoded.clauses)
        # Drop entries for wffs that have left the store (removal,
        # simplification's replace_all) once they outnumber the live ones.
        if len(cache) > 2 * len(live) + 16:
            for key in [k for k in cache if k not in live]:
                del cache[key]
        for atom in self.atom_universe():
            result.append(frozenset(((atom, True), (atom, False))))
        return result

    def is_consistent(self) -> bool:
        """Does the theory have at least one model?"""
        with span("theory.consistency"):
            solver = Solver(self.clauses(), stats=self.sat_stats)
            return solver.solve(use_pure_literals=True) is not None

    def alternative_worlds(
        self, *, limit: Optional[int] = None
    ) -> Iterator[AlternativeWorld]:
        """Enumerate the theory's alternative worlds (distinct projections
        of models onto the ground-atom universe)."""
        universe = self.atom_universe()
        for projection in iter_projected_models(
            self.clauses(), universe, limit=limit, stats=self.sat_stats
        ):
            yield AlternativeWorld(
                atom for atom in universe if projection.get(atom, False)
            )

    def world_set(self) -> FrozenSet[AlternativeWorld]:
        with span("theory.enumerate_worlds") as sp:
            worlds = frozenset(self.alternative_worlds())
            if sp:
                sp.attrs["worlds"] = len(worlds)
            return worlds

    def world_count(self, *, cap: Optional[int] = None) -> int:
        with span("theory.enumerate_worlds") as sp:
            count = 0
            for _ in self.alternative_worlds(limit=cap):
                count += 1
            if sp:
                sp.attrs["worlds"] = count
            return count

    def satisfies_axiom_invariant(self) -> bool:
        """Check the Section 3.5 restriction: removing type and dependency
        axioms must not change the models.

        Type and dependency axioms only constrain ground atoms (they contain
        no predicate constants), so the check reduces to: every alternative
        world of the bare non-axiomatic section satisfies every derived type
        axiom and every dependency axiom.
        """
        type_axioms = self.type_axioms()
        for world in self.alternative_worlds():
            for axiom in type_axioms:
                if not axiom.holds_in_world(world.true_atoms):
                    return False
            for dependency in self._dependencies:
                if not dependency.holds_in_world(world.true_atoms):
                    return False
        return True

    # -- lifecycle -----------------------------------------------------------------------

    def copy(self) -> "ExtendedRelationalTheory":
        clone = ExtendedRelationalTheory(
            language=self.language.copy(),
            schema=self._schema,
            dependencies=self._dependencies,
        )
        for formula in self._store.formulas():
            clone.add_formula(formula)
        return clone

    def fresh_predicate_constant(self) -> PredicateConstant:
        """A predicate constant not previously appearing in the theory."""
        while True:
            candidate = self.language.fresh_predicate_constant()
            if not self._store.contains_atom(candidate):
                return candidate

    def pretty(self) -> str:
        """Multi-line rendering: derived axioms plus the stored section."""
        lines: List[str] = []
        axioms = [a for a in self.completion_axioms() if a.disjuncts]
        if axioms:
            lines.append("-- completion axioms (derived) --")
            lines.extend(axiom.render() for axiom in axioms)
        type_axioms = self.type_axioms()
        if type_axioms:
            lines.append("-- type axioms (derived) --")
            lines.extend(axiom.render() for axiom in type_axioms)
        if self._dependencies:
            lines.append("-- dependency axioms --")
            lines.extend(repr(d) for d in self._dependencies)
        lines.append("-- non-axiomatic section --")
        lines.extend(str(f) for f in self._store.formulas())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExtendedRelationalTheory({len(self._store)} wffs, "
            f"{len(self.atom_universe())} atoms)"
        )
