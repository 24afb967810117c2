"""Theory-level simplification (Section 4).

"Extended relational theories grow steadily longer under the update
algorithms ... A heuristic algorithm for simplification will be a vital part
of any implementation of these algorithms, and is at the core of the
implementation coded by the author."

The theory-level simplifier composes four world-set-preserving moves:

1. **Per-wff minimization** with the formula simplifier
   (:func:`repro.logic.simplify.simplify`).
2. **Unit propagation across wffs**: a unit literal wff conditions every
   other wff.
3. **Predicate-constant elimination**: a predicate constant is invisible in
   alternative worlds, so it may be existentially projected out.  If ``p``
   occurs in wffs ``F1..Fk`` only, they can be replaced by the Shannon
   expansion ``(F1&..&Fk)[p:=T] | (F1&..&Fk)[p:=F]``; the simplifier
   accepts the trade only when it shrinks the section (bounded fan-in keeps
   it from exploding).
4. **Universe preservation**: alternative worlds are valuations over the
   atoms *represented in the completion axioms*, so simplification must not
   silently drop a ground atom from the theory — two sections with equal
   logical content but different atom universes have different world sets
   (e.g. ``{f | !f}`` has two worlds, ``{}`` has one).  Any visible ground
   atom the rewrite dropped is re-added via the tautology ``f | !f``.

The net effect is measured by experiment E9: section size stays bounded
under long update streams with simplification on, and grows linearly (per
Section 3.6, O(g) per update) with it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.logic.simplify import simplify as simplify_formula, total_size
from repro.logic.syntax import (
    FALSE,
    TRUE,
    Atom,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
    conjoin,
)
from repro.logic.terms import AtomLike, GroundAtom, PredicateConstant
from repro.logic.transform import condition, is_literal, literal_of
from repro.theory.theory import ExtendedRelationalTheory

#: Predicate-constant elimination is attempted only when the constant
#: occurs in at most this many wffs (keeps Shannon expansion bounded).
_ELIMINATION_FANIN = 4


@dataclass
class SimplificationReport:
    """What one simplification pass accomplished."""

    size_before: int
    size_after: int
    wffs_before: int
    wffs_after: int
    units_propagated: int = 0
    constants_eliminated: int = 0

    @property
    def shrink_ratio(self) -> float:
        if self.size_before == 0:
            return 1.0
        return self.size_after / self.size_before


def simplify_theory(
    theory: ExtendedRelationalTheory,
    *,
    eliminate_constants: bool = True,
    max_rounds: int = 8,
) -> SimplificationReport:
    """Simplify the theory's non-axiomatic section in place.

    World-set preserving: per-wff rewrites preserve logical equivalence of
    the section, predicate-constant elimination preserves the projection
    onto ground atoms, and the final universe-preservation step keeps the
    completion axioms' disjunct sets intact.
    """
    wffs_before = len(theory.stored_wffs())
    original_universe = theory.atom_universe()

    formulas = list(theory.formulas())
    # Sizes are read off the materialized formulas (cached per node), not
    # by walking the store.
    size_before = total_size(formulas)
    units_propagated = 0
    constants_eliminated = 0

    for _ in range(max_rounds):
        changed = False

        # 1. per-wff minimization + drop tautologies / collapse on F
        minimized: List[Formula] = []
        for formula in formulas:
            reduced = simplify_formula(formula)
            if isinstance(reduced, Top):
                changed = True
                continue
            if isinstance(reduced, Bottom):
                minimized = [FALSE]
                changed = True
                break
            if reduced != formula:
                changed = True
            minimized.append(reduced)
        formulas = minimized
        if formulas == [FALSE]:
            break

        # 2. unit propagation across wffs
        units = _collect_units(formulas)
        if units:
            propagated: List[Formula] = []
            for formula in formulas:
                if is_literal(formula):
                    propagated.append(formula)
                    continue
                conditioned = condition(formula, units)
                if conditioned != formula:
                    changed = True
                    units_propagated += 1
                if isinstance(conditioned, Top):
                    continue
                propagated.append(conditioned)
            formulas = propagated

        # Deduplicate identical wffs.
        deduped: List[Formula] = []
        seen: Set[Formula] = set()
        for formula in formulas:
            if formula in seen:
                changed = True
                continue
            seen.add(formula)
            deduped.append(formula)
        formulas = deduped

        # 3. predicate-constant elimination
        if eliminate_constants:
            formulas, eliminated = _eliminate_constants(formulas)
            if eliminated:
                constants_eliminated += eliminated
                changed = True

        if not changed:
            break

    # 4. universe preservation
    remaining_atoms: Set[GroundAtom] = set()
    for formula in formulas:
        remaining_atoms.update(formula.ground_atoms())
    for atom in sorted(original_universe - remaining_atoms):
        leaf = Atom(atom)
        formulas.append(Or((leaf, Not(leaf))))

    theory.replace_formulas(formulas)
    return SimplificationReport(
        size_before=size_before,
        size_after=total_size(formulas),
        wffs_before=wffs_before,
        wffs_after=len(theory.stored_wffs()),
        units_propagated=units_propagated,
        constants_eliminated=constants_eliminated,
    )


def _collect_units(formulas: List[Formula]) -> Dict[AtomLike, bool]:
    """Literal wffs give forced values (conflicts collapse to F upstream)."""
    units: Dict[AtomLike, bool] = {}
    for formula in formulas:
        if is_literal(formula):
            atom, polarity = literal_of(formula)
            if atom in units and units[atom] != polarity:
                return {}  # contradictory units: leave for the F-collapse
            units[atom] = polarity
    return units


def _eliminate_constants(
    formulas: List[Formula],
) -> Tuple[List[Formula], int]:
    """Project out low-fan-in predicate constants by Shannon expansion.

    Sound because predicate constants are invisible in alternative worlds:
    the world set is the projection of the models onto ground atoms, and
    ``exists p . (F1 & .. & Fk)`` over exactly the wffs containing ``p``
    equals ``(F1&..&Fk)[p:=T] | (F1&..&Fk)[p:=F]``.
    """
    eliminated = 0
    current = list(formulas)
    progress = True
    while progress:
        progress = False
        occurrences: Dict[PredicateConstant, List[int]] = {}
        for index, formula in enumerate(current):
            for pc in formula.predicate_constants():
                occurrences.setdefault(pc, []).append(index)
        for pc, indexes in sorted(occurrences.items(), key=lambda kv: str(kv[0])):
            if len(indexes) > _ELIMINATION_FANIN:
                continue
            group = conjoin([current[i] for i in indexes])
            expansion = simplify_formula(
                Or((condition(group, {pc: True}), condition(group, {pc: False})))
            )
            old_size = sum(current[i].size() for i in indexes)
            if expansion.size() > old_size:
                continue
            keep = [f for i, f in enumerate(current) if i not in set(indexes)]
            if not isinstance(expansion, Top):
                keep.append(expansion)
            current = keep
            eliminated += 1
            progress = True
            break
    return current, eliminated


class AutoSimplifier:
    """Policy object: simplify every *interval* updates (engine hook)."""

    def __init__(self, interval: int = 8, **options):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = interval
        self.options = options
        self._since_last = 0
        self.reports: List[SimplificationReport] = []

    def mark(self) -> Tuple[int, int]:
        """Opaque state capture (counter phase, reports seen) for rollback."""
        return (self._since_last, len(self.reports))

    def restore(self, mark: Tuple[int, int]) -> None:
        """Restore a :meth:`mark`: reset the update counter and drop reports
        produced after it, so a rollback rewinds the simplify cadence too."""
        since_last, report_count = mark
        self._since_last = since_last
        del self.reports[report_count:]

    def after_update(
        self, theory: ExtendedRelationalTheory
    ) -> Optional[SimplificationReport]:
        self._since_last += 1
        if self._since_last < self.interval:
            return None
        self._since_last = 0
        report = simplify_theory(theory, **self.options)
        self.reports.append(report)
        return report
