"""An incremental DPLL SAT solver over the library's clause form.

Extended relational theories can have exponentially many alternative worlds,
and consistency / entailment questions about them reduce to SAT over the
ground atoms.  This solver is a clean, dependency-free DPLL with:

* unit propagation via **two-watched-literal** lists — assigning a variable
  touches only the clauses currently watching its falsified literal, and
  backtracking needs no watch restoration (the classic Chaff invariant),
* the pure-literal rule (optional; off during model enumeration, where fixing
  pure literals would hide models),
* a static most-occurrences branching heuristic (deterministic runs),
* an assumption interface used by the entailment procedures,
* iterative (non-recursive) search with an explicit trail, so deep theories
  cannot blow the Python stack, and
* **incremental clause addition** via :meth:`Solver.add_clause`: the model
  enumerators reuse one solver across blocking clauses instead of paying
  atom interning and watch-list construction once per model.

Atoms are interned to dense integer variables internally; the public API
speaks atoms and :class:`~repro.logic.valuation.Valuation`.  Work counters
(decisions, propagations, conflicts) accumulate in a :class:`SolverStats`
that callers may share across solvers — the theory layer threads one through
every reasoning service, and ``Database.metrics_snapshot()`` reports them under
``sat.*``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.cnf import Clause, Literal
from repro.logic.terms import AtomLike
from repro.logic.valuation import Valuation
from repro.obs.spans import span

_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1


class SolverStats:
    """Shared work counters for one or more :class:`Solver` instances.

    The counters are cumulative; :meth:`reset` zeroes them.  One stats
    object may be handed to many solvers (the theory layer does exactly
    that), so the totals describe a whole reasoning session.
    """

    __slots__ = (
        "decisions",
        "propagations",
        "conflicts",
        "solve_calls",
        "clauses_added",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.solve_calls = 0
        self.clauses_added = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain keys; the metrics registry namespaces them under ``sat``."""
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "solve_calls": self.solve_calls,
            "clauses_added": self.clauses_added,
        }

    def __repr__(self) -> str:
        return (
            f"SolverStats(decisions={self.decisions}, "
            f"propagations={self.propagations}, conflicts={self.conflicts}, "
            f"solve_calls={self.solve_calls}, clauses_added={self.clauses_added})"
        )


def _lit_var(lit: int) -> int:
    return lit >> 1


def _lit_sign(lit: int) -> int:
    return lit & 1


class Solver:
    """Incremental DPLL solver; reusable across solve() and add_clause() calls.

    Literal encoding: ``var << 1 | polarity`` with polarity 1 = positive.
    Clauses of length >= 2 keep their two watched literals in positions 0
    and 1 of their literal list; ``self._watches[lit]`` holds the indexes of
    clauses currently watching ``lit``.
    """

    def __init__(
        self,
        clauses: Iterable[Clause] = (),
        *,
        stats: Optional[SolverStats] = None,
    ):
        self.stats = stats if stats is not None else SolverStats()
        self._atom_of: List[AtomLike] = []
        self._var_of: Dict[AtomLike, int] = {}
        self._clauses: List[List[int]] = []
        self._watches: List[List[int]] = []
        self._lit_counts: List[int] = []
        self._units: List[int] = []
        self._contains_empty = False
        self._branch_order: Optional[List[int]] = None
        for c in clauses:
            self.add_clause(c)

    @property
    def atoms(self) -> Tuple[AtomLike, ...]:
        return tuple(self._atom_of)

    @property
    def num_clauses(self) -> int:
        return len(self._clauses) + len(self._units) + int(self._contains_empty)

    def add_clause(self, clause_: Clause) -> None:
        """Conjoin one more clause; cheap, and valid between solve() calls.

        New atoms are interned on the fly.  This is the incremental
        interface the model enumerators use for blocking clauses.
        """
        self.stats.clauses_added += 1
        self._branch_order = None  # literal counts change; recompute lazily
        encoded_set = set()
        # Deterministic interning order: stable runs, reproducible models.
        for atom_, polarity in sorted(clause_, key=lambda lv: (str(lv[0]), lv[1])):
            var = self._var_of.get(atom_)
            if var is None:
                var = len(self._atom_of)
                self._var_of[atom_] = var
                self._atom_of.append(atom_)
                self._watches.append([])
                self._watches.append([])
                self._lit_counts.append(0)
                self._lit_counts.append(0)
            encoded_set.add(var << 1 | (1 if polarity else 0))
        if not encoded_set:
            self._contains_empty = True
            return
        encoded = sorted(encoded_set)
        for lit in encoded:
            self._lit_counts[lit] += 1
        if len(encoded) == 1:
            self._units.append(encoded[0])
            return
        index = len(self._clauses)
        self._clauses.append(encoded)
        self._watches[encoded[0]].append(index)
        self._watches[encoded[1]].append(index)

    def solve(
        self,
        assumptions: Sequence[Literal] = (),
        *,
        use_pure_literals: bool = True,
    ) -> Optional[Valuation]:
        """Find a model extending *assumptions*, or None if unsatisfiable.

        The returned valuation is total over the atoms of the clause set
        (unconstrained atoms default to False, the closed-world-friendly
        choice that also makes runs deterministic).  Conflicting assumptions
        are rejected up front — including over atoms absent from the clause
        set, which never reach the search at all.
        """
        sp = span("sat.solve")
        if not sp:
            return self._solve(assumptions, use_pure_literals)
        stats = self.stats
        d0, p0, c0 = stats.decisions, stats.propagations, stats.conflicts
        with sp:
            model = self._solve(assumptions, use_pure_literals)
            sp.attrs.update(
                vars=len(self._atom_of),
                clauses=self.num_clauses,
                sat=model is not None,
                decisions=stats.decisions - d0,
                propagations=stats.propagations - p0,
                conflicts=stats.conflicts - c0,
            )
        return model

    def _solve(
        self,
        assumptions: Sequence[Literal],
        use_pure_literals: bool,
    ) -> Optional[Valuation]:
        self.stats.solve_calls += 1
        if self._contains_empty:
            return None

        # Pre-check assumptions for internal conflicts before any search.
        assumed: Dict[int, int] = {}
        absent: Dict[AtomLike, bool] = {}
        for atom_, polarity in assumptions:
            var = self._var_of.get(atom_)
            if var is None:
                previous = absent.get(atom_)
                if previous is not None and previous != bool(polarity):
                    return None
                absent[atom_] = bool(polarity)
                continue
            want = _TRUE if polarity else _FALSE
            if assumed.setdefault(var, want) != want:
                return None

        num_vars = len(self._atom_of)
        assignment = [_UNASSIGNED] * num_vars
        trail: List[int] = []
        for var, want in assumed.items():
            assignment[var] = want
            trail.append(var)

        model = self._search(assignment, trail, use_pure_literals)
        if model is None:
            return None
        mapping: Dict[AtomLike, bool] = {
            self._atom_of[v]: (model[v] == _TRUE) for v in range(num_vars)
        }
        mapping.update(absent)
        return Valuation(mapping)

    # -- core search ---------------------------------------------------------

    def _search(
        self,
        assignment: List[int],
        trail: List[int],
        use_pure_literals: bool,
    ) -> Optional[List[int]]:
        stats = self.stats
        clauses = self._clauses
        watches = self._watches

        # Seed unit clauses (length-1 clauses carry no watches).
        for lit in self._units:
            var, sign = lit >> 1, lit & 1
            value = assignment[var]
            if value == _UNASSIGNED:
                assignment[var] = sign
                trail.append(var)
            elif value != sign:
                stats.conflicts += 1
                return None

        # Decision stack: (var, first_sign, tried_second_value, trail_mark)
        decisions: List[Tuple[int, int, bool, int]] = []
        head = 0

        def propagate(head: int) -> int:
            """Unit-propagate the trail from *head*; -1 on conflict, else the
            new fixpoint position."""
            while head < len(trail):
                var = trail[head]
                head += 1
                false_lit = var << 1 | (1 - assignment[var])
                watch_list = watches[false_lit]
                i = 0
                while i < len(watch_list):
                    ci = watch_list[i]
                    cl = clauses[ci]
                    # Normalize: the falsified watch sits in position 1.
                    if cl[0] == false_lit:
                        cl[0] = cl[1]
                        cl[1] = false_lit
                    other = cl[0]
                    if assignment[other >> 1] == (other & 1):
                        i += 1  # clause already satisfied by its other watch
                        continue
                    for k in range(2, len(cl)):
                        lk = cl[k]
                        if assignment[lk >> 1] != 1 - (lk & 1):
                            # Non-false literal found: move the watch there.
                            cl[1] = lk
                            cl[k] = false_lit
                            watches[lk].append(ci)
                            last = watch_list.pop()
                            if i < len(watch_list):
                                watch_list[i] = last
                            break
                    else:
                        value = assignment[other >> 1]
                        if value == _UNASSIGNED:
                            assignment[other >> 1] = other & 1
                            trail.append(other >> 1)
                            stats.propagations += 1
                            i += 1
                        else:  # both watches false, no replacement: conflict
                            stats.conflicts += 1
                            return -1
            return head

        while True:
            head = propagate(head)
            if head == -1:
                # Backtrack to the most recent decision with an untried branch.
                while decisions:
                    var, first_sign, tried_both, mark = decisions.pop()
                    for undone in trail[mark:]:
                        assignment[undone] = _UNASSIGNED
                    del trail[mark:]
                    head = mark
                    if not tried_both:
                        assignment[var] = 1 - first_sign  # second branch
                        trail.append(var)
                        decisions.append((var, first_sign, True, mark))
                        break
                else:
                    return None
                continue

            if use_pure_literals and not decisions:
                self._assign_pure_literals(assignment, trail)
                if head < len(trail):
                    continue

            branch_lit = self._pick_branch(assignment)
            if branch_lit is None:
                # Every literal occurring in a clause is assigned and
                # propagation found no conflict: all clauses satisfied.
                # Fill unconstrained vars with False.
                return [v if v != _UNASSIGNED else _FALSE for v in assignment]
            stats.decisions += 1
            var = branch_lit >> 1
            sign = branch_lit & 1
            mark = len(trail)
            assignment[var] = sign
            trail.append(var)
            decisions.append((var, sign, False, mark))

    # -- heuristics ----------------------------------------------------------

    def _pick_branch(self, assignment: List[int]) -> Optional[int]:
        """First unassigned literal in static (count desc, lit asc) order."""
        order = self._branch_order
        if order is None:
            counts = self._lit_counts
            order = sorted(
                (lit for lit in range(len(counts)) if counts[lit]),
                key=lambda lit: (-counts[lit], lit),
            )
            self._branch_order = order
        for lit in order:
            if assignment[lit >> 1] == _UNASSIGNED:
                return lit
        return None

    def _assign_pure_literals(
        self, assignment: List[int], trail: List[int]
    ) -> None:
        """Assign literals whose complement never occurs in an unsatisfied
        clause (sound for satisfiability; hides models, so enumeration
        disables it).  Top-of-search only — one full scan."""
        counts: Dict[int, int] = {}
        for encoded in self._clauses:
            unassigned: List[int] = []
            satisfied = False
            for lit in encoded:
                value = assignment[lit >> 1]
                if value == _UNASSIGNED:
                    unassigned.append(lit)
                elif value == (lit & 1):
                    satisfied = True
                    break
            if satisfied:
                continue
            for lit in unassigned:
                counts[lit] = counts.get(lit, 0) + 1
        for lit in counts:
            var, sign = lit >> 1, lit & 1
            if assignment[var] == _UNASSIGNED and (lit ^ 1) not in counts:
                assignment[var] = sign
                trail.append(var)


def solve(clauses: Iterable[Clause], assumptions: Sequence[Literal] = ()) -> Optional[Valuation]:
    """One-shot convenience wrapper around :class:`Solver`."""
    return Solver(clauses).solve(assumptions)


def is_satisfiable(clauses: Iterable[Clause]) -> bool:
    return solve(clauses) is not None
