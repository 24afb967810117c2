"""The process-wide hash-consing arena for terms and formulas.

Every term (:mod:`repro.logic.terms`) and formula node
(:mod:`repro.logic.syntax`) is *interned*: construction first looks the
node up in a weak-value table keyed by its structural identity, and only
allocates when no live structurally-identical node exists.  Consequences:

* structurally identical values are the **same object**, so ``__eq__`` is
  identity and ``__hash__`` is a precomputed slot read — O(1) instead of a
  full tree walk;
* formulas form a DAG rather than a tree: a subformula shared by many
  parents exists once, and every derived computation (atom sets, NNF,
  constant folding, Tseitin encoding) can be memoized per shared node;
* interning is purely *syntactic*.  ``a | b`` and ``b | a`` remain distinct
  objects — LDML's syntax-sensitive update semantics (Section 3.2 of the
  paper) are untouched, because only byte-identical structure is merged.

Tables hold values weakly: a formula nobody references is collected, and
its table entry disappears with it, so the arena never pins memory.  Each
interned node carries a stable ``arena_id`` (monotonic, never reused while
the process lives) that upper layers use as a cache key — e.g. the GUA
axiom-instance registry keys on ``instance.arena_id``.

The module-level :data:`ARENA` instance is process-global; its counters
appear under ``arena.*`` in every ``Database.metrics_snapshot()``.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict


class FormulaArena:
    """Intern tables plus the observability counters around them.

    One weak-value table per node kind ("Constant", "And", ...).  The
    arena does not know how to *build* nodes — the term and formula
    classes drive it from their ``__new__`` — it only owns the tables,
    the id supply, and the hit/miss bookkeeping.
    """

    __slots__ = ("_tables", "_ids", "hits", "misses", "_memo_hits",
                 "_memo_misses")

    def __init__(self) -> None:
        self._tables: Dict[str, weakref.WeakValueDictionary] = {}
        self._ids = itertools.count(1)
        #: Lookups that found a live structurally-identical node.
        self.hits = 0
        #: Lookups that had to allocate a new node.
        self.misses = 0
        # Per-pass DAG-memo traffic (e.g. "elim", "nnf", "fold"), recorded
        # by the transform layer so .metrics can show how much sharing the
        # memoized passes actually exploit.
        self._memo_hits: Dict[str, int] = {}
        self._memo_misses: Dict[str, int] = {}

    # -- interning ----------------------------------------------------------

    def table(self, kind: str) -> weakref.WeakValueDictionary:
        """The intern table for one node kind (created on first use)."""
        table = self._tables.get(kind)
        if table is None:
            table = self._tables[kind] = weakref.WeakValueDictionary()
        return table

    def next_id(self) -> int:
        """A fresh, never-reused node id."""
        return next(self._ids)

    # -- memo accounting ----------------------------------------------------

    def count_memo(self, pass_name: str, hit: bool) -> None:
        """Record one DAG-memo lookup of a transform pass."""
        bucket = self._memo_hits if hit else self._memo_misses
        bucket[pass_name] = bucket.get(pass_name, 0) + 1

    # -- observability ------------------------------------------------------

    def live_nodes(self) -> int:
        """Interned nodes currently alive (weak tables prune themselves)."""
        return sum(len(table) for table in self._tables.values())

    def hit_rate(self) -> float:
        """Fraction of constructions that reused a live node."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def statistics(self) -> Dict[str, float]:
        """Plain keys; the metrics registry namespaces them under ``arena``.

        Keys: ``interned_nodes`` (live), ``intern_hits`` / ``intern_misses``
        (cumulative), ``hit_rate``, and one ``memo_<pass>_hits``/``_misses``
        pair per transform pass that has run.
        """
        stats: Dict[str, float] = {
            "interned_nodes": self.live_nodes(),
            "intern_hits": self.hits,
            "intern_misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
        }
        for name, count in sorted(self._memo_hits.items()):
            stats[f"memo_{name}_hits"] = count
        for name, count in sorted(self._memo_misses.items()):
            stats[f"memo_{name}_misses"] = count
        return stats

    def __repr__(self) -> str:
        return (
            f"FormulaArena({self.live_nodes()} live nodes, "
            f"{self.hits} hits / {self.misses} misses)"
        )


#: The process-wide arena every term and formula constructor goes through.
ARENA = FormulaArena()
