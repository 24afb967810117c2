"""The Section 4 strawman as a first-class backend: a log-structured store.

"It is in large part the possibility of heuristic simplification that makes
the LDML algorithms more attractive than simply keeping a record of past
updates and recomputing the state of the theory on each new query."

:class:`LogStructuredStore` is that alternative, implemented honestly so
the comparison is fair:

* an update is an O(1) append to the log — no GUA work at all;
* a query replays the log through GUA onto a copy of the base theory, then
  answers by SAT; the replayed theory is *memoized* until the next append,
  so query bursts pay the replay once;
* optional simplification during replay (every ``simplify_every`` updates)
  shows how Section 4's heuristics change the trade-off.

Experiment E12 measures both backends across update/query mixes; the shape
the paper predicts — the log store wins on write-heavy streams with rare
queries, loses as soon as queries are frequent — is asserted there.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.core.simplification import simplify_theory
from repro.core.transaction import JournaledUpdate, replay_updates
from repro.ldml.parser import parse_update
from repro.logic.syntax import Formula
from repro.query.answers import Answer, ask
from repro.theory.theory import ExtendedRelationalTheory


class LogStructuredStore:
    """Base theory + update log; state recomputed on demand."""

    def __init__(
        self,
        base: Optional[ExtendedRelationalTheory] = None,
        *,
        simplify_every: Optional[int] = None,
    ):
        self._base = (base or ExtendedRelationalTheory()).copy()
        self._log: List[JournaledUpdate] = []
        self._simplify_every = simplify_every
        self._materialized: Optional[ExtendedRelationalTheory] = None
        self.replays = 0  #: how many times the log has been replayed

    # -- writes: O(1) ---------------------------------------------------------

    def apply(self, update: Union[JournaledUpdate, str]) -> "LogStructuredStore":
        """Append to the log; invalidates the memoized state.

        Accepts ground updates and :class:`SimultaneousInsert` sets alike —
        replay dispatches through the same GUA executor as live execution.
        """
        if isinstance(update, str):
            update = parse_update(update)
        self._log.append(update)
        self._materialized = None
        return self

    def run_script(
        self, updates: Sequence[Union[JournaledUpdate, str]]
    ) -> "LogStructuredStore":
        for update in updates:
            self.apply(update)
        return self

    def __len__(self) -> int:
        return len(self._log)

    # -- reads: replay then SAT ---------------------------------------------------

    def materialize(self) -> ExtendedRelationalTheory:
        """The current theory: base replayed through the whole log.

        Memoized until the next append.
        """
        if self._materialized is None:
            self._materialized = replay_updates(
                self._base, self._log, simplify_every=self._simplify_every
            )
            self.replays += 1
        return self._materialized

    def ask(self, query: Union[Formula, str]) -> Answer:
        return ask(self.materialize(), query)

    def is_certain(self, query: Union[Formula, str]) -> bool:
        return self.ask(query).certain

    def is_possible(self, query: Union[Formula, str]) -> bool:
        return self.ask(query).possible

    def world_set(self):
        return self.materialize().world_set()

    # -- maintenance ------------------------------------------------------------------

    def compact(self) -> None:
        """Fold the log into the base (checkpoint): future replays start
        from the materialized state."""
        self._base = self.materialize().copy()
        simplify_theory(self._base)
        self._log.clear()
        self._materialized = None

    def pending(self) -> int:
        """Log entries appended since the last compaction."""
        return len(self._log)

    def statistics(self) -> Dict[str, int]:
        """Store-level counters (cheap: never forces a replay); plain keys,
        namespaced under ``log`` by the metrics registry."""
        return {
            "pending": len(self._log),
            "replays": self.replays,
            "materialized": int(self._materialized is not None),
        }

    def __repr__(self) -> str:
        return (
            f"LogStructuredStore({len(self._log)} pending updates, "
            f"{self.replays} replays)"
        )
