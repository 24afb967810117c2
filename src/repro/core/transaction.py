"""Update logs, savepoints, and replay.

Section 4 contrasts the GUA approach with "simply keeping a record of past
updates and recomputing the state of the theory on each new query".  This
module provides that record as first-class machinery: every update applied
through the :class:`~repro.core.engine.Database` façade is journaled (by the
pipeline's journal stage), the journal can be replayed onto a fresh copy of
the base theory (the paper's strawman, used as a baseline in tests), and
savepoints give cheap rollback.

A journal entry records the update object that executed: a ground update or
a :class:`~repro.ldml.simultaneous.SimultaneousInsert` (the normalized form
of an open update).  ``entry.kind`` names which, derived from the object
itself; execution dispatches on the object in exactly one place,
:meth:`~repro.core.gua.GuaExecutor.apply` (or
:meth:`~repro.core.naive.NaiveWorldStore.apply` for explicit worlds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.gua import GuaExecutor
from repro.core.simplification import simplify_theory
from repro.errors import UpdateError
from repro.ldml.ast import GroundUpdate
from repro.ldml.simultaneous import SimultaneousInsert
from repro.theory.theory import ExtendedRelationalTheory, TheorySnapshot

#: What the journal may hold: a ground update, or the simultaneous set an
#: open update normalized to.
JournaledUpdate = Union[GroundUpdate, SimultaneousInsert]

#: ``LogEntry.kind`` values.
KIND_GROUND = "ground"
KIND_SIMULTANEOUS = "simultaneous"


def kind_of(update: JournaledUpdate) -> str:
    """The structural journal kind of an update object."""
    return (
        KIND_SIMULTANEOUS
        if isinstance(update, SimultaneousInsert)
        else KIND_GROUND
    )


@dataclass(frozen=True)
class LogEntry:
    """One journaled update."""

    sequence: int
    update: JournaledUpdate

    @property
    def kind(self) -> str:
        return kind_of(self.update)


class UpdateLog:
    """Append-only journal of applied updates."""

    def __init__(self):
        self._entries: List[LogEntry] = []

    def record(self, update: JournaledUpdate) -> LogEntry:
        entry = LogEntry(sequence=len(self._entries), update=update)
        self._entries.append(entry)
        return entry

    def entries(self) -> Sequence[LogEntry]:
        return tuple(self._entries)

    def updates(self) -> List[JournaledUpdate]:
        return [entry.update for entry in self._entries]

    def truncate(self, length: int) -> None:
        if not 0 <= length <= len(self._entries):
            raise UpdateError(f"cannot truncate log of {len(self._entries)} to {length}")
        del self._entries[length:]

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"UpdateLog({len(self._entries)} entries)"


@dataclass
class Savepoint:
    """A named rollback point: log position + a theory snapshot.

    The snapshot is the public :meth:`ExtendedRelationalTheory.snapshot`
    capture (section + axiom-instance registry), not a full theory copy —
    restoring it rewinds the live theory in place.
    """

    name: str
    log_length: int
    theory_snapshot: TheorySnapshot


class TransactionManager:
    """Savepoints and replay over a theory + log pair.

    Rollback hands back the snapshot to restore and truncates the journal;
    :meth:`replay` rebuilds state from the base theory through the log (the
    Section 4 strawman — every query pays the whole history), which tests
    use to confirm the journal and the live theory agree.
    """

    def __init__(self, base_theory: ExtendedRelationalTheory):
        self._base = base_theory.copy()
        self.log = UpdateLog()
        self._savepoints: Dict[str, Savepoint] = {}

    @property
    def base_theory(self) -> ExtendedRelationalTheory:
        return self._base

    def savepoint(
        self, name: str, theory: ExtendedRelationalTheory
    ) -> Savepoint:
        point = Savepoint(
            name=name,
            log_length=len(self.log),
            theory_snapshot=theory.snapshot(),
        )
        self._savepoints[name] = point
        return point

    def savepoint_names(self) -> Tuple[str, ...]:
        return tuple(self._savepoints)

    def rollback(self, name: str) -> TheorySnapshot:
        try:
            point = self._savepoints[name]
        except KeyError:
            raise UpdateError(f"no savepoint named {name!r}") from None
        self.log.truncate(point.log_length)
        # Savepoints created after this one are now unreachable.
        self._savepoints = {
            n: p
            for n, p in self._savepoints.items()
            if p.log_length <= point.log_length
        }
        return point.theory_snapshot

    def replay(self, *, upto: Optional[int] = None) -> ExtendedRelationalTheory:
        """Rebuild the theory by re-running the journal (its first *upto*
        entries, when given) from the base; see :func:`replay_updates`."""
        return replay_updates(self._base, self.log.updates()[:upto])


def replay_updates(
    base: ExtendedRelationalTheory,
    updates: Iterable[JournaledUpdate],
    *,
    simplify_every: Optional[int] = None,
) -> ExtendedRelationalTheory:
    """A copy of *base* with *updates* re-run through one GUA executor.

    :meth:`~repro.core.gua.GuaExecutor.apply` runs ground updates and
    simultaneous sets alike, exactly as live execution did, so the replayed
    world set matches.  Journaled updates are already attribute-tagged;
    replay must not (and does not) tag again.  With *simplify_every*, the
    Section 4 simplifier runs after every that many updates.
    """
    theory = base.copy()
    executor = GuaExecutor(theory)
    for index, update in enumerate(updates, start=1):
        executor.apply(update)
        if simplify_every and index % simplify_every == 0:
            simplify_theory(theory)
    return theory
