"""Simultaneous ground updates — the Section 4 reduction target.

"Updates with variables can be reduced to the problem of performing a set
of ground updates simultaneously" (Section 4).  This module defines that
set-of-updates object and its model-level semantics.  It is executed
syntactically by :meth:`repro.core.gua.GuaExecutor.apply`, the one
implementation of GUA's Steps 1-7: a ground INSERT ``w WHERE phi`` runs as
the one-pair set ``{(phi, w)}``, a simultaneous set as its own pairs.

Semantics (the natural generalization of INSERT's S-sets): given pairs
``(phi_1, w_1), ..., (phi_k, w_k)`` and a model M, let A be the set of
indices whose clause holds in M.  Then S contains every model that

1. agrees with M on all ground atoms outside ``union_{i in A} atoms(w_i)``;
2. satisfies every ``w_i`` with ``i in A``.

With A empty, S = {M}.  If the active bodies are jointly unsatisfiable the
world is annihilated (exactly as a single INSERT F would).  Note this is
*not* sequential composition: a clause ``phi_j`` is evaluated against the
original world even if an earlier pair writes its atoms.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import UpdateError
from repro.ldml.ast import GroundUpdate, Insert, _as_formula
from repro.ldml.semantics import _world_is_legal
from repro.logic.dnf import satisfying_valuations
from repro.logic.syntax import Formula, conjoin
from repro.logic.terms import GroundAtom
from repro.theory.dependencies import TemplateDependency
from repro.theory.schema import DatabaseSchema
from repro.theory.worlds import AlternativeWorld


class SimultaneousInsert:
    """A set of (clause, body) pairs applied as one atomic update."""

    __slots__ = ("pairs",)

    def __init__(
        self,
        pairs: Iterable[Union[Tuple[Union[Formula, str], Union[Formula, str]], GroundUpdate]],
    ):
        normalized: List[Tuple[Formula, Formula]] = []
        for entry in pairs:
            if isinstance(entry, GroundUpdate):
                insert = entry.to_insert()
                normalized.append((insert.where, insert.body))
            else:
                where, body = entry
                normalized.append(
                    (
                        _as_formula(where, "selection clause"),
                        _as_formula(body, "INSERT body w"),
                    )
                )
        if not normalized:
            raise UpdateError("a simultaneous update needs at least one pair")
        object.__setattr__(self, "pairs", tuple(normalized))

    def __setattr__(self, key, value):
        raise AttributeError("SimultaneousInsert is immutable")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def written_atoms(self) -> FrozenSet[GroundAtom]:
        result: set = set()
        for _, body in self.pairs:
            result.update(body.ground_atoms())
        return frozenset(result)

    def read_atoms(self) -> FrozenSet[GroundAtom]:
        result: set = set()
        for where, _ in self.pairs:
            result.update(where.ground_atoms())
        return frozenset(result)

    def atoms(self) -> FrozenSet[GroundAtom]:
        return self.written_atoms() | self.read_atoms()

    def __eq__(self, other) -> bool:
        return isinstance(other, SimultaneousInsert) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(("SimultaneousInsert", self.pairs))

    def __repr__(self) -> str:
        body = "; ".join(
            f"INSERT {body} WHERE {where}" for where, body in self.pairs
        )
        return f"SIMULTANEOUS[{body}]"


def apply_simultaneous_to_world(
    update: SimultaneousInsert,
    world: AlternativeWorld,
    *,
    schema: Optional[DatabaseSchema] = None,
    dependencies: Sequence[TemplateDependency] = (),
) -> FrozenSet[AlternativeWorld]:
    """The S-set of a simultaneous update on one world (the oracle)."""
    active_bodies = [
        body for where, body in update.pairs if world.satisfies(where)
    ]
    if not active_bodies:
        return frozenset({world})
    joint_body = conjoin(active_bodies)
    produced = set()
    for valuation in satisfying_valuations(joint_body):
        assignment = {
            atom: value
            for atom, value in valuation.items()
            if isinstance(atom, GroundAtom)
        }
        candidate = world.updated(assignment)
        if _world_is_legal(candidate, schema, dependencies):
            produced.add(candidate)
    return frozenset(produced)


def update_worlds_simultaneously(
    worlds: Iterable[AlternativeWorld],
    update: SimultaneousInsert,
    *,
    schema: Optional[DatabaseSchema] = None,
    dependencies: Sequence[TemplateDependency] = (),
) -> FrozenSet[AlternativeWorld]:
    """Union of per-world S-sets for a simultaneous update."""
    result = set()
    for world in worlds:
        result.update(
            apply_simultaneous_to_world(
                update, world, schema=schema, dependencies=dependencies
            )
        )
    return frozenset(result)


def differs_from_sequential(
    update: SimultaneousInsert, world: AlternativeWorld
) -> bool:
    """Does simultaneous application differ from left-to-right sequencing
    on this world?  (Diagnostic used by tests and the bulk-update example:
    the two coincide unless a later clause reads an atom an earlier body
    writes.)"""
    from repro.ldml.semantics import apply_to_world

    sequential: FrozenSet[AlternativeWorld] = frozenset({world})
    for where, body in update.pairs:
        step = Insert(body, where)
        next_worlds = set()
        for current in sequential:
            next_worlds.update(apply_to_world(step, current))
        sequential = frozenset(next_worlds)
    return sequential != apply_simultaneous_to_world(update, world)
