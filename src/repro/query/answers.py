"""Certain and possible answers over an extended relational theory.

A ground query ``q`` against a database with incomplete information has two
natural answers (the standard notions Reiter's framework supports and that
the paper's "pooling the query results" step computes):

* ``q`` is **certain** iff it holds in *every* alternative world;
* ``q`` is **possible** iff it holds in *some* alternative world.

Both are decided by SAT over the theory's clauses — no world enumeration:

* possible(q)  <=>  section & q        is satisfiable;
* certain(q)   <=>  section & !q       is unsatisfiable.

Each question runs on the theory's persistent query solver
(:meth:`~repro.theory.theory.ExtendedRelationalTheory.solve_with`): the
section's clauses are already in it, so an ask encodes and adds only the
query's own clauses (plus whatever wffs changed since the last ask).

Queries are wffs over L' — predicate constants are invisible and rejected
(Section 2: they "may not appear in any query posed to the database").
Query atoms outside the theory's atom universe are folded to F first (the
completion axioms make them false in every model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import QueryError
from repro.logic.cnf import tseitin
from repro.logic.parser import parse
from repro.logic.syntax import Bottom, Formula, Not, Top
from repro.logic.transform import condition
from repro.obs.spans import span
from repro.theory.theory import ExtendedRelationalTheory


@dataclass(frozen=True)
class Answer:
    """Three-valued answer to a ground query."""

    certain: bool
    possible: bool

    @property
    def status(self) -> str:
        if self.certain:
            return "certain"
        if self.possible:
            return "possible"
        return "impossible"

    def __str__(self) -> str:
        return self.status


def _prepare_query(
    theory: ExtendedRelationalTheory, query: Union[Formula, str]
) -> Formula:
    if isinstance(query, str):
        query = parse(query)
    if not isinstance(query, Formula):
        raise QueryError(f"expected a query formula, got {query!r}")
    if query.predicate_constants():
        raise QueryError(
            "queries may not mention predicate constants; they are invisible "
            "in alternative worlds"
        )
    universe = theory.atom_universe()
    outside = {
        atom: False for atom in query.ground_atoms() if atom not in universe
    }
    if outside:
        query = condition(query, outside)
    return query


def is_possible(
    theory: ExtendedRelationalTheory, query: Union[Formula, str]
) -> bool:
    """Does *query* hold in at least one alternative world?"""
    prepared = _prepare_query(theory, query)
    if isinstance(prepared, Top):
        return theory.is_consistent()
    if isinstance(prepared, Bottom):
        return False
    encoded = tseitin(prepared, prefix="@q")
    return theory.solve_with(encoded.clauses) is not None


def is_certain(
    theory: ExtendedRelationalTheory, query: Union[Formula, str]
) -> bool:
    """Does *query* hold in every alternative world?

    Vacuously true for an inconsistent theory (no worlds), matching the
    logical reading ``T |= q``.
    """
    prepared = _prepare_query(theory, query)
    if isinstance(prepared, Top):
        return True
    encoded = tseitin(Not(prepared), prefix="@q")
    return theory.solve_with(encoded.clauses) is None


def ask(theory: ExtendedRelationalTheory, query: Union[Formula, str]) -> Answer:
    """Full three-valued answer (two SAT calls, short-circuited).

    Traced as a ``query.ask`` span whose ``synced``, ``retired`` and
    ``rebuilt`` attributes say what bringing the query solver in step with
    the section cost; the ``sat.solve`` spans nest under it.
    """
    with span("query.ask") as sp:
        synced, retired, rebuilt = theory.sync_query_solver()
        if sp:
            sp.attrs.update(synced=synced, retired=retired, rebuilt=rebuilt)
        certain = is_certain(theory, query)
        if certain:
            # certain implies possible unless the theory is inconsistent.
            return Answer(certain=True, possible=theory.is_consistent())
        return Answer(certain=False, possible=is_possible(theory, query))


def witness_world(
    theory: ExtendedRelationalTheory,
    query: Union[Formula, str],
    *,
    holds: bool = True,
):
    """An alternative world where *query* is true (or, with
    ``holds=False``, false) — None when no such world exists.

    This is the "explain" primitive: a possible-but-not-certain answer is
    justified by one witness of each kind.  One SAT call; no enumeration.
    """
    from repro.theory.worlds import AlternativeWorld

    prepared = _prepare_query(theory, query)
    goal = prepared if holds else Not(prepared)
    if isinstance(goal, Bottom):
        return None
    goal_clauses = () if isinstance(goal, Top) else tseitin(goal, prefix="@w").clauses
    model = theory.solve_with(goal_clauses)
    if model is None:
        return None
    universe = theory.atom_universe()
    return AlternativeWorld(
        atom for atom in universe if model.get(atom, False)
    )
