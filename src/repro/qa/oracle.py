"""The differential oracle: one case, four executions, world-set equality.

Theorem 1's commutative diagram is the specification: running algorithm GUA
on the theory must land on exactly the alternative worlds obtained by
updating every world individually with the Section 3.2 S-set semantics.
:func:`run_case` runs a :class:`~repro.qa.generate.FuzzCase` through

* the three ``Database`` backends (``gua``, ``log``, ``naive``), and
* the per-model semantics of :mod:`repro.ldml.semantics`, replaying the
  *journaled executables* (normalized + attribute-tagged — exactly what the
  backends executed) world by world,

comparing world sets after every statement, and comparing the ``ask``
answers of the gua and log backends (each universe atom, its negation, a
few pairwise conjunctions and disjunctions) with a scan of the oracle's
worlds.  On top of the diagram it checks the Section 3.1 metamorphic laws:
rewriting ground DELETE / MODIFY / ASSERT to their INSERT reductions must
not change the outcome; an update sequence followed by a rollback to a
savepoint is the identity; and a persistence round-trip
(``database_to_dict`` → ``database_from_dict``) preserves the worlds, the
backend, and the journaled update objects.

World enumeration is capped (``world_cap``): a case whose world set
outgrows the cap has the affected comparisons *skipped* (counted in
``CaseReport.checks_skipped``), never silently passed, so a runaway case
costs bounded work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.transaction import KIND_SIMULTANEOUS
from repro.errors import ReproError
from repro.ldml.ast import GroundUpdate
from repro.ldml.open_updates import OpenUpdate
from repro.ldml.semantics import update_worlds
from repro.ldml.simultaneous import update_worlds_simultaneously
from repro.logic.syntax import And, Atom, Formula, Not, Or
from repro.obs import span
from repro.qa.generate import FuzzCase
from repro.theory.worlds import AlternativeWorld

#: Check names accepted by :func:`run_case`, in execution order.
DEFAULT_CHECKS: Tuple[str, ...] = (
    "diagram",
    "backends",
    "answers",
    "reductions",
    "rollback",
    "persist",
)

#: The backends every case runs through.
BACKEND_NAMES: Tuple[str, ...] = ("gua", "log", "naive")

#: Backends whose ``ask`` answers the ``answers`` check compares (the naive
#: backend answers by scanning its own worlds, which ``backends`` covers).
ASKED_BACKENDS: Tuple[str, ...] = ("gua", "log")

#: Adjacent atom pairs asked as ``a & b`` and ``a | b`` by the ``answers``
#: check, after every atom and its negation.
ANSWER_PAIRS = 3


@dataclass
class Discrepancy:
    """One observed disagreement between two executions of a case."""

    check: str
    message: str
    statement_index: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        where = (
            f" at statement {self.statement_index}"
            if self.statement_index is not None
            else ""
        )
        return f"[{self.check}]{where}: {self.message}"


@dataclass
class CaseReport:
    """Everything :func:`run_case` learned about one case."""

    case: FuzzCase
    discrepancies: List[Discrepancy] = field(default_factory=list)
    statements_applied: int = 0
    statements_skipped: int = 0  #: uniformly rejected by every backend
    checks_skipped: int = 0  #: comparisons skipped for world-cap overflow

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        if self.ok:
            return (
                f"ok ({self.statements_applied} applied, "
                f"{self.statements_skipped} skipped)"
            )
        return "; ".join(str(d) for d in self.discrepancies)


def _render_worlds(worlds: FrozenSet[AlternativeWorld], cap: int = 4) -> List[str]:
    rendered = sorted(
        "{" + ", ".join(sorted(map(str, w.true_atoms))) + "}" for w in worlds
    )
    if len(rendered) > cap:
        rendered = rendered[:cap] + [f"... {len(worlds) - cap} more"]
    return rendered


def _world_diff(
    left: FrozenSet[AlternativeWorld], right: FrozenSet[AlternativeWorld]
) -> Dict[str, Any]:
    return {
        "missing": _render_worlds(left - right),
        "extra": _render_worlds(right - left),
        "left_count": len(left),
        "right_count": len(right),
    }


def _capped_world_set(db, cap: int) -> Optional[FrozenSet[AlternativeWorld]]:
    """The database's world set, or None when it overflows *cap*."""
    worlds = db.world_set(limit=cap + 1)
    return None if len(worlds) > cap else worlds


def _theory_world_set(theory, cap: int) -> Optional[FrozenSet[AlternativeWorld]]:
    worlds = frozenset(
        itertools.islice(theory.alternative_worlds(limit=cap + 1), cap + 1)
    )
    return None if len(worlds) > cap else worlds


def _apply(db, statement) -> Optional[str]:
    """Apply one statement; None on success, the error string on rejection."""
    try:
        if isinstance(statement, OpenUpdate):
            db.update_open(statement)
        else:
            db.update(statement)
        return None
    except ReproError as error:
        return f"{type(error).__name__}: {error}"


def run_case(
    case: FuzzCase,
    checks: Optional[Sequence[str]] = None,
    *,
    world_cap: int = 256,
    registry=None,
) -> CaseReport:
    """Run one case through every execution strategy and compare.

    Stops at the first discrepancy — once two executions diverge, later
    statements only compound the difference, and the shrinker wants the
    earliest divergence anyway.
    """
    active = tuple(checks) if checks else DEFAULT_CHECKS
    unknown = set(active) - set(DEFAULT_CHECKS)
    if unknown:
        raise ValueError(
            f"unknown checks {sorted(unknown)} (expected from {DEFAULT_CHECKS})"
        )
    report = CaseReport(case=case)
    with span("qa.case", seed=case.seed, statements=case.statement_count):
        _run_case(case, active, world_cap, report)
    if registry is not None:
        registry.counter("qa.cases").inc()
        registry.counter("qa.statements").inc(report.statements_applied)
        if report.discrepancies:
            registry.counter("qa.discrepancies").inc(len(report.discrepancies))
    return report


def _run_case(
    case: FuzzCase,
    checks: Tuple[str, ...],
    world_cap: int,
    report: CaseReport,
) -> None:
    schema = case.schema_object()
    dependencies = case.dependency_objects()
    dbs = {name: case.make_database(name) for name in BACKEND_NAMES}
    statements = case.statement_objects()

    # The S-set oracle state: the current world set under the model-level
    # semantics, or None once it outgrows the cap (checks then skip).
    oracle_worlds = _theory_world_set(case.initial_theory(), world_cap)
    if oracle_worlds is None:
        report.checks_skipped += 1

    applied: List[Any] = []
    for index, statement in enumerate(statements):
        outcomes = {
            name: _apply(db, statement) for name, db in dbs.items()
        }
        failures = {name: err for name, err in outcomes.items() if err}
        if failures and len(failures) < len(dbs):
            report.discrepancies.append(
                Discrepancy(
                    check="backends",
                    statement_index=index,
                    message=(
                        "statement rejected by "
                        f"{sorted(failures)} but accepted elsewhere"
                    ),
                    details={"errors": failures},
                )
            )
            return
        if failures:
            # Uniformly rejected: the statement never happened anywhere
            # (the pipeline journals only after a successful execute).
            report.statements_skipped += 1
            continue
        report.statements_applied += 1
        applied.append(statement)

        # Advance the S-set oracle with what gua actually executed — the
        # journal holds the normalized, attribute-tagged executable.
        entry = dbs["gua"].transactions.log.entries()[-1]
        if oracle_worlds is not None:
            if entry.kind == KIND_SIMULTANEOUS:
                oracle_worlds = update_worlds_simultaneously(
                    oracle_worlds,
                    entry.update,
                    schema=schema,
                    dependencies=dependencies,
                )
            else:
                oracle_worlds = update_worlds(
                    oracle_worlds,
                    entry.update,
                    schema=schema,
                    dependencies=dependencies,
                )
            if len(oracle_worlds) > world_cap:
                oracle_worlds = None
                report.checks_skipped += 1

        gua_worlds = _capped_world_set(dbs["gua"], world_cap)

        if "diagram" in checks:
            if oracle_worlds is None or gua_worlds is None:
                report.checks_skipped += 1
            elif gua_worlds != oracle_worlds:
                report.discrepancies.append(
                    Discrepancy(
                        check="diagram",
                        statement_index=index,
                        message=(
                            "GUA's theory worlds differ from the S-set "
                            "semantics (Theorem 1 violated)"
                        ),
                        details=_world_diff(oracle_worlds, gua_worlds),
                    )
                )
                return

        if "backends" in checks and gua_worlds is not None:
            for name in ("log", "naive"):
                other = _capped_world_set(dbs[name], world_cap)
                if other is None:
                    report.checks_skipped += 1
                elif other != gua_worlds:
                    report.discrepancies.append(
                        Discrepancy(
                            check="backends",
                            statement_index=index,
                            message=f"{name} backend diverged from gua",
                            details=_world_diff(gua_worlds, other),
                        )
                    )
                    return

        if "answers" in checks and _check_answers(
            dbs, oracle_worlds, index, report
        ):
            return

    final_worlds = _capped_world_set(dbs["gua"], world_cap)

    if "reductions" in checks:
        _check_reductions(case, applied, final_worlds, world_cap, report)
    if "rollback" in checks:
        _check_rollback(case, applied, world_cap, report)
    if "persist" in checks:
        _check_persist(dbs, world_cap, report)


def _answer_queries(universe) -> List[Formula]:
    atoms = [Atom(atom) for atom in sorted(universe)]
    queries: List[Formula] = []
    for leaf in atoms:
        queries.extend((leaf, Not(leaf)))
    for left, right in list(zip(atoms, atoms[1:]))[:ANSWER_PAIRS]:
        queries.extend((And((left, right)), Or((left, right))))
    return queries


def _check_answers(
    dbs: Dict[str, Any],
    oracle_worlds: Optional[FrozenSet[AlternativeWorld]],
    index: int,
    report: CaseReport,
) -> bool:
    """``ask`` on gua and log agrees with a scan of the oracle's worlds:
    certain iff every world satisfies the query, possible iff some does
    (an empty world set makes every query certain and none possible).
    Returns True when it recorded a discrepancy."""
    if oracle_worlds is None:
        report.checks_skipped += 1
        return False
    for query in _answer_queries(dbs["gua"].backend.atom_universe()):
        holds = [world.satisfies(query) for world in oracle_worlds]
        expected = (all(holds), any(holds))
        for name in ASKED_BACKENDS:
            answer = dbs[name].ask(query)
            if (answer.certain, answer.possible) != expected:
                report.discrepancies.append(
                    Discrepancy(
                        check="answers",
                        statement_index=index,
                        message=(
                            f"{name} answered {answer.status} for {query}, "
                            "unlike the oracle's worlds"
                        ),
                        details={
                            "query": str(query),
                            "certain": expected[0],
                            "possible": expected[1],
                            "worlds": _render_worlds(oracle_worlds),
                        },
                    )
                )
                return True
    return False


def _check_reductions(
    case: FuzzCase,
    applied: List[Any],
    final_worlds: Optional[FrozenSet[AlternativeWorld]],
    world_cap: int,
    report: CaseReport,
) -> None:
    """Section 3.1: DELETE/MODIFY/ASSERT are syntactic sugar for INSERT."""
    if final_worlds is None:
        report.checks_skipped += 1
        return
    reduced = [
        s.to_insert() if isinstance(s, GroundUpdate) else s for s in applied
    ]
    db = case.make_database("gua")
    for index, statement in enumerate(reduced):
        error = _apply(db, statement)
        if error is not None:
            report.discrepancies.append(
                Discrepancy(
                    check="reductions",
                    statement_index=index,
                    message=(
                        "INSERT-reduced form rejected where the original "
                        "was accepted"
                    ),
                    details={"error": error},
                )
            )
            return
    reduced_worlds = _capped_world_set(db, world_cap)
    if reduced_worlds is None:
        report.checks_skipped += 1
    elif reduced_worlds != final_worlds:
        report.discrepancies.append(
            Discrepancy(
                check="reductions",
                message=(
                    "running the script with every ground operator reduced "
                    "to INSERT changed the final worlds"
                ),
                details=_world_diff(final_worlds, reduced_worlds),
            )
        )


def _check_rollback(
    case: FuzzCase,
    applied: List[Any],
    world_cap: int,
    report: CaseReport,
) -> None:
    """Update-then-rollback is the identity on the world set."""
    db = case.make_database("gua")
    initial = _capped_world_set(db, world_cap)
    if initial is None:
        report.checks_skipped += 1
        return
    db.savepoint("qa-rollback")
    for statement in applied:
        if _apply(db, statement) is not None:
            # The fresh run diverging in *acceptance* is possible only for
            # open updates whose expansion saw a different universe; the
            # backends check owns that concern — here we just bail.
            report.checks_skipped += 1
            return
    db.rollback("qa-rollback")
    restored = _capped_world_set(db, world_cap)
    if restored is None:
        report.checks_skipped += 1
    elif restored != initial:
        report.discrepancies.append(
            Discrepancy(
                check="rollback",
                message="rollback to the initial savepoint changed the worlds",
                details=_world_diff(initial, restored),
            )
        )


def _check_persist(dbs: Dict[str, Any], world_cap: int, report: CaseReport) -> None:
    """A save/load round-trip preserves worlds, backend, and the journal's
    update objects."""
    from repro.persist import database_from_dict, database_to_dict

    for name, db in dbs.items():
        original_worlds = _capped_world_set(db, world_cap)
        if original_worlds is None:
            report.checks_skipped += 1
            continue
        clone = database_from_dict(database_to_dict(db))
        if clone.backend.name != name:
            report.discrepancies.append(
                Discrepancy(
                    check="persist",
                    message=(
                        f"round-trip changed the backend: {name} -> "
                        f"{clone.backend.name}"
                    ),
                )
            )
            return
        original_updates = db.transactions.log.updates()
        clone_updates = clone.transactions.log.updates()
        if original_updates != clone_updates:
            report.discrepancies.append(
                Discrepancy(
                    check="persist",
                    message=f"round-trip changed the journal on {name}",
                    details={
                        "original": [str(u) for u in original_updates],
                        "clone": [str(u) for u in clone_updates],
                    },
                )
            )
            return
        clone_worlds = _capped_world_set(clone, world_cap)
        if clone_worlds is None:
            report.checks_skipped += 1
        elif clone_worlds != original_worlds:
            report.discrepancies.append(
                Discrepancy(
                    check="persist",
                    message=f"round-trip changed the worlds on {name}",
                    details=_world_diff(original_worlds, clone_worlds),
                )
            )
            return
        if name == "gua":
            # Replaying the journal from the base must reproduce the live
            # worlds — the journal is the database's story of itself.
            replayed = _theory_world_set(
                clone.transactions.replay(), world_cap
            )
            if replayed is None:
                report.checks_skipped += 1
            elif replayed != original_worlds:
                report.discrepancies.append(
                    Discrepancy(
                        check="persist",
                        message=(
                            "replaying the loaded journal from the base "
                            "theory diverged from the live worlds"
                        ),
                        details=_world_diff(original_worlds, replayed),
                    )
                )
                return
