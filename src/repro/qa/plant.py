"""Deliberately broken engine variants — proof the oracle has teeth.

A differential fuzzer that never fails is indistinguishable from one that
checks nothing.  This module plants known bugs, and the test suite verifies
the oracle catches every one and the shrinker reduces it to a minimal
reproducer.  Most are mutations of GUA's Step 4, the restrictor that pins
old values in the worlds the update did not select (formula (1) of Section
3.3); GUA has one Step 4 for ground and simultaneous updates alike, so
every such mutation reaches both.  One breaks the theory's persistent query
solver instead: it leaves a renamed wff's old activation literal live, so
asks answer from stale clauses while world enumeration, which builds its
own solver, stays right — only the oracle's ``answers`` check sees it.

The Step 4 mutations are interesting precisely because Step 4 is the subtle step:
dropping it (or mangling its guard) yields a theory that is still
consistent, still type-correct, and still answers many queries right — only
the alternative-world set drifts, which is exactly what the
commutative-diagram check observes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Tuple

from repro.core.gua import GuaExecutor
from repro.logic.syntax import Atom, Iff, Implies, Not, conjoin
from repro.theory import theory as theory_module


def _step4_skip(self, pairs, sigma, result) -> None:
    """Step 4 omitted entirely: worlds the update did not select forget
    their old values (amnesic semantics masquerading as Winslett's)."""


def _step4_drop_guard(self, pairs, sigma, result) -> None:
    """The guard's negation is lost: old values are pinned in the *updated*
    worlds (where fresh names must stay free) instead of the untouched
    ones."""
    groups: Dict[tuple, list] = {}
    for atom, fresh in result.fresh_constants.items():
        groups.setdefault(result.writers[atom], []).append(
            Iff(Atom(atom), Atom(fresh))
        )
    for writers, group in groups.items():
        # BUG: each clause should be Not(...)
        clause = conjoin([sigma.apply(pairs[i][0]) for i in writers])
        self._add(Implies(clause, conjoin(group)), result, "step4")


def _step4_pin_everywhere(self, pairs, sigma, result) -> None:
    """The guard is dropped altogether: old values pinned unconditionally,
    so the update cannot change what the theory knew before."""
    for atom, fresh in result.fresh_constants.items():
        self._add(Iff(Atom(atom), Atom(fresh)), result, "step4")


def _step4_first_only(self, pairs, sigma, result) -> None:
    """Only the first historical value is restricted — a classic
    lost-in-the-loop bug."""
    for atom, fresh in list(result.fresh_constants.items())[:1]:
        guard = conjoin(
            [Not(sigma.apply(pairs[i][0])) for i in result.writers[atom]]
        )
        self._add(Implies(guard, Iff(Atom(atom), Atom(fresh))), result, "step4")


def _solver_stale_activation(self, stored) -> bool:
    """Any activation literal of the wff's ``store_id`` counts as current,
    whatever its version: after a Step 2 rename the query solver keeps
    assuming the pre-rename clauses and never takes in the renamed ones."""
    return stored.store_id in self.active


#: name -> (owner, attribute, broken replacement).
PLANTED_BUGS: Dict[str, Tuple[Any, str, Callable]] = {
    "step4-skip": (GuaExecutor, "_step4_restrict", _step4_skip),
    "step4-drop-guard": (GuaExecutor, "_step4_restrict", _step4_drop_guard),
    "step4-pin-everywhere": (
        GuaExecutor, "_step4_restrict", _step4_pin_everywhere
    ),
    "step4-first-only": (GuaExecutor, "_step4_restrict", _step4_first_only),
    "solver-stale-activation": (
        theory_module._QuerySolver, "is_current", _solver_stale_activation
    ),
}


@contextmanager
def planted_bug(name: str) -> Iterator[None]:
    """Run with the named mutation patched over its owner's attribute.

    Process-wide (patches a class), so keep the scope tight::

        with planted_bug("step4-drop-guard"):
            report = run_case(case)
        assert not report.ok
    """
    try:
        owner, attribute, broken = PLANTED_BUGS[name]
    except KeyError:
        raise ValueError(
            f"unknown planted bug {name!r} (expected one of "
            f"{sorted(PLANTED_BUGS)})"
        ) from None
    original = getattr(owner, attribute)
    setattr(owner, attribute, broken)
    try:
        yield
    finally:
        setattr(owner, attribute, original)
