"""Deliberately broken GUA variants — proof the oracle has teeth.

A differential fuzzer that never fails is indistinguishable from one that
checks nothing.  This module plants known bugs into algorithm GUA — each a
small mutation of Step 4, the restrictor that pins old values in the worlds
the update did not select (formula (1) of Section 3.3) — and the test suite
verifies the oracle catches every one and the shrinker reduces it to a
minimal reproducer.  GUA has one Step 4 for ground and simultaneous
updates alike, so every mutation reaches both.

The mutations are interesting precisely because Step 4 is the subtle step:
dropping it (or mangling its guard) yields a theory that is still
consistent, still type-correct, and still answers many queries right — only
the alternative-world set drifts, which is exactly what the
commutative-diagram check observes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator

from repro.core.gua import GuaExecutor
from repro.logic.syntax import Atom, Iff, Implies, Not, conjoin


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


#: name -> broken ``_step4_restrict`` replacement.
PLANTED_BUGS: Dict[str, Callable] = {
    "step4-skip": _step4_skip,
    "step4-drop-guard": _step4_drop_guard,
    "step4-pin-everywhere": _step4_pin_everywhere,
    "step4-first-only": _step4_first_only,
}


@contextmanager
def planted_bug(name: str) -> Iterator[None]:
    """Run with GUA's Step 4 replaced by the named mutation.

    Process-wide (patches the class), so keep the scope tight::

        with planted_bug("step4-drop-guard"):
            report = run_case(case)
        assert not report.ok
    """
    try:
        broken = PLANTED_BUGS[name]
    except KeyError:
        raise ValueError(
            f"unknown planted bug {name!r} (expected one of "
            f"{sorted(PLANTED_BUGS)})"
        ) from None
    original = GuaExecutor._step4_restrict
    GuaExecutor._step4_restrict = broken
    try:
        yield
    finally:
        GuaExecutor._step4_restrict = original
