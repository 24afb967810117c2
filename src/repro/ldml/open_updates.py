"""LDML updates with variables (Section 4's extension, implemented).

"We concentrate on the concept of a ground update ...; updates with
variables can be reduced to the problem of performing a set of ground
updates simultaneously."  This module performs that reduction:

* surface syntax: variables are written ``?name`` anywhere a constant may
  appear — ``DELETE Orders(?o, 32, ?q) WHERE Orders(?o, 32, ?q)``;
* **range restriction**: every variable must appear in at least one atom of
  the statement; a variable's candidate values come from matching the
  statement's atoms against the theory's atom universe (the completion
  axioms guarantee no other tuples can be true anywhere, so no other
  binding can satisfy a positive occurrence — bindings outside the
  candidates would only match via negations and are deliberately out of
  scope, as in safe relational calculus);
* grounding an :class:`OpenUpdate` against a theory yields a
  :class:`~repro.ldml.simultaneous.SimultaneousInsert` of one ground update
  per binding, executed atomically by
  :meth:`~repro.core.gua.GuaExecutor.apply` — the same Steps 1-7 that run
  a ground update, which is simply the one-pair set.

Internally a variable rides through the ordinary formula machinery as a
reserved constant ``_var_<name>``, so no parallel AST is needed; the
grounding step substitutes real constants for the reserved ones.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NotGroundError, ParseError, UpdateError
from repro.ldml.ast import GroundUpdate, Insert
from repro.ldml.parser import parse_update
from repro.ldml.simultaneous import SimultaneousInsert
from repro.logic.syntax import (
    And,
    Atom,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
)
from repro.logic.terms import Constant, GroundAtom

#: Reserved prefix marking a variable travelling as a constant.
VAR_PREFIX = "_var_"

#: Anything grounding can range over: an
#: :class:`~repro.theory.theory.ExtendedRelationalTheory`, an update backend
#: (both expose ``atom_universe()``), or a bare collection of ground atoms.
UniverseSource = object


def _universe_of(source: UniverseSource) -> FrozenSet[GroundAtom]:
    """The ground-atom universe of a theory/backend/atom collection."""
    getter = getattr(source, "atom_universe", None)
    if callable(getter):
        return getter()
    return frozenset(source)

_SURFACE_VAR_RE = re.compile(r"\?([A-Za-z_][A-Za-z0-9_]*)")


def is_variable(constant: Constant) -> bool:
    return constant.name.startswith(VAR_PREFIX)


def variable_name(constant: Constant) -> str:
    return constant.name[len(VAR_PREFIX):]


def _reject_user_prefix(text: str) -> None:
    if VAR_PREFIX in text:
        raise ParseError(
            f"constant names may not start with {VAR_PREFIX!r}; "
            "write variables as ?name",
            text,
            text.find(VAR_PREFIX),
        )


def parse_open_update(text: str) -> "OpenUpdate":
    """Parse an LDML statement that may contain ``?var`` variables."""
    _reject_user_prefix(text)
    lowered = _SURFACE_VAR_RE.sub(lambda m: VAR_PREFIX + m.group(1), text)
    update = parse_update(lowered)
    return OpenUpdate(update)


class OpenUpdate:
    """A ground-update template over variables (reserved constants)."""

    __slots__ = ("template",)

    def __init__(self, template: GroundUpdate):
        object.__setattr__(self, "template", template)

    def __setattr__(self, key, value):
        raise AttributeError("OpenUpdate is immutable")

    # -- structure ----------------------------------------------------------

    def variables(self) -> Tuple[str, ...]:
        names = set()
        for atom in self._all_atoms():
            for constant in atom.args:
                if is_variable(constant):
                    names.add(variable_name(constant))
        return tuple(sorted(names))

    def is_ground(self) -> bool:
        return not self.variables()

    def _all_atoms(self) -> FrozenSet[GroundAtom]:
        insert = self.template.to_insert()
        return insert.body.ground_atoms() | insert.where.ground_atoms()

    # -- grounding ------------------------------------------------------------

    def candidate_values(
        self, source: UniverseSource
    ) -> Dict[str, Tuple[Constant, ...]]:
        """Per-variable candidate constants from *source*'s atom universe.

        A variable's candidates are every constant that some universe atom
        holds at a position where the variable occurs.  *source* may be a
        theory, an update backend, or a plain collection of ground atoms.
        """
        candidates: Dict[str, set] = {name: set() for name in self.variables()}
        if not candidates:
            return {}
        universe = _universe_of(source)
        by_predicate: Dict = {}
        for atom in universe:
            by_predicate.setdefault(atom.predicate, []).append(atom)
        for template_atom in self._all_atoms():
            variable_positions = [
                (index, variable_name(constant))
                for index, constant in enumerate(template_atom.args)
                if is_variable(constant)
            ]
            if not variable_positions:
                continue
            for universe_atom in by_predicate.get(template_atom.predicate, ()):
                if not _positions_compatible(template_atom, universe_atom):
                    continue
                for index, name in variable_positions:
                    candidates[name].add(universe_atom.args[index])
        return {
            name: tuple(sorted(values)) for name, values in candidates.items()
        }

    def bindings(
        self,
        source: UniverseSource,
        domains: Optional[Mapping[str, Sequence[Constant]]] = None,
    ) -> Iterator[Dict[str, Constant]]:
        """Every binding over the candidate sets (or explicit *domains*)."""
        names = self.variables()
        if not names:
            yield {}
            return
        candidates = self.candidate_values(source)
        pools: List[Sequence[Constant]] = []
        for name in names:
            if domains is not None and name in domains:
                pools.append(tuple(domains[name]))
            else:
                pools.append(candidates.get(name, ()))
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))

    def ground(self, binding: Mapping[str, Constant]) -> GroundUpdate:
        """Substitute *binding* into the template; must cover every variable."""
        missing = set(self.variables()) - set(binding)
        if missing:
            raise NotGroundError(
                f"binding does not cover variables: {sorted(missing)}"
            )
        insert = self.template.to_insert()
        body = _substitute(insert.body, binding)
        where = _substitute(insert.where, binding)
        return Insert(body, where)

    def expand(
        self,
        source: UniverseSource,
        domains: Optional[Mapping[str, Sequence[Constant]]] = None,
        *,
        prune: bool = True,
    ) -> SimultaneousInsert:
        """The Section 4 reduction: one simultaneous set of ground updates.

        *source* provides the atom universe to ground over — a theory, an
        update backend, or a plain atom collection.

        With ``prune`` (default), ground pairs whose selection clause is
        *certainly false* under the completion axioms are dropped — a sound,
        world-set-preserving optimization that turns the cartesian product
        of per-variable candidates back into roughly the matching bindings
        (a pair with an always-false clause is a no-op on every world, and
        dropping it only omits forced-false atoms from the universe, which
        worlds — sets of true atoms — cannot observe).

        Raises :class:`UpdateError` when no binding survives (e.g. a
        variable with an empty candidate set) — an open update over an
        empty range is almost always a bug; pass explicit *domains* or
        ``prune=False`` to override.
        """
        universe = _universe_of(source)
        ground_updates = []
        for binding in self.bindings(source, domains):
            ground = self.ground(binding)
            if prune and _clause_certainly_false(
                ground.to_insert().where, universe
            ):
                continue
            ground_updates.append(ground)
        if not ground_updates:
            raise UpdateError(
                "open update has no applicable bindings over the theory's "
                f"atom universe; variables {self.variables()} — pass explicit "
                "domains or prune=False to force"
            )
        return SimultaneousInsert(ground_updates)

    def __repr__(self) -> str:
        text = repr(self.template)
        for name in self.variables():
            text = text.replace(VAR_PREFIX + name, "?" + name)
        return f"OPEN[{text}]"


def _clause_certainly_false(where: Formula, universe: FrozenSet[GroundAtom]) -> bool:
    """Sound one-sided test: is *where* false in every model of the theory?

    The completion axioms force any atom outside the universe to be false,
    so a DNF term containing such an atom positively can never hold; if
    every term does, the clause is dead.  (Never claims falsity wrongly —
    a surviving clause may still be false for other reasons, which merely
    keeps a no-op pair.)
    """
    from repro.logic.dnf import to_dnf

    terms = to_dnf(where)
    for term in terms:
        if all(
            not polarity or atom in universe or not isinstance(atom, GroundAtom)
            for atom, polarity in term
        ):
            return False  # this term might hold in some model
    return True


def _positions_compatible(template_atom: GroundAtom, universe_atom: GroundAtom) -> bool:
    """Does *universe_atom* match the template's constant positions?"""
    for template_constant, actual in zip(template_atom.args, universe_atom.args):
        if not is_variable(template_constant) and template_constant != actual:
            return False
    return True


def _substitute(formula: Formula, binding: Mapping[str, Constant]) -> Formula:
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Atom):
        atom = formula.atom
        if not isinstance(atom, GroundAtom):
            return formula
        new_args = tuple(
            binding[variable_name(c)] if is_variable(c) else c for c in atom.args
        )
        if new_args == atom.args:
            return formula
        return Atom(GroundAtom(atom.predicate, new_args))
    if isinstance(formula, Not):
        return Not(_substitute(formula.operand, binding))
    if isinstance(formula, And):
        return And(tuple(_substitute(op, binding) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(_substitute(op, binding) for op in formula.operands))
    if isinstance(formula, Implies):
        return Implies(
            _substitute(formula.antecedent, binding),
            _substitute(formula.consequent, binding),
        )
    if isinstance(formula, Iff):
        return Iff(
            _substitute(formula.left, binding),
            _substitute(formula.right, binding),
        )
    raise TypeError(f"unknown formula node {formula!r}")
