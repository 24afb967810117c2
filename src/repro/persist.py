"""JSON persistence for theories and databases.

Stores exactly what Section 2 says an implementation stores — the
non-axiomatic section (as concrete formula text, which round-trips through
the parser), the schema, and the dependency axioms; the derived axioms are
rederived on load.  The :class:`~repro.core.engine.Database` form also
journals the applied updates structurally so a reloaded engine can keep
replaying and rolling back.

Format (versioned)::

    {
      "format": "repro-theory-v1",
      "schema": {"Orders": ["OrderNo", "PartNo", "Quan"], ...} | null,
      "dependencies": [{"kind": "fd", "relation": "Orders", "arity": 3,
                        "determinant": [0], "dependent": [2]}, ...],
      "formulas": ["Orders(700,32,9)", "..."],
    }

A ``repro-database-v1`` document adds the backend name, the live and base
theories, ``auto_tag``, and the journal as a list of :func:`update_to_dict`
objects (``{"op": "insert", "body": ..., "where": ...}``, ...,
``{"op": "simultaneous", "pairs": [...]}``).  Malformed documents raise
:class:`PersistenceError` naming the offending field, and saves replace the
file atomically.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError
from repro.ldml.ast import Assert_, Delete, Insert, Modify
from repro.ldml.simultaneous import SimultaneousInsert
from repro.logic.parser import parse, parse_atom
from repro.logic.printer import to_text
from repro.logic.syntax import Formula
from repro.logic.terms import Predicate
from repro.theory.dependencies import (
    FunctionalDependency,
    InclusionDependency,
    MultivaluedDependency,
    TemplateDependency,
)
from repro.theory.schema import DatabaseSchema, schema_from_dict
from repro.theory.theory import ExtendedRelationalTheory

THEORY_FORMAT = "repro-theory-v1"
DATABASE_FORMAT = "repro-database-v1"


class PersistenceError(ReproError):
    """A file could not be interpreted as a stored theory/database."""


def _field(data: Any, key: str, context: str, expected: type = str) -> Any:
    """``data[key]``, or a :class:`PersistenceError` naming the missing or
    ill-typed field."""
    if not isinstance(data, dict) or key not in data:
        raise PersistenceError(f"{context} has no {key!r} field")
    value = data[key]
    if not isinstance(value, expected):
        raise PersistenceError(
            f"{context} field {key!r} must be a {expected.__name__}, "
            f"not {type(value).__name__}"
        )
    return value


def _formula(data: Any, key: str, context: str) -> Formula:
    return parse(_field(data, key, context))


def _list(data: Dict[str, Any], key: str, context: str) -> list:
    """An optional list field; absent reads as empty."""
    return _field(data, key, context, list) if key in data else []


def _write_atomically(path: Union[str, Path], text: str) -> None:
    """Replace *path* with *text* so a crash leaves the old file or the new
    one, never a torn write: write a temp file in the same directory, fsync
    it, then ``os.replace`` it over the target."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    data = memoryview(text.encode("utf-8"))
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# -- dependencies ----------------------------------------------------------------


def dependency_to_dict(dependency: TemplateDependency) -> Dict[str, Any]:
    if isinstance(dependency, FunctionalDependency):
        return {
            "kind": "fd",
            "relation": dependency.predicate.name,
            "arity": dependency.predicate.arity,
            "determinant": list(dependency.determinant),
            "dependent": list(dependency.dependent),
        }
    if isinstance(dependency, InclusionDependency):
        return {
            "kind": "inclusion",
            "child": dependency.child.name,
            "child_arity": dependency.child.arity,
            "child_columns": list(dependency.child_columns),
            "parent": dependency.parent.name,
            "parent_arity": dependency.parent.arity,
            "parent_columns": list(dependency.parent_columns),
        }
    if isinstance(dependency, MultivaluedDependency):
        return {
            "kind": "mvd",
            "relation": dependency.predicate.name,
            "arity": dependency.predicate.arity,
            "determinant": list(dependency.determinant),
            "dependent": list(dependency.dependent),
        }
    raise PersistenceError(
        f"cannot serialize general template dependency {dependency!r}; "
        "only FD / inclusion / MVD forms persist"
    )


def dependency_from_dict(data: Dict[str, Any]) -> TemplateDependency:
    kind = data.get("kind") if isinstance(data, dict) else None
    context = f"{kind} dependency"

    def predicate(name: str, arity: str) -> Predicate:
        return Predicate(
            _field(data, name, context), _field(data, arity, context, int)
        )

    def columns(key: str) -> list:
        return _field(data, key, context, list)

    if kind == "fd":
        return FunctionalDependency(
            predicate("relation", "arity"),
            columns("determinant"),
            columns("dependent"),
        )
    if kind == "inclusion":
        return InclusionDependency(
            predicate("child", "child_arity"),
            columns("child_columns"),
            predicate("parent", "parent_arity"),
            columns("parent_columns"),
        )
    if kind == "mvd":
        return MultivaluedDependency(
            predicate("relation", "arity"),
            columns("determinant"),
            columns("dependent"),
        )
    raise PersistenceError(f"unknown dependency kind {kind!r}")


# -- theory ------------------------------------------------------------------------


def theory_to_dict(theory: ExtendedRelationalTheory) -> Dict[str, Any]:
    schema_spec: Optional[Dict[str, List[str]]] = None
    if theory.schema is not None:
        schema_spec = {
            relation.name: [a.name for a in relation.attributes]
            for relation in theory.schema.relations()
        }
    return {
        "format": THEORY_FORMAT,
        "schema": schema_spec,
        "dependencies": [
            dependency_to_dict(d) for d in theory.dependencies
        ],
        "formulas": [to_text(f) for f in theory.formulas()],
    }


def theory_from_dict(data: Dict[str, Any]) -> ExtendedRelationalTheory:
    if not isinstance(data, dict) or data.get("format") != THEORY_FORMAT:
        found = data.get("format") if isinstance(data, dict) else data
        raise PersistenceError(
            f"not a {THEORY_FORMAT} document (format={found!r})"
        )
    schema: Optional[DatabaseSchema] = None
    if data.get("schema"):
        schema = schema_from_dict(data["schema"])
    dependencies = [
        dependency_from_dict(d) for d in _list(data, "dependencies", "theory")
    ]
    theory = ExtendedRelationalTheory(schema=schema, dependencies=dependencies)
    for index, text in enumerate(_list(data, "formulas", "theory")):
        if not isinstance(text, str):
            raise PersistenceError(
                f"theory field 'formulas' entry {index} must be formula "
                f"text, not {type(text).__name__}"
            )
        theory.add_formula(parse(text))
    return theory


def save_theory(theory: ExtendedRelationalTheory, path: Union[str, Path]) -> None:
    _write_atomically(path, json.dumps(theory_to_dict(theory), indent=2))


def load_theory(path: Union[str, Path]) -> ExtendedRelationalTheory:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON in {path}: {exc}") from exc
    return theory_from_dict(data)


# -- updates (journal entries) --------------------------------------------------------


def update_to_dict(update) -> Dict[str, Any]:
    if isinstance(update, SimultaneousInsert):
        return {
            "op": "simultaneous",
            "pairs": [
                {"where": to_text(where), "body": to_text(body)}
                for where, body in update.pairs
            ],
        }
    if isinstance(update, Insert):
        return {"op": "insert", "body": to_text(update.body),
                "where": to_text(update.where)}
    if isinstance(update, Delete):
        return {"op": "delete", "target": str(update.target),
                "where": to_text(update.where)}
    if isinstance(update, Modify):
        return {"op": "modify", "target": str(update.target),
                "body": to_text(update.body), "where": to_text(update.where)}
    if isinstance(update, Assert_):
        return {"op": "assert", "condition": to_text(update.condition)}
    raise PersistenceError(f"cannot serialize update {update!r}")


def update_from_dict(data: Dict[str, Any]):
    """The update object a journal entry stores; the ``"op"`` alone decides
    its type (a ``"kind"`` key, written by older versions, is ignored)."""
    op = data.get("op") if isinstance(data, dict) else None
    context = f"{op} update"
    if op == "simultaneous":
        pairs = _field(data, "pairs", context, list)
        return SimultaneousInsert(
            [
                (
                    _formula(pair, "where", f"{context} pair {index}"),
                    _formula(pair, "body", f"{context} pair {index}"),
                )
                for index, pair in enumerate(pairs)
            ]
        )
    if op == "insert":
        return Insert(
            _formula(data, "body", context), _formula(data, "where", context)
        )
    if op == "delete":
        return Delete(
            parse_atom(_field(data, "target", context)),
            _formula(data, "where", context),
        )
    if op == "modify":
        return Modify(
            parse_atom(_field(data, "target", context)),
            _formula(data, "body", context),
            _formula(data, "where", context),
        )
    if op == "assert":
        return Assert_(_formula(data, "condition", context))
    raise PersistenceError(f"unknown update op {op!r}")


# -- database ----------------------------------------------------------------------------


def database_to_dict(db) -> Dict[str, Any]:
    """Serialize a Database on any backend.

    Alongside the live theory (``None`` for the theory-less naive backend),
    the document records the *base* theory the transaction manager replays
    from and the backend name, so a loaded engine replays, rolls back, and
    answers exactly like the saved one — including ``"simultaneous"``
    journal entries — on all three backends.
    """
    from repro.errors import TheoryError

    try:
        live_theory = theory_to_dict(db.theory)
    except TheoryError:  # naive backend: no theory; state = base + journal
        live_theory = None
    return {
        "format": DATABASE_FORMAT,
        "backend": db.backend.name,
        "theory": live_theory,
        "base": theory_to_dict(db.transactions.base_theory),
        "journal": [
            update_to_dict(update) for update in db.transactions.log.updates()
        ],
        "auto_tag": db.auto_tag,
    }


def database_from_dict(data: Dict[str, Any]):
    from repro.core.engine import Database

    if data.get("format") != DATABASE_FORMAT:
        raise PersistenceError(
            f"not a {DATABASE_FORMAT} document (format={data.get('format')!r})"
        )
    backend = data.get("backend", "gua")
    live = theory_from_dict(data["theory"]) if data.get("theory") else None
    # Pre-base documents stored only the live theory: fall back to an empty
    # base with the live theory's schema/dependencies (the old behavior).
    base = theory_from_dict(data["base"]) if data.get("base") else None
    structure = base if base is not None else live
    if structure is None:
        raise PersistenceError(
            "document has neither a live theory nor a base theory"
        )
    db = Database(
        schema=structure.schema,
        dependencies=structure.dependencies,
        facts=base.formulas() if base is not None else (),
        auto_tag=data.get("auto_tag", True),
        backend=backend,
    )
    replay_into_backend = live is None or backend != "gua"
    for entry in _list(data, "journal", "database"):
        update = update_from_dict(entry)
        if replay_into_backend:
            # Backends whose live state cannot be overwritten wholesale
            # (log: base + pending log; naive: explicit worlds) rebuild it
            # by re-executing the journal.  Entries are already normalized
            # and attribute-tagged, so execution must not re-tag.
            db.backend.execute(update)
        db.transactions.log.record(update, db.backend.size())
    if live is not None and not replay_into_backend:
        # The gua backend restores its exact saved syntactic state directly
        # (cheaper than replaying, and preserves predicate-constant names).
        db.theory.replace_formulas(live.formulas())
    return db


def save_database(db, path: Union[str, Path]) -> None:
    _write_atomically(path, json.dumps(database_to_dict(db), indent=2))


def load_database(path: Union[str, Path]):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid JSON in {path}: {exc}") from exc
    return database_from_dict(data)
