"""Unit tests for JSON persistence."""

import json
import os

import pytest

from repro.core.engine import Database
from repro.ldml.ast import Assert_, Delete, Insert, Modify
from repro.logic.parser import parse, parse_atom
from repro.logic.terms import Predicate
from repro.persist import (
    PersistenceError,
    database_from_dict,
    database_to_dict,
    dependency_from_dict,
    dependency_to_dict,
    load_database,
    load_theory,
    save_database,
    save_theory,
    theory_from_dict,
    theory_to_dict,
    update_from_dict,
    update_to_dict,
)
from repro.theory.dependencies import (
    FunctionalDependency,
    InclusionDependency,
    MultivaluedDependency,
    TAtom,
    TemplateAtom,
    TemplateDependency,
    Var,
)
from repro.theory.schema import schema_from_dict
from repro.theory.theory import ExtendedRelationalTheory


class TestTheoryRoundTrip:
    def test_formulas_preserved(self, tmp_path):
        theory = ExtendedRelationalTheory(
            formulas=["P(a) | P(b)", "!P(c)", "P(a) -> P(b)"]
        )
        path = tmp_path / "t.json"
        save_theory(theory, path)
        loaded = load_theory(path)
        assert loaded.formulas() == theory.formulas()

    def test_worlds_preserved(self, tmp_path):
        theory = ExtendedRelationalTheory(formulas=["P(a) | P(b)"])
        path = tmp_path / "t.json"
        save_theory(theory, path)
        assert load_theory(path).world_set() == theory.world_set()

    def test_schema_preserved(self, tmp_path):
        schema = schema_from_dict({"R": ["A", "B"]})
        theory = ExtendedRelationalTheory(schema=schema, formulas=["R(x,y) & A(x) & B(y)"])
        path = tmp_path / "t.json"
        save_theory(theory, path)
        loaded = load_theory(path)
        assert loaded.schema is not None
        assert loaded.schema.relation("R").arity == 2

    def test_dependencies_preserved(self, tmp_path):
        E = Predicate("E", 2)
        theory = ExtendedRelationalTheory(
            dependencies=[FunctionalDependency(E, [0], [1])],
            formulas=["E(k,v)"],
        )
        path = tmp_path / "t.json"
        save_theory(theory, path)
        loaded = load_theory(path)
        assert len(loaded.dependencies) == 1
        assert isinstance(loaded.dependencies[0], FunctionalDependency)

    def test_predicate_constants_survive(self, tmp_path):
        theory = ExtendedRelationalTheory(formulas=["@p0 | P(a)", "!@p0"])
        path = tmp_path / "t.json"
        save_theory(theory, path)
        assert load_theory(path).world_set() == theory.world_set()

    def test_bad_format_rejected(self):
        with pytest.raises(PersistenceError):
            theory_from_dict({"format": "something-else"})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError):
            load_theory(path)

    def test_document_is_plain_json(self, tmp_path):
        theory = ExtendedRelationalTheory(formulas=["P(a)"])
        path = tmp_path / "t.json"
        save_theory(theory, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-theory-v1"
        assert data["formulas"] == ["P(a)"]


class TestDependencySerialization:
    def test_fd(self):
        fd = FunctionalDependency(Predicate("E", 3), [0, 1], [2])
        restored = dependency_from_dict(dependency_to_dict(fd))
        assert restored.determinant == (0, 1)
        assert restored.dependent == (2,)

    def test_inclusion(self):
        ind = InclusionDependency(
            Predicate("P", 1), [0], Predicate("Q", 1), [0]
        )
        restored = dependency_from_dict(dependency_to_dict(ind))
        assert isinstance(restored, InclusionDependency)

    def test_mvd(self):
        mvd = MultivaluedDependency(Predicate("R", 3), [0], [1])
        restored = dependency_from_dict(dependency_to_dict(mvd))
        assert isinstance(restored, MultivaluedDependency)

    def test_generic_template_rejected(self):
        P1, Q1 = Predicate("P", 1), Predicate("Q", 1)
        generic = TemplateDependency(
            body=[TemplateAtom(P1, [Var("x")])],
            head=TAtom(TemplateAtom(Q1, [Var("x")])),
        )
        with pytest.raises(PersistenceError):
            dependency_to_dict(generic)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PersistenceError):
            dependency_from_dict({"kind": "mystery"})


class TestUpdateSerialization:
    @pytest.mark.parametrize(
        "update",
        [
            Insert(parse("P(a) | P(b)"), parse("P(c)")),
            Delete(parse_atom("P(a)"), parse("P(b)")),
            Modify(parse_atom("P(a)"), parse("P(b)"), parse("T")),
            Assert_(parse("P(a) -> P(b)")),
        ],
    )
    def test_round_trip(self, update):
        assert update_from_dict(update_to_dict(update)) == update

    def test_unknown_op(self):
        with pytest.raises(PersistenceError):
            update_from_dict({"op": "upsert"})


class TestDatabaseRoundTrip:
    def test_state_and_journal(self, tmp_path):
        db = Database()
        db.update("INSERT P(a) | P(b) WHERE T")
        db.update("ASSERT P(a)")
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.theory.world_set() == db.theory.world_set()
        assert len(loaded.transactions.log) == 2

    def test_loaded_database_keeps_working(self, tmp_path):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        loaded.update("INSERT P(b) WHERE P(a)")
        assert loaded.is_certain("P(a) & P(b)")

    def test_schema_and_tagging_restored(self, tmp_path):
        schema = schema_from_dict({"R": ["A"]})
        db = Database(schema=schema)
        db.update("INSERT R(x) WHERE T")
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        loaded.update("INSERT R(y) WHERE T")  # auto-tagging must still fire
        assert loaded.is_certain("R(y) & A(y)")

    def test_bad_format(self):
        with pytest.raises(PersistenceError):
            database_from_dict({"format": "nope"})


class TestSimultaneousJournal:
    """Regression: open/simultaneous updates must journal as the set, not
    as the synthetic joint INSERT (whose replay semantics would differ)."""

    def test_open_update_replays_identically(self):
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.update("INSERT Emp(carol,hr) WHERE T")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        replayed = db.transactions.replay()
        assert replayed.world_set() == db.theory.world_set()

    def test_simultaneous_round_trips_through_json(self):
        from repro.ldml.simultaneous import SimultaneousInsert

        sim = SimultaneousInsert([("P(a)", "P(b)"), ("T", "!P(c)")])
        assert update_from_dict(update_to_dict(sim)) == sim

    def test_database_with_open_updates_round_trips(self, tmp_path):
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.theory.world_set() == db.theory.world_set()
        assert len(loaded.transactions.log) == 2

    def test_journal_kind_persisted(self, tmp_path):
        """The kind survives a round trip as the stored op, not a copy."""
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        document = database_to_dict(db)
        assert [entry["op"] for entry in document["journal"]] == [
            "insert",
            "simultaneous",
        ]
        assert not any("kind" in entry for entry in document["journal"])
        loaded = database_from_dict(document)
        assert [e.kind for e in loaded.transactions.log.entries()] == [
            "ground",
            "simultaneous",
        ]

    def test_journal_without_kind_still_loads(self):
        """Journal entries carry no kind; the loader derives it from the
        stored update object."""
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        document = json.loads(json.dumps(database_to_dict(db)))
        assert not any("kind" in entry for entry in document["journal"])
        loaded = database_from_dict(document)
        assert [e.kind for e in loaded.transactions.log.entries()] == [
            "ground",
            "simultaneous",
        ]

    def test_loaded_replay_reproduces_worlds_after_open_update(self, tmp_path):
        db = Database()
        db.update("INSERT Emp(alice,sales) | Emp(alice,hr) WHERE T")
        db.update("INSERT Emp(carol,sales) WHERE T")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        # The loaded journal replays onto the base to the same world set
        # the live engine reached before saving.
        replayed = loaded.transactions.replay()
        assert replayed.world_set() == db.theory.world_set()

    def test_round_trip_after_rollback_past_open_update(self, tmp_path):
        db = Database()
        db.update("INSERT Emp(alice,sales) WHERE T")
        db.savepoint("before-open")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        db.update("INSERT Emp(dave,hr) WHERE T")
        db.rollback("before-open")
        expected = db.theory.world_set()

        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.theory.world_set() == expected
        # The rolled-back entries are gone from the persisted journal, and
        # what remains replays to the same state.
        assert len(loaded.transactions.log) == 1
        assert loaded.transactions.replay().world_set() == expected
        # And the reloaded engine keeps working past the rollback.
        loaded.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
        assert loaded.theory.world_set() == db.theory.world_set()


class TestBackendRoundTrip:
    """Round-tripping preserves the backend, the base theory, and the
    journal — for all three execution strategies, including the theory-less
    naive backend and ``"simultaneous"`` journal entries."""

    SCRIPT = [
        "INSERT Emp(alice,sales) | Emp(alice,hr) WHERE T",
        "INSERT Emp(carol,sales) WHERE T",
        "INSERT Moved(?x) WHERE Emp(?x, sales)",
        "DELETE Emp(carol,sales) WHERE Moved(carol)",
    ]

    def _build(self, backend):
        db = Database(facts=["Emp(bob,hr)"], backend=backend)
        for statement in self.SCRIPT:
            db.update(statement)
        return db

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_worlds_and_backend_preserved(self, backend, tmp_path):
        db = self._build(backend)
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.backend.name == backend
        assert loaded.world_set() == db.world_set()

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_journal_kinds_preserved(self, backend):
        db = self._build(backend)
        loaded = database_from_dict(database_to_dict(db))
        assert [e.kind for e in loaded.transactions.log.entries()] == [
            e.kind for e in db.transactions.log.entries()
        ]
        assert "simultaneous" in {
            e.kind for e in loaded.transactions.log.entries()
        }

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_base_theory_preserved(self, backend):
        db = self._build(backend)
        loaded = database_from_dict(database_to_dict(db))
        assert loaded.transactions.base_theory.world_set() == (
            db.transactions.base_theory.world_set()
        )

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_replay_matches_live_worlds(self, backend):
        # The persisted journal replays from the persisted base to exactly
        # the live world set — the full story survives the round-trip.
        db = self._build(backend)
        loaded = database_from_dict(database_to_dict(db))
        assert loaded.transactions.replay().world_set() == db.world_set()

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_loaded_backend_keeps_working(self, backend):
        db = self._build(backend)
        loaded = database_from_dict(database_to_dict(db))
        db.update("INSERT Emp(dave,hr) WHERE T")
        loaded.update("INSERT Emp(dave,hr) WHERE T")
        assert loaded.world_set() == db.world_set()

    def test_naive_document_has_no_live_theory(self):
        db = self._build("naive")
        document = database_to_dict(db)
        assert document["theory"] is None
        assert document["backend"] == "naive"
        assert document["base"]["formulas"] == ["Emp(bob,hr)"]


def _ground_and_simultaneous(backend):
    db = Database(facts=["Emp(bob,hr)"], backend=backend)
    db.update("INSERT Emp(alice,sales) | Emp(alice,hr) WHERE T")
    db.update("INSERT Moved(?x) WHERE Emp(?x, sales)")
    db.update("DELETE Emp(bob,hr) WHERE Moved(alice)")
    return db


class TestJournalKindFromOp:
    """The journal kind is derived from the stored op; a ``"kind"`` key (as
    older versions wrote) is ignored, so it can never contradict the op."""

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_contradicting_kind_is_ignored(self, backend):
        db = _ground_and_simultaneous(backend)
        document = database_to_dict(db)
        for entry in document["journal"]:
            entry["kind"] = (
                "ground" if entry["op"] == "simultaneous" else "simultaneous"
            )
        loaded = database_from_dict(document)
        assert [e.kind for e in loaded.transactions.log.entries()] == [
            "ground",
            "simultaneous",
            "ground",
        ]
        assert loaded.world_set() == db.world_set()
        assert loaded.transactions.replay().world_set() == db.world_set()
        loaded.pipeline.last_result = None
        report = loaded.explain_update()
        assert "update #2 (ground)" in report
        assert "reconstructed" in report

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_document_with_kind_keys_loads(self, backend):
        db = _ground_and_simultaneous(backend)
        document = database_to_dict(db)
        for entry, logged in zip(
            document["journal"], db.transactions.log.entries()
        ):
            entry["kind"] = logged.kind
        loaded = database_from_dict(document)
        assert loaded.world_set() == db.world_set()
        assert [e.kind for e in loaded.transactions.log.entries()] == [
            e.kind for e in db.transactions.log.entries()
        ]


#: One well-formed journal entry per op, and the keys each one requires.
ENTRIES = {
    "insert": {"op": "insert", "body": "P(a)", "where": "T"},
    "delete": {"op": "delete", "target": "P(a)", "where": "T"},
    "modify": {"op": "modify", "target": "P(a)", "body": "P(b)", "where": "T"},
    "assert": {"op": "assert", "condition": "P(a)"},
    "simultaneous": {
        "op": "simultaneous",
        "pairs": [{"where": "T", "body": "P(a)"}],
    },
}
REQUIRED = [
    (op, key) for op, entry in ENTRIES.items() for key in entry if key != "op"
]


class TestMalformedDocuments:
    """Bad saved documents fail with a PersistenceError naming the field."""

    @pytest.mark.parametrize("op,key", REQUIRED)
    def test_missing_update_field(self, op, key):
        entry = dict(ENTRIES[op])
        del entry[key]
        with pytest.raises(PersistenceError, match=repr(key)):
            update_from_dict(entry)

    @pytest.mark.parametrize("op,key", REQUIRED)
    def test_ill_typed_update_field(self, op, key):
        entry = dict(ENTRIES[op], **{key: 7})
        with pytest.raises(PersistenceError, match=f"{key!r}.*int"):
            update_from_dict(entry)

    @pytest.mark.parametrize("key", ["where", "body"])
    def test_missing_pair_field(self, key):
        pair = {"where": "T", "body": "P(a)"}
        del pair[key]
        with pytest.raises(PersistenceError, match=f"pair 0.*{key!r}"):
            update_from_dict({"op": "simultaneous", "pairs": [pair]})

    def test_non_string_formula(self):
        document = theory_to_dict(ExtendedRelationalTheory(formulas=["P(a)"]))
        document["formulas"].append(3)
        with pytest.raises(PersistenceError, match="'formulas' entry 1.*int"):
            theory_from_dict(document)

    def test_missing_dependency_field(self):
        fd = dependency_to_dict(FunctionalDependency(Predicate("E", 2), [0], [1]))
        del fd["arity"]
        with pytest.raises(PersistenceError, match="'arity'"):
            dependency_from_dict(fd)

    @pytest.mark.parametrize("backend", ["gua", "log", "naive"])
    def test_journal_entry_without_body(self, backend):
        db = Database(backend=backend)
        db.update("INSERT P(a) WHERE T")
        document = database_to_dict(db)
        del document["journal"][0]["body"]
        with pytest.raises(PersistenceError, match="'body'"):
            database_from_dict(document)


class TestCrashSafeSaves:
    """A save that fails partway leaves the previous file intact."""

    def _fail_partway(self, monkeypatch):
        real_write = os.write
        calls = []

        def torn_write(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError("disk full")
            return real_write(fd, bytes(data[: len(data) // 2]))

        monkeypatch.setattr(os, "write", torn_write)
        return calls

    @pytest.mark.parametrize(
        "save,build",
        [
            (save_database, lambda: Database(facts=["P(a) | P(b)"])),
            (save_theory, lambda: ExtendedRelationalTheory(formulas=["P(a)"])),
        ],
        ids=["database", "theory"],
    )
    def test_failed_write_keeps_previous_file(
        self, save, build, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.json"
        save(build(), path)
        before = path.read_bytes()
        changed = build()
        if isinstance(changed, Database):
            changed.update("INSERT Q(c) WHERE T")
        else:
            changed.add_formula(parse("Q(c)"))
        calls = self._fail_partway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save(changed, path)
        assert len(calls) == 2  # the write really was cut short
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "db.json"
        save_database(Database(facts=["P(a)"]), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            save_database(Database(facts=["P(b)"]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]

    def test_save_replaces_contents(self, tmp_path):
        path = tmp_path / "db.json"
        save_database(Database(facts=["P(a)"]), path)
        save_database(Database(facts=["P(b)"]), path)
        assert load_database(path).is_certain("P(b)")
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]
