"""Unit tests for update logs, savepoints, and replay."""

import dataclasses

import pytest

from repro.core.engine import Database
from repro.core.transaction import (
    KIND_GROUND,
    KIND_SIMULTANEOUS,
    TransactionManager,
    UpdateLog,
    kind_of,
)
from repro.errors import UpdateError
from repro.ldml.parser import parse_update
from repro.ldml.simultaneous import SimultaneousInsert
from repro.theory.theory import ExtendedRelationalTheory


class TestUpdateLog:
    def test_record_sequence_numbers(self):
        log = UpdateLog()
        first = log.record(parse_update("INSERT P(a)"), 10)
        second = log.record(parse_update("INSERT P(b)"), 20)
        assert (first.sequence, second.sequence) == (0, 1)

    def test_updates_view(self):
        log = UpdateLog()
        update = parse_update("INSERT P(a)")
        log.record(update, 1)
        assert log.updates() == [update.to_insert()] or log.updates() == [update]

    def test_truncate(self):
        log = UpdateLog()
        log.record(parse_update("INSERT P(a)"), 1)
        log.record(parse_update("INSERT P(b)"), 2)
        log.truncate(1)
        assert len(log) == 1

    def test_truncate_bounds(self):
        log = UpdateLog()
        with pytest.raises(UpdateError):
            log.truncate(5)

    def test_kind_derived_structurally(self):
        log = UpdateLog()
        ground = log.record(parse_update("INSERT P(a)"), 1)
        sim = log.record(SimultaneousInsert([("T", "P(b)")]), 2)
        assert ground.kind == KIND_GROUND
        assert sim.kind == KIND_SIMULTANEOUS
        assert kind_of(sim.update) == KIND_SIMULTANEOUS

    def test_entry_stores_only_the_update(self):
        entry = UpdateLog().record(parse_update("INSERT P(a)"), 1)
        assert [f.name for f in dataclasses.fields(entry)] == [
            "sequence",
            "update",
            "theory_size_after",
        ]
        # The kind is a view of the stored object, so it cannot disagree.
        assert entry.kind == kind_of(entry.update)


class TestReplay:
    def test_replay_matches_live_theory(self):
        db = Database()
        db.update("INSERT P(a) | P(b) WHERE T")
        db.update("ASSERT P(a)")
        replayed = db.transactions.replay()
        assert replayed.world_set() == db.theory.world_set()

    def test_replay_prefix(self):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        db.update("DELETE P(a) WHERE T")
        halfway = db.transactions.replay(upto=1)
        assert halfway.world_count() == 1
        from repro.logic.parser import parse

        assert all(w.satisfies(parse("P(a)")) for w in halfway.alternative_worlds())

    def test_replay_honors_simultaneous_entries(self):
        """A journaled SimultaneousInsert must replay through the same
        simultaneous path live execution used — replaying it as the
        synthetic joint INSERT would conjoin all bodies unconditionally."""
        theory = ExtendedRelationalTheory(formulas=["P(a)"])
        manager = TransactionManager(theory)
        sim = SimultaneousInsert(
            [("P(a)", "Q(a)"), ("P(b)", "Q(b)")]
        )
        from repro.core.gua import GuaExecutor

        GuaExecutor(theory).apply_simultaneous(sim)
        manager.log.record(sim, theory.size())
        replayed = manager.replay()
        assert replayed.world_set() == theory.world_set()
        # Only the satisfied clause's body landed: Q(a) yes, Q(b) no.
        from repro.query.answers import is_certain, is_possible

        assert is_certain(replayed, "Q(a)")
        assert not is_possible(replayed, "Q(b)")

    def test_base_theory_snapshot_is_isolated(self):
        theory = ExtendedRelationalTheory(formulas=["P(a)"])
        manager = TransactionManager(theory)
        theory.add_formula("P(b)")
        assert len(manager.base_theory.formulas()) == 1


class TestSavepoints:
    def test_rollback_restores_worlds(self):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        db.savepoint("after_a")
        before = db.theory.world_set()
        db.update("INSERT P(b) | P(c) WHERE T")
        assert db.theory.world_set() != before
        db.rollback("after_a")
        assert db.theory.world_set() == before

    def test_rollback_truncates_log(self):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        db.savepoint("sp")
        db.update("INSERT P(b) WHERE T")
        db.rollback("sp")
        assert len(db.transactions.log) == 1

    def test_unknown_savepoint(self):
        db = Database()
        with pytest.raises(UpdateError):
            db.rollback("nope")

    def test_later_savepoints_invalidated(self):
        db = Database()
        db.savepoint("first")
        db.update("INSERT P(a) WHERE T")
        db.savepoint("second")
        db.rollback("first")
        with pytest.raises(UpdateError):
            db.rollback("second")

    def test_rollback_past_open_update(self):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        db.savepoint("sp")
        before = db.theory.world_set()
        db.update("INSERT Q(?x) WHERE P(?x)")
        db.rollback("sp")
        assert db.theory.world_set() == before
        assert [e.kind for e in db.transactions.log.entries()] == [KIND_GROUND]
        # The axiom-instance registry rewound too: re-running the open
        # update must re-derive exactly the live-execution state.
        db.update("INSERT Q(?x) WHERE P(?x)")
        assert db.transactions.replay().world_set() == db.theory.world_set()

    def test_updates_after_rollback_work(self):
        db = Database()
        db.update("INSERT P(a) WHERE T")
        db.savepoint("sp")
        db.update("INSERT P(b) WHERE T")
        db.rollback("sp")
        db.update("INSERT P(c) WHERE T")
        assert db.is_certain("P(a) & P(c)")
        assert not db.is_possible("P(b)")
