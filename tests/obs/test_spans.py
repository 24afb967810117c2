"""The hierarchical span tracer: nesting, no-op path, rollback discard, and
the bounded root ring."""

import pytest

from repro.errors import ReproError
from repro.obs.spans import NOOP, TRACER, span


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert TRACER.enabled is False

    def test_span_is_falsy_noop_when_disabled(self):
        sp = span("sat.solve")
        assert sp is NOOP
        assert not sp
        with sp as inner:
            # Attribute writes are swallowed, not stored.
            inner.attrs["clauses"] = 10
            inner.attrs.update(worlds=3)
        assert dict(inner.attrs) == {}
        assert TRACER.roots() == ()

    def test_noop_exits_clean_on_exception(self):
        with pytest.raises(ValueError):
            with span("pipeline.update"):
                raise ValueError("boom")


class TestNesting:
    def test_tree_assembles_through_contextvar(self, traced):
        with span("pipeline.update") as root:
            with span("gua.apply"):
                with span("sat.solve"):
                    pass
            with span("theory.consistency"):
                pass
        assert [child.name for child in root.children] == [
            "gua.apply",
            "theory.consistency",
        ]
        assert root.children[0].children[0].name == "sat.solve"
        assert traced.roots() == (root,)

    def test_attrs_and_timings_recorded(self, traced):
        with span("gua.step2_rename", renamed=2) as sp:
            sp.attrs["occurrences"] = 3
        assert sp.attrs == {"renamed": 2, "occurrences": 3}
        assert sp.wall_seconds >= 0.0
        assert sp.cpu_seconds >= 0.0

    def test_exception_marks_error_attr(self, traced):
        with pytest.raises(ReproError):
            with span("pipeline.update"):
                raise ReproError("inconsistent")
        (root,) = traced.roots()
        assert root.attrs["error"] == "ReproError"

    def test_walk_and_find(self, traced):
        with span("a") as root:
            with span("b"):
                with span("sat.solve"):
                    pass
            with span("sat.solve"):
                pass
        depths = [(depth, node.name) for depth, node in root.walk()]
        assert depths == [(0, "a"), (1, "b"), (2, "sat.solve"), (1, "sat.solve")]
        assert len(list(root.find("sat.solve"))) == 2

    def test_render_tree(self, traced):
        with span("pipeline.update", pipeline=7, kind="ground") as root:
            with span("gua.apply", g=4):
                pass
        text = root.render()
        lines = text.splitlines()
        assert lines[0].startswith("pipeline.update")
        assert lines[1].startswith("  gua.apply")
        assert "g=4" in lines[1]
        # The pipeline-id attribute is display noise and hidden.
        assert "pipeline=7" not in text
        assert "kind=ground" in text


class TestTracerBookkeeping:
    def test_ring_buffer_bounded(self, traced):
        traced.configure(keep_last=4)
        for i in range(10):
            with span("root", index=i):
                pass
        roots = traced.roots()
        assert len(roots) == 4
        assert [r.attrs["index"] for r in roots] == [6, 7, 8, 9]
        assert traced.roots_finished == 10

    def test_last_root_and_find_root(self, traced):
        for i in range(3):
            with span("pipeline.update", sequence=i):
                pass
        assert traced.last_root().attrs["sequence"] == 2
        match = traced.find_root(lambda r: r.attrs["sequence"] == 1)
        assert match is not None and match.attrs["sequence"] == 1

    def test_discard(self, traced):
        for i in range(4):
            with span("pipeline.update", sequence=i):
                pass
        dropped = traced.discard(lambda r: r.attrs["sequence"] >= 2)
        assert dropped == 2
        assert [r.attrs["sequence"] for r in traced.roots()] == [0, 1]

    def test_statistics_keys(self, traced):
        with span("root"):
            with span("child"):
                pass
        stats = traced.statistics()
        assert stats["enabled"] == 1
        assert stats["spans_started"] == 2
        assert stats["roots_finished"] == 1
        assert stats["roots_buffered"] == 1

    def test_reset_keeps_configuration(self, traced):
        traced.configure(keep_last=5)
        with span("root"):
            pass
        traced.reset()
        assert traced.roots() == ()
        assert traced.spans_started == 0
        for _ in range(6):
            with span("root"):
                pass
        assert len(traced.roots()) == 5
        assert traced.enabled is True
