"""Unit tests for the LDML shell (repro.cli)."""

import io
import re

import pytest

from repro.cli import handle_command, main, run_script_text
from repro.core.engine import Database


@pytest.fixture
def db():
    return Database()


class TestHandleCommand:
    def test_ldml_statement(self, db, capsys):
        handle_command(db, "INSERT P(a) WHERE T")
        assert db.is_certain("P(a)")
        assert "ok" in capsys.readouterr().out

    def test_ask(self, db, capsys):
        handle_command(db, "INSERT P(a) | P(b) WHERE T")
        out = io.StringIO()
        handle_command(db, ".ask P(a)", out=out)
        assert out.getvalue().strip() == "possible"

    def test_select(self, db):
        handle_command(db, "INSERT Orders(1,32,5) WHERE T")
        out = io.StringIO()
        handle_command(db, ".select Orders", out=out)
        assert "certain" in out.getvalue()

    def test_worlds(self, db):
        handle_command(db, "INSERT P(a) | P(b) WHERE T")
        out = io.StringIO()
        handle_command(db, ".worlds", out=out)
        assert out.getvalue().count("World") == 3

    def test_worlds_limit(self, db):
        handle_command(db, "INSERT P(a) | P(b) WHERE T")
        out = io.StringIO()
        handle_command(db, ".worlds 2", out=out)
        assert "showing first 2" in out.getvalue()

    def test_theory(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        out = io.StringIO()
        handle_command(db, ".theory", out=out)
        assert "non-axiomatic section" in out.getvalue()

    def test_trace_before_any_update(self, db):
        out = io.StringIO()
        handle_command(db, ".trace", out=out)
        text = out.getvalue()
        assert "no updates traced yet" in text
        assert "cumulative" in text

    def test_trace_after_update(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        out = io.StringIO()
        handle_command(db, ".trace", out=out)
        text = out.getvalue()
        assert "update #0 (ground) via gua" in text
        for stage in ("parse", "normalize", "tag", "execute", "journal",
                      "maintain"):
            assert stage in text
            # The cumulative section reads the stage histograms.
            assert re.search(rf"\n  {stage}\s+1 calls", text), stage

    def test_trace_open_update(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        handle_command(db, "INSERT Q(?x) WHERE P(?x)")
        out = io.StringIO()
        handle_command(db, ".trace", out=out)
        assert "(open)" in out.getvalue()

    def test_simplify(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        handle_command(db, "INSERT !P(a) WHERE T")
        out = io.StringIO()
        handle_command(db, ".simplify", out=out)
        assert "->" in out.getvalue()

    def test_savepoint_rollback(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        handle_command(db, ".savepoint sp", out=io.StringIO())
        handle_command(db, "INSERT P(b) WHERE T")
        handle_command(db, ".rollback sp", out=io.StringIO())
        assert not db.is_possible("P(b)")

    def test_save_and_load(self, db, tmp_path):
        handle_command(db, "INSERT P(a) WHERE T")
        path = tmp_path / "db.json"
        handle_command(db, f".save {path}", out=io.StringIO())
        replacement = handle_command(db, f".load {path}", out=io.StringIO())
        assert replacement is not None
        assert replacement.is_certain("P(a)")

    def test_sql(self, db):
        out = io.StringIO()
        handle_command(db, ".sql INSERT INTO Orders VALUES (1, 2, 3)", out=out)
        assert db.is_certain("Orders(1,2,3)")

    def test_quit_raises_eof(self, db):
        with pytest.raises(EOFError):
            handle_command(db, ".quit")

    def test_unknown_command(self, db):
        out = io.StringIO()
        handle_command(db, ".frobnicate", out=out)
        assert "unknown command" in out.getvalue()

    def test_blank_line_noop(self, db):
        assert handle_command(db, "   ") is None

    def test_explain(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        out = io.StringIO()
        handle_command(db, ".explain", out=out)
        text = out.getvalue()
        assert "GUA EXPLAIN" in text
        assert "Step 1" in text and "Step 7" in text

    def test_metrics(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        out = io.StringIO()
        handle_command(db, ".metrics", out=out)
        text = out.getvalue()
        assert "theory.wffs" in text
        assert "pipeline.execute.seconds.count" in text

    def test_spans_hint_when_tracing_off(self, db):
        handle_command(db, "INSERT P(a) WHERE T")
        out = io.StringIO()
        handle_command(db, ".spans", out=out)
        assert "tracing is off" in out.getvalue()

    def test_spans_with_tracing(self, db):
        from repro.obs.spans import TRACER

        TRACER.reset()
        TRACER.configure(enabled=True)
        try:
            handle_command(db, "INSERT P(a) WHERE T")
            out = io.StringIO()
            handle_command(db, ".spans", out=out)
        finally:
            TRACER.configure(enabled=False)
            TRACER.reset()
        text = out.getvalue()
        assert "pipeline.update" in text
        assert "gua.apply" in text

    def test_help(self, db):
        out = io.StringIO()
        handle_command(db, ".help", out=out)
        assert ".ask" in out.getvalue()


class TestScriptRunner:
    def test_run_script_text(self, db):
        out = io.StringIO()
        count = run_script_text(
            db,
            "INSERT P(a); INSERT P(b) | P(c) WHERE P(a); ASSERT P(b)",
            out=out,
        )
        assert count == 3
        assert db.is_certain("P(b)")

    def test_main_with_script_file(self, tmp_path, capsys):
        script = tmp_path / "load.ldml"
        script.write_text("INSERT P(a);\n-- comment\nASSERT P(a)\n")
        status = main([str(script)])
        assert status == 0
        assert "applied 2 updates" in capsys.readouterr().out

    def test_main_missing_file(self, tmp_path, capsys):
        status = main([str(tmp_path / "missing.ldml")])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_main_save_flag(self, tmp_path, capsys):
        script = tmp_path / "s.ldml"
        script.write_text("INSERT P(a)")
        out_file = tmp_path / "out.json"
        status = main([str(script), "--save", str(out_file)])
        assert status == 0
        assert out_file.exists()

    def test_main_load_flag(self, tmp_path, capsys):
        from repro.persist import save_database

        db = Database()
        db.update("INSERT P(a) WHERE T")
        saved = tmp_path / "db.json"
        save_database(db, saved)
        script = tmp_path / "more.ldml"
        script.write_text("ASSERT P(a)")
        status = main(["--load", str(saved), str(script)])
        assert status == 0

    def test_main_backend_flag(self, tmp_path, capsys):
        script = tmp_path / "updates.ldml"
        script.write_text("INSERT P(a) WHERE T; ASSERT P(a)")
        for backend in ("gua", "log", "naive"):
            status = main(["--backend", backend, str(script)])
            assert status == 0
            assert "applied 2 updates" in capsys.readouterr().out

    def test_main_trace_out_flag(self, tmp_path, capsys):
        import json

        from repro.obs.spans import TRACER

        script = tmp_path / "updates.ldml"
        script.write_text("INSERT P(a) | P(b) WHERE T")
        trace_file = tmp_path / "trace.json"
        try:
            status = main([str(script), "--trace-out", str(trace_file)])
        finally:
            TRACER.configure(enabled=False)
            TRACER.reset()
        assert status == 0
        trace = json.loads(trace_file.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "pipeline.update" in names and "gua.apply" in names
