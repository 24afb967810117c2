"""Command-line interface: run LDML scripts and query interactively.

Usage::

    python -m repro script.ldml          # run a ';'-separated LDML script
    python -m repro                      # interactive session
    python -m repro --load db.json       # resume a saved database
    python -m repro fuzz --seed 7 --cases 200   # differential fuzzing (qa)

Interactive commands (anything else is parsed as an LDML statement):

    .ask <wff>        three-valued answer (certain / possible / impossible)
    .select <rel>     tuple membership with status
    .worlds [n]       list (up to n) alternative worlds
    .theory           print the theory with its derived axioms
    .metrics          engine metrics under dotted names (theory sizes, SAT
                      counters, caches, formula-arena counters, stage timings)
    .trace            per-stage pipeline timings (last update + totals)
    .explain          the last update as the paper's GUA Step 1-7 narrative
    .spans [min_ms]   span tree of the last traced update (needs --trace)
    .simplify         run the Section 4 simplifier
    .savepoint <name> / .rollback <name>
    .save <file> / .load <file>
    .sql <statement>  run one SQL-ish statement
    .help / .quit
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.engine import Database
from repro.errors import ReproError
from repro.persist import load_database, save_database


def _print_result(db: Database, result, out=None) -> None:
    stats = result.stats
    print(
        f"ok (g={stats.g}, +{stats.wffs_added} wffs, "
        f"theory={db.size()} nodes)",
        file=out,
    )


def run_script_text(db: Database, text: str, out=None) -> int:
    """Run a ';'-separated LDML script; returns the number of updates."""
    from repro.ldml.parser import parse_script

    count = 0
    for update in parse_script(text):
        db.update(update)
        count += 1
    print(f"applied {count} updates; theory={db.size()} nodes", file=out)
    return count


def handle_command(db: Database, line: str, out=None) -> Optional[Database]:
    """Execute one interactive line; returns a replacement Database when
    .load swaps the engine, else None."""
    stripped = line.strip()
    if not stripped:
        return None
    if not stripped.startswith("."):
        result = db.update(stripped)
        _print_result(db, result, out)
        return None

    parts = stripped.split(None, 1)
    command = parts[0]
    argument = parts[1].strip() if len(parts) > 1 else ""

    if command == ".help":
        print(__doc__, file=out)
    elif command == ".ask":
        print(db.ask(argument).status, file=out)
    elif command == ".select":
        for row in db.select(argument):
            print(f"  {row.values()}  --  {row.status}", file=out)
    elif command == ".find":
        for row in db.find(argument):
            bound = ", ".join(f"?{n}={v}" for n, v in row.binding)
            print(f"  {bound}  --  {row.status}", file=out)
    elif command == ".worlds":
        limit = int(argument) if argument else 20
        try:
            worlds = list(db.theory.alternative_worlds(limit=limit))
        except ReproError:  # theory-less backend: materialized worlds
            worlds = list(db.worlds())[:limit]
        for world in sorted(worlds, key=repr):
            print(f"  {world}", file=out)
        if len(worlds) == limit:
            print(f"  ... (showing first {limit})", file=out)
    elif command == ".theory":
        print(db.theory.pretty(), file=out)
    elif command == ".metrics":
        from repro.obs import render_metrics

        print(render_metrics(db.metrics_snapshot()), file=out)
    elif command == ".explain":
        print(db.explain_update(), file=out)
    elif command == ".spans":
        from repro.obs import TRACER, enabled

        root = TRACER.find_root(
            lambda r: r.attrs.get("pipeline") == db.pipeline.pipeline_id
        )
        if root is None:
            hint = "" if enabled() else " (tracing is off; run with --trace)"
            print(f"no spans recorded{hint}", file=out)
        else:
            min_ms = float(argument) if argument else 0.0
            print(root.render(min_ms=min_ms), file=out)
    elif command == ".trace":
        trace = db.last_trace()
        if trace is None:
            print("no updates traced yet", file=out)
        else:
            print(
                f"update #{trace.sequence} ({trace.kind}) via "
                f"{trace.backend}: {trace.total_seconds * 1e3:.3f} ms",
                file=out,
            )
            for event in trace.events:
                detail = ", ".join(
                    f"{k}={v}" for k, v in event.detail.items()
                )
                print(
                    f"  {event.stage:<9} {event.seconds * 1e3:9.3f} ms"
                    + (f"  ({detail})" if detail else ""),
                    file=out,
                )
        print("cumulative:", file=out)
        for stage, histogram in db.tracer.histograms.items():
            print(
                f"  {stage:<9} {histogram.count:6d} calls "
                f"{histogram.total * 1e3:10.3f} ms",
                file=out,
            )
    elif command == ".simplify":
        report = db.simplify()
        print(
            f"{report.size_before} -> {report.size_after} nodes "
            f"({report.constants_eliminated} predicate constants eliminated)",
            file=out,
        )
    elif command == ".savepoint":
        db.savepoint(argument or "default")
        print(f"savepoint {argument or 'default'!r} created", file=out)
    elif command == ".rollback":
        db.rollback(argument or "default")
        print(f"rolled back to {argument or 'default'!r}", file=out)
    elif command == ".save":
        save_database(db, argument)
        print(f"saved to {argument}", file=out)
    elif command == ".load":
        replacement = load_database(argument)
        print(f"loaded {argument}", file=out)
        return replacement
    elif command == ".sql":
        result = db.sql(argument)
        _print_result(db, result, out)
    elif command == ".quit":
        raise EOFError
    else:
        print(f"unknown command {command}; try .help", file=out)
    return None


def repl(db: Database) -> None:
    print("repro LDML shell — .help for commands, .quit to exit")
    while True:
        try:
            line = input("ldml> ")
        except EOFError:
            print()
            return
        try:
            replacement = handle_command(db, line)
            if replacement is not None:
                db = replacement
        except EOFError:
            return
        except ReproError as error:
            print(f"error: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommands dispatch before argparse (the flat grammar stays as-is
    # for the common script/REPL path).
    if argv and argv[0] == "fuzz":
        from repro.qa.cli import fuzz_main

        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LDML shell for extended relational theories (Winslett 1986)",
    )
    parser.add_argument("script", nargs="?", help="LDML script file to run")
    parser.add_argument("--load", help="resume a saved database (JSON)")
    parser.add_argument("--save", help="save the database on exit (JSON)")
    parser.add_argument(
        "--backend",
        choices=["gua", "log", "naive"],
        default="gua",
        help="update-execution backend (default: gua)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable hierarchical span tracing (.spans, richer .explain)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace_event JSON of the session's spans on "
        "exit (implies --trace; open in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(argv)

    if args.trace or args.trace_out:
        from repro.obs import configure

        configure(enabled=True)

    db = (
        load_database(args.load)
        if args.load
        else Database(backend=args.backend)
    )

    status = 0
    if args.script:
        try:
            with open(args.script) as handle:
                run_script_text(db, handle.read())
        except (OSError, ReproError) as error:
            print(f"error: {error}", file=sys.stderr)
            status = 1
    else:
        repl(db)

    if args.save and status == 0:
        save_database(db, args.save)
        print(f"saved to {args.save}")
    if args.trace_out:
        from repro.obs import TRACER, write_chrome_trace

        write_chrome_trace(TRACER, args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
