"""Self-test of the benchmark's answer checking.

``python3 perfbench/selftest.py`` runs a short stream of every operation
kind through a ``Database`` and requires that

1. every generated answer matches the engine, including every status the
   generator tracks, asked of the engine at the end of the stream;
2. a planted wrong expectation (one ask, one find and one post-load ask)
   is reported as a failure;
3. ``BENCHMARK.json`` names the workloads and metrics, with the units,
   that the benchmark prints.

Exits 0 when both hold.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402

from episode import WORKLOADS, NoProbe, build_database, run_op  # noqa: E402
from layers import UNITS as LAYER_UNITS  # noqa: E402
from run import END_TO_END  # noqa: E402
from stream import IMPOSSIBLE, POSSIBLE, Workload, generate  # noqa: E402

SMALL = Workload(preload=0, updates=60, ask_every=2, find_every=5, persist_every=20)


def wrong(expected):
    """A different answer of the same shape."""
    if isinstance(expected, str):
        return POSSIBLE if expected != POSSIBLE else IMPOSSIBLE
    return expected + (("0", "certain"),)


def run(ops, workdir):
    db = build_database(SMALL)
    failures = [op for op in ops if not run_op(db, op, workdir, NoProbe())]
    return db, failures


def declared_matches_printed() -> bool:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = lambda entries: {m["name"]: m["unit"] for m in entries}
    return (
        {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
        and pairs(declared["end_to_end"]) == END_TO_END
        and pairs(declared["per_layer"]) == LAYER_UNITS
    )


def main() -> int:
    if not declared_matches_printed():
        print("FAIL: BENCHMARK.json disagrees with the metrics the benchmark prints")
        return 1
    workdir = ROOT / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, ops, book = generate(SMALL, "selftest")
        db, failures = run(ops, workdir)
        if failures:
            print(f"FAIL: {len(failures)} answers differ, first: {failures[0]}")
            return 1
        # Every status the model holds at the end, asked of the engine.
        differing = [
            text for text, status in book.status.items()
            if db.ask(text).status != status
        ]
        if differing:
            print(f"FAIL: final statuses differ for {differing[:5]}")
            return 1
        planted = list(ops)
        for kind in ("ask", "find", "persist"):
            index = next(i for i, op in enumerate(planted) if op.kind == kind)
            planted[index] = dataclasses.replace(
                planted[index], expected=wrong(planted[index].expected)
            )
        _, failures = run(planted, workdir)
        if sorted(op.kind for op in failures) != ["ask", "find", "persist"]:
            print(f"FAIL: planted errors not all caught: {failures}")
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:  # shared with concurrent runs; removed only when empty
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"ok: {len(ops)} operations checked, {len(book.status)} final statuses "
          "match, 3 planted wrong expectations caught")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
