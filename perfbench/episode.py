"""One benchmark episode in a fresh interpreter.

``python3 perfbench/episode.py --workload W --seed S --t0 T [--trace] [--setup-only]``

Builds a ``Database`` (gua backend) over the Orders/Reorder schema, applies
the workload's set-up statements, then runs its timed operations as a
closed loop with one client, checking every answer against the value the
generator knows by construction.  ``--t0`` is the parent's
``time.perf_counter()`` just before it started this process, so set-up time
covers interpreter start, imports, input generation and any preload.

After every operation, outside its timing, the episode runs a fixed
calibration loop that does not touch the library (:func:`calibrate`).  The
host is a shared VM whose speed drifts by up to 2x over seconds, and the
library and the loop slow down together, so each operation's time is also
reported in *reference milliseconds* (``ref_ms``): its wall time divided by
the median time of the five calibration loops around it.  One ``ref_ms`` is
one calibration loop, about 1.7 ms on the shared 2-vCPU x86-64
host the baseline was taken on.

The last line of standard output is one JSON object with the raw samples;
``run.py`` pools them over episodes.  Every episode runs in its own
interpreter because the formula arena and the span tracer are process-wide:
a warm arena must not carry over from one episode to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stream import Workload, generate  # noqa: E402

#: Why each workload exists is recorded in BENCHMARK.json.  Sizes are set
#: so that two to four episodes fit in a 36 s run at the seed commit on a
#: shared 2-vCPU host.  Every workload asks, because ask latency is reported
#: on every workload.
WORKLOADS = {
    # Writes from an empty database; the theory grows to about 12k nodes,
    # so per-update work proportional to the theory shows in the tail.
    "ingest": Workload(preload=0, updates=400, ask_every=12),
    # A preloaded book, then mostly reads: 75% ask, 5% find, 20% writes
    # (24 per episode, so that each run has enough for a steady update_p90).
    "query_mix": Workload(preload=150, updates=24, mix=(0.75, 0.05)),
    # The ingest stream with the Section 4 simplifier every 4 updates, an
    # ask every 3 (for a steady ask_p90) and a save/load round trip, checked
    # by an ask of the loaded copy, every 50.
    "ingest_simplify": Workload(
        preload=0, updates=300, simplify_every=4, ask_every=3, persist_every=50
    ),
}


def build_database(workload: Workload):
    from repro import Database, FunctionalDependency, schema_from_dict
    from repro.logic.terms import Predicate

    schema = schema_from_dict(
        {"Orders": ["OrderNo", "PartNo", "Quan"], "Reorder": ["PartNo"]}
    )
    order_fd = FunctionalDependency(Predicate("Orders", 3), [0], [1, 2])
    return Database(
        schema=schema,
        dependencies=[order_fd],
        auto_tag=True,
        simplify_every=workload.simplify_every,
    )


def find_rows(db, text):
    return tuple(
        sorted((row.values()[0], row.status) for row in db.find(text))
    )


def run_op(db, op, workdir: Path, probe) -> bool:
    """Execute one operation; True when its answer is the expected one."""
    if op.kind == "update":
        db.update(op.text)
        return True
    if op.kind == "ask":
        return db.ask(op.text).status == op.expected
    if op.kind == "find":
        return find_rows(db, op.text) == op.expected
    from repro import persist

    path = workdir / "book.json"
    persist.save_database(db, path)
    loaded = persist.load_database(path)
    probe.persisted_file(path.stat().st_size, len(db.transactions.log))
    return loaded.ask(op.text).status == op.expected


#: Calibration loops in the window an operation's time is divided by.
CALIBRATION_WINDOW = 5


def clauses(count, variables):
    """A fixed 3-CNF, drawn from a linear congruential generator."""
    state, drawn = 12345, []
    for _ in range(count):
        clause = []
        for _ in range(3):
            state = (state * 1103515245 + 12345) % 2**31
            clause.append((state % variables + 1) * (1 if state & 1024 else -1))
        drawn.append(clause)
    return drawn


def calibration_tables():
    """(small, large) clause sets for :func:`calibrate`; the large one, about
    6 MB, does not fit in a core's own caches."""
    return clauses(600, 200), clauses(40000, 8000)


def calibrate(tables):
    """A fixed piece of pure-Python work whose time measures the host's
    current speed, in three parts: tuple-keyed dict updates and string
    building; watch lists built over a small clause set and scanned, the
    kind of work the library's solver does; and clauses copied from random
    places in a large set, which slows down, as the library's asks over a
    large theory do, when neighbours contend for the memory caches.  With
    the third part, normalised ask times spread a half less over seeds."""
    small, large = tables
    table = {}
    for i in range(400):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + len(str(i))
    watches = {}
    for index, clause in enumerate(small):
        for literal in clause[:2]:
            watches.setdefault(literal, []).append(index)
    assigned = set()
    for variable in range(1, 60):
        assigned.add(variable)
        for index in watches.get(-variable, ()):
            sum(abs(literal) not in assigned for literal in small[index])
    copied = {}
    state = 777
    for _ in range(800):
        state = (state * 1103515245 + 12345) % 2**31
        clause = list(large[state % len(large)])
        for literal in clause[:2]:
            copied.setdefault(literal, []).append(clause)
    return sorted(table.items()), len(watches), len(copied)


def in_ref_ms(op_s, calibration_s):
    """Each operation's wall time over the median of the calibration loops
    nearest it, a window of :data:`CALIBRATION_WINDOW` loops."""
    n = len(calibration_s)
    width = min(CALIBRATION_WINDOW, n)
    scaled = []
    for i, seconds in enumerate(op_s):
        low = max(0, min(i - width // 2, n - width))
        scaled.append(seconds / statistics.median(calibration_s[low:low + width]))
    return scaled


class NoProbe:
    """The untraced run's probe: observes nothing."""

    def start(self):
        pass

    def observe(self, kind, seconds):
        pass

    def persisted_file(self, size, updates):
        pass


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="episode.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    preload, ops, _ = generate(workload, f"{args.workload}:{args.seed}")
    db = build_database(workload)
    for statement in preload:
        db.update(statement)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        from layers import LayerProbe

        probe = LayerProbe(db)
    else:
        probe = NoProbe()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        shutil.rmtree(workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    op_s = []
    calibration_s = []
    failed = 0
    errors = []
    tables = calibration_tables()
    calibrate(tables)  # warm
    probe.start()
    for op in ops:
        started = time.perf_counter()
        try:
            ok = run_op(db, op, workdir, probe)
            error = None if ok else f"{op.kind} {op.text!r}: expected {op.expected!r}"
        except Exception as exc:  # a raised operation counts as failed
            error = f"{op.kind} {op.text!r}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        op_s.append(elapsed)
        started = time.perf_counter()
        calibrate(tables)
        calibration_s.append(time.perf_counter() - started)
        probe.observe(op.kind, elapsed)
        if error is not None:
            failed += 1
            errors.append(error)
    op_ref = in_ref_ms(op_s, calibration_s)
    layers = None
    if args.trace:
        finds = sum(op.kind == "find" for op in ops)
        layers = probe.finish(finds)
    shutil.rmtree(workdir)

    snapshot = db.metrics_snapshot()
    result = {
        "setup_s": setup_s,
        "phase_ref": sum(op_ref),
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:5],
        "kinds": [op.kind for op in ops],
        "op_s": op_s,
        "op_ref": op_ref,
        "calibration_s": calibration_s,
        "updates": len(db.transactions.log),
        "nodes": db.size(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "obs_enabled": snapshot["obs.enabled"],
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
