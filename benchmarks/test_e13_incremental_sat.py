"""E13 — the incremental SAT engine pays setup once, not once per world.

The seed solver rebuilt its entire instance (atom interning + occurrence
lists) for every model the enumerators produced, an O(worlds × clauses)
setup bill; and the theory re-ran Tseitin over the whole non-axiomatic
section whenever anything changed.  This experiment measures both fixes on
the E4/E5 workload shapes:

* **E13a** — world enumeration over an E4-style populated theory with a
  branching update stream (3^k worlds): one reusable solver fed blocking
  clauses via ``add_clause`` versus the seed discipline of a fresh solver
  per world.  The incremental path must be at least 2x faster.
* **E13b** — an E5-style update/query alternation: every update invalidates
  the seed's whole-section clause cache, while the per-wff cache re-encodes
  only the wffs the update touched.  Asserted through the engine's own
  ``tseitin_cache_*`` counters plus a wall-clock comparison against full
  re-encoding.
"""

import time

from repro.bench.report import print_table
from repro.bench.workload import (
    branching_stream,
    populated_theory,
    update_with_g_atoms,
)
from repro.core.gua import GuaExecutor
from repro.logic.cnf import tseitin
from repro.logic.sat import Solver
from repro.logic.valuation import Valuation

R_SWEEP = [100, 200, 400]
BRANCHING_K = 4  # 3^4 = 81 worlds


def _branching_theory(r, k=BRANCHING_K):
    theory = populated_theory(r)
    executor = GuaExecutor(theory)
    for update in branching_stream(k):
        executor.apply(update)
    return theory


def _legacy_iter_projected_models(clauses, onto):
    """The seed enumeration discipline: a fresh solver per world.

    Uses the current search core, so the comparison isolates exactly the
    per-world setup cost (interning + watch-list construction) that
    solver reuse eliminates.
    """
    onto_set = frozenset(onto)
    clause_list = list(clauses)
    while True:
        solver = Solver(clause_list)
        model = solver.solve(use_pure_literals=False)
        if model is None:
            return
        projection_items = {a: model.get(a, False) for a in onto_set}
        yield Valuation(projection_items)
        blocking = frozenset(
            (a, not v) for a, v in projection_items.items() if a in model
        )
        if not blocking:
            return
        clause_list.append(blocking)


def test_enumeration_reuses_solver(benchmark):
    rows = []
    speedups = []
    for r in R_SWEEP:
        theory = _branching_theory(r)
        clauses = theory.clauses()
        universe = theory.atom_universe()

        start = time.perf_counter()
        legacy = list(_legacy_iter_projected_models(clauses, universe))
        legacy_time = time.perf_counter() - start

        start = time.perf_counter()
        incremental = list(theory.alternative_worlds())
        incremental_time = time.perf_counter() - start

        assert len(legacy) == len(incremental) == 3 ** BRANCHING_K
        speedup = legacy_time / incremental_time
        speedups.append(speedup)
        rows.append([r, len(incremental), legacy_time, incremental_time, speedup])

    print_table(
        "E13a: world enumeration, fresh-solver-per-world vs reusable solver",
        ["R", "worlds", "legacy s", "incremental s", "speedup"],
        rows,
        note="seed setup cost is O(worlds x clauses); reuse pays it once",
    )
    # Acceptance: at least 2x on the E4 scaling workload (largest point).
    assert speedups[-1] >= 2.0, speedups

    theory = _branching_theory(R_SWEEP[0])
    benchmark(lambda: sum(1 for _ in theory.alternative_worlds()))


def test_update_query_alternation_hits_wff_cache(benchmark):
    """E5-style stream: updates interleaved with queries.

    Each update bumps the store version, so the seed's whole-section cache
    would re-encode everything on the next query; the per-wff cache
    re-encodes only the wffs the update added or renamed.
    """
    stream_length = 30

    theory = populated_theory(100)
    executor = GuaExecutor(theory)
    theory.reset_solver_statistics()

    incremental_time = 0.0
    for i in range(stream_length):
        executor.apply(update_with_g_atoms(3, offset=10 * i))
        start = time.perf_counter()
        theory.clauses()
        incremental_time += time.perf_counter() - start
    stats = theory.tseitin_statistics()

    # The seed discipline: Tseitin over the whole section on every query.
    full_time = 0.0
    for _ in range(stream_length):
        start = time.perf_counter()
        for i, formula in enumerate(theory.formulas()):
            tseitin(formula, prefix=f"@ts{i}_")
        full_time += time.perf_counter() - start

    hits = stats["cache_hits"]
    misses = stats["cache_misses"]
    rows = [
        ["updates (each followed by a query)", stream_length],
        ["wffs at end of stream", len(theory.formulas())],
        ["per-wff cache hits", hits],
        ["per-wff cache misses", misses],
        ["incremental clauses() total s", incremental_time],
        ["full re-encode total s", full_time],
    ]
    print_table(
        "E13b: per-wff Tseitin cache under an update/query alternation",
        ["metric", "value"],
        rows,
        note="misses stay O(wffs touched per update); seed re-encoded all",
    )
    # Every query re-encoded only the update's new wffs: hit traffic must
    # dominate (the stream adds ~1 wff per update to a 100-wff section).
    assert hits > misses * 5, (hits, misses)
    assert full_time > incremental_time * 2, (full_time, incremental_time)

    benchmark(theory.clauses)


def test_solver_metrics_surface():
    """The counters the CLI and Database.metrics_snapshot() expose are live."""
    from repro.core.engine import Database

    db = Database()
    db.update("INSERT P(a) | P(b) WHERE T")
    db.ask("P(a)")
    db.world_count()
    stats = db.metrics_snapshot()
    for key in (
        "sat.decisions",
        "sat.propagations",
        "sat.conflicts",
        "sat.solve_calls",
        "sat.clauses_added",
        "tseitin.cache_hits",
        "tseitin.cache_misses",
        "engine.updates_applied",
    ):
        assert key in stats, key
    assert stats["sat.solve_calls"] > 0
    assert stats["engine.updates_applied"] == 1
