"""E4 — GUA runs in O(g·log R) (Section 3.6).

Two sweeps:

* fix g, grow R (the largest predicate's distinct-atom count): per-update
  time must be strongly sublinear in R (the only R-dependence is the index
  lookup).  We assert the empirical power-law exponent stays well below
  linear.
* fix R, grow g (ground-atom instances in the update): per-update time must
  be roughly linear in g.

Absolute numbers are CPython, not the paper's pointer machine; the *shape*
is the claim under test.
"""

import pytest

from repro.bench.measure import fit_power_law
from repro.bench.report import print_table
from repro.bench.workload import (
    populated_theory,
    update_touching_existing,
)
from repro.core.gua import GuaExecutor

R_SWEEP = [200, 800, 3200, 12800]
G_SWEEP = [1, 2, 4, 8, 16, 32]
FIXED_G = 4
FIXED_R = 2000
REPEATS = 20
RENAME_SAMPLES = 21  #: renames timed per occurrence count (E4c); median kept


def _time_updates(theory, updates):
    """Total wall time of applying *updates* through one executor."""
    import time

    executor = GuaExecutor(theory)
    start = time.perf_counter()
    for update in updates:
        executor.apply(update)
    return (time.perf_counter() - start) / len(updates)


def _updates_over_distinct_atoms(theory, g, count):
    """*count* updates, each touching g distinct existing atoms."""
    return [_nth_update(theory, g, i) for i in range(count)]


def _nth_update(theory, g, i):
    predicate = theory.language.predicate("Big")
    atoms = theory.predicate_atoms(predicate)
    from repro.ldml.ast import Insert
    from repro.logic.syntax import Atom, conjoin

    start = (i * g) % (len(atoms) - g)
    window = atoms[start:start + g]
    return Insert(conjoin([Atom(a) for a in window]))


def _endless_updates(theory, g):
    import itertools

    predicate = theory.language.predicate("Big")
    atoms = theory.predicate_atoms(predicate)
    from repro.ldml.ast import Insert
    from repro.logic.syntax import Atom, conjoin

    for i in itertools.count():
        start = (i * g) % (len(atoms) - g)
        window = atoms[start:start + g]
        yield Insert(conjoin([Atom(a) for a in window]))


def test_sweep_over_R(benchmark):
    rows = []
    times = []
    for r in R_SWEEP:
        theory = populated_theory(r)
        updates = _updates_over_distinct_atoms(theory, FIXED_G, REPEATS)
        per_update = _time_updates(theory, updates)
        times.append(per_update)
        rows.append([r, FIXED_G, per_update])
    exponent = fit_power_law(R_SWEEP, times)
    print_table(
        "E4a: per-update GUA time vs R (g fixed)",
        ["R", "g", "seconds/update"],
        rows,
        note=f"empirical exponent in R: {exponent:.3f} "
        "(O(g log R) predicts ~0; linear would be 1)",
    )
    # Strongly sublinear in R — the log-factor claim's observable shape.
    assert exponent < 0.45, exponent

    # Representative benchmark point for the pytest-benchmark table.
    theory = populated_theory(FIXED_R)
    updates = _endless_updates(theory, FIXED_G)
    executor = GuaExecutor(theory)
    benchmark(lambda: executor.apply(next(updates)))


def test_sweep_over_g(benchmark):
    rows = []
    times = []
    for g in G_SWEEP:
        theory = populated_theory(FIXED_R)
        updates = _updates_over_distinct_atoms(theory, g, REPEATS)
        per_update = _time_updates(theory, updates)
        times.append(per_update)
        rows.append([FIXED_R, g, per_update])
    exponent = fit_power_law(G_SWEEP, times)
    print_table(
        "E4b: per-update GUA time vs g (R fixed)",
        ["R", "g", "seconds/update"],
        rows,
        note=f"empirical exponent in g: {exponent:.3f} (O(g log R) predicts ~1)",
    )
    assert 0.5 < exponent < 1.6, exponent

    theory = populated_theory(FIXED_R)
    updates = _endless_updates(theory, 16)
    executor = GuaExecutor(theory)
    benchmark(lambda: executor.apply(next(updates)))


def test_rename_cost_independent_of_occurrences(benchmark):
    """The Step 2 pointer-list design: renaming cost must not scale with the
    number of occurrences of the renamed atom."""
    from repro.logic.parser import parse
    from repro.theory.index import WffStore
    from repro.logic.terms import PredicateConstant
    import statistics
    import time

    rows = []
    times = []
    occurrence_counts = [10, 100, 1000, 10000]
    for n in occurrence_counts:
        # Keep the input alive: a rename clears the store's node memo, and
        # were the memo its last reference, the timer would also measure
        # freeing the n-operand formula.
        formula = parse(" & ".join(["P(hot)"] * n))
        store = WffStore()
        store.add(formula)
        current = next(iter(store.ground_atoms()))
        samples = []
        for i in range(RENAME_SAMPLES):
            fresh = PredicateConstant(f"@r{n}_{i}")
            start = time.perf_counter()
            store.rename(current, fresh)
            samples.append(time.perf_counter() - start)
            current = fresh
        elapsed = statistics.median(samples)
        times.append(elapsed)
        rows.append([n, elapsed])
    exponent = fit_power_law(occurrence_counts, times)
    print_table(
        "E4c: Step-2 rename time vs occurrence count (shared-cell design)",
        ["occurrences", "median seconds"],
        rows,
        note=f"exponent {exponent:.3f}; O(1) predicts ~0",
    )
    assert exponent < 0.4, exponent

    store = WffStore()
    store.add(parse(" & ".join(["P(hot)"] * 1000)))
    atoms = iter([f"@x{i}" for i in range(100000)])

    def rename_once():
        # Rename back and forth between fresh constants: constant work.
        current = list(store.ground_atoms()) + list(store.predicate_constants())
        store.rename(current[0], PredicateConstant(next(atoms)))

    benchmark(rename_once)
