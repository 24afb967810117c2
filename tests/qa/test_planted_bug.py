"""Mutation testing: the oracle must catch every planted bug, and the
shrinker must reduce each catch to a tiny reproducer.

This is the subsystem's own acceptance test — a fuzzer whose oracle cannot
see a known-broken Step 4, or a query solver answering from stale clauses,
would be decorative.
"""

import pytest

from repro.core.gua import GuaExecutor
from repro.qa import generate_case, run_case, shrink_case
from repro.qa.oracle import DEFAULT_CHECKS
from repro.qa.plant import PLANTED_BUGS, planted_bug

#: Fuzzing budget per bug; every planted bug falls well inside it.
SEED_BUDGET = 60

#: The planted mutations of GUA's Step 4.
STEP4_BUGS = sorted(
    name for name, (owner, _, _) in PLANTED_BUGS.items() if owner is GuaExecutor
)


def _first_failure(checks=None):
    for seed in range(SEED_BUDGET):
        case = generate_case(seed)
        if not run_case(case, checks).ok:
            return case
    return None


@pytest.mark.parametrize("bug", sorted(PLANTED_BUGS))
def test_oracle_catches_planted_bug(bug):
    with planted_bug(bug):
        case = _first_failure()
    assert case is not None, f"{bug} survived {SEED_BUDGET} seeds undetected"
    # The same case must pass with the bug removed — the failure is the
    # mutation's, not the generator's.
    assert run_case(case).ok


#: Multi-pair simultaneous updates: (section, [(where, body), ...]).
MULTI_PAIR_CASES = [
    (["P(a)"], [("T", "P(b)"), ("T", "!P(a)")]),
    (["P(a) | P(b)"], [("P(a)", "P(c) & !P(a)"), ("P(b)", "P(c) | P(a)")]),
    (["P(a) | P(b)"], [("P(a)", "P(c)"), ("P(b)", "P(d)")]),
]


def _multi_pair_exposed(section, pairs):
    """Does GUA's theory disagree with the world-set oracle on this case?"""
    from repro.core.naive import NaiveWorldStore
    from repro.ldml.simultaneous import SimultaneousInsert
    from repro.theory.theory import ExtendedRelationalTheory

    theory = ExtendedRelationalTheory(formulas=section)
    update = SimultaneousInsert(pairs)
    expected = NaiveWorldStore.from_theory(theory).apply(update).worlds
    GuaExecutor(theory).apply(update)
    return theory.world_set() != expected


@pytest.mark.parametrize("bug", STEP4_BUGS)
def test_planted_bug_reaches_simultaneous_updates(bug):
    # Ground and simultaneous updates share one Step 4, so every mutation
    # must show on some multi-pair update as well.
    assert not any(_multi_pair_exposed(*case) for case in MULTI_PAIR_CASES)
    with planted_bug(bug):
        exposed = [_multi_pair_exposed(*case) for case in MULTI_PAIR_CASES]
    assert any(exposed), f"{bug} invisible to every multi-pair case"


def test_answers_check_catches_stale_activation():
    # The stale literal leaves world enumeration right (it builds its own
    # solver), so only the answers check can see it.
    world_checks = tuple(c for c in DEFAULT_CHECKS if c != "answers")
    with planted_bug("solver-stale-activation"):
        case = _first_failure(("answers",))
        assert case is not None
        assert run_case(case, world_checks).ok
        report = run_case(case)
    assert [d.check for d in report.discrepancies] == ["answers"]
    assert run_case(case).ok


def test_planted_bug_shrinks_to_tiny_reproducer():
    bug = "step4-drop-guard"
    with planted_bug(bug):
        case = _first_failure()
        assert case is not None
        shrunk, steps = shrink_case(case, lambda c: not run_case(c).ok)
    assert steps > 0
    assert shrunk.wff_count <= 5
    assert shrunk.statement_count <= 3
    # Post-fix (bug removed) the reproducer passes: it is a regression
    # test waiting to happen.
    assert run_case(shrunk).ok


def test_planted_bug_restores_original_step4():
    original = GuaExecutor._step4_restrict
    with planted_bug("step4-skip"):
        assert GuaExecutor._step4_restrict is not original
    assert GuaExecutor._step4_restrict is original


def test_planted_bug_restores_on_error():
    original = GuaExecutor._step4_restrict
    with pytest.raises(RuntimeError):
        with planted_bug("step4-skip"):
            raise RuntimeError("boom")
    assert GuaExecutor._step4_restrict is original


def test_unknown_bug_name_rejected():
    with pytest.raises(ValueError):
        with planted_bug("step9-imaginary"):
            pass
