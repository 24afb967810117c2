"""Telemetry overhead gate: the instrumented E13a/E13b paths must stay
within 1.05x of a run with obs disabled.

Timing-sensitive — marked ``bench`` so `-m "not bench"` skips it on noisy
machines.  Each measurement is the best of several repeats, which cancels
scheduler noise; the workloads are the E13 shapes (world enumeration over
a branching update stream; update/consistency alternation exercising the
per-wff Tseitin cache) scaled down to keep the gate fast.
"""

import time

import pytest

from repro.bench.workload import branching_stream, populated_theory
from repro.core.gua import GuaExecutor
from repro.obs.spans import TRACER

pytestmark = pytest.mark.bench

REPEATS = 5
#: Allowed ratio of traced to untraced wall time, plus a small absolute
#: slack so sub-10ms jitter cannot fail the gate on its own.
MAX_RATIO = 1.05
ABS_SLACK = 0.010


def _e13a_world_enumeration():
    """E13a's shape: enumerate 3^k worlds of a populated, branched theory."""
    theory = populated_theory(40)
    executor = GuaExecutor(theory)
    for update in branching_stream(3):
        executor.apply(update)
    assert theory.world_count() == 27


def _e13b_update_query_alternation():
    """E13b's shape: updates interleaved with consistency checks, so every
    round re-encodes only the touched wffs."""
    theory = populated_theory(40)
    executor = GuaExecutor(theory)
    for update in branching_stream(4):
        executor.apply(update)
        assert theory.is_consistent()


def _best_of(workload, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "workload",
    [_e13a_world_enumeration, _e13b_update_query_alternation],
    ids=["e13a", "e13b"],
)
def test_tracing_overhead_within_gate(workload):
    TRACER.reset()
    TRACER.configure(enabled=False)
    workload()  # warm-up: imports, arena interning, code caches
    untraced = _best_of(workload)
    TRACER.configure(enabled=True)
    try:
        traced = _best_of(workload)
    finally:
        TRACER.configure(enabled=False)
        TRACER.reset()
    assert traced <= untraced * MAX_RATIO + ABS_SLACK, (
        f"tracing overhead {traced / untraced:.3f}x exceeds {MAX_RATIO}x "
        f"(untraced {untraced * 1e3:.1f} ms, traced {traced * 1e3:.1f} ms)"
    )
