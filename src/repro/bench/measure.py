"""Measurement helpers: timing, scaling fits, cost-model checks.

The complexity experiments (E4-E6) don't assert absolute times — the paper's
bounds are asymptotic, and this substrate is CPython, not the authors'
hypothetical pointer machine.  Instead they fit the measured curve and check
its *shape*:

* :func:`fit_power_law` returns the slope of log(time) vs log(n); O(n) shows
  slope ~1, O(log n) shows slope ~0 on a power-law axis (use
  :func:`fit_log` for that), O(n^2) slope ~2.
* :func:`growth_ratio` compares the largest and smallest measurements,
  normalized — a robust "did it blow up" statistic for small sweeps.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence


@dataclass(frozen=True)
class Measurement:
    """Repeated timing of one configuration."""

    parameter: float
    seconds: float
    repeats: int


def time_callable(
    fn: Callable[[], object],
    *,
    repeats: int = 5,
    setup: Callable[[], object] = None,
) -> float:
    """Median wall time of ``fn`` over *repeats* runs (setup untimed)."""
    samples: List[float] = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def sweep(
    parameters: Sequence[float],
    make_run: Callable[[float], Callable[[], object]],
    *,
    repeats: int = 5,
) -> List[Measurement]:
    """Time one freshly-built closure per parameter value."""
    results = []
    for parameter in parameters:
        run = make_run(parameter)
        results.append(
            Measurement(
                parameter=parameter,
                seconds=time_callable(run, repeats=repeats),
                repeats=repeats,
            )
        )
    return results


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) on log(x): the empirical exponent.

    Implemented directly (closed-form simple regression) to avoid pulling
    numpy into the library core.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(max(y, 1e-12)) for y in ys]
    return _slope(log_x, log_y)


def fit_log(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of y on log(x): positive-and-flat for O(log n)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    log_x = [math.log(x) for x in xs]
    return _slope(log_x, list(ys))


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Plain least-squares slope of y on x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    return _slope(list(xs), list(ys))


def _slope(xs: List[float], ys: List[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    variance = sum((x - mean_x) ** 2 for x in xs)
    if variance == 0:
        raise ValueError("x values are all identical")
    return covariance / variance


def growth_ratio(xs: Sequence[float], ys: Sequence[float]) -> float:
    """(y_max / y_min) / (x_max / x_min): ~1 for linear, <<1 for sublinear,
    >>1 for superlinear growth across the sweep."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    pairs = sorted(zip(xs, ys))
    (x_low, y_low), (x_high, y_high) = pairs[0], pairs[-1]
    if y_low <= 0 or x_low <= 0:
        raise ValueError("values must be positive")
    return (y_high / y_low) / (x_high / x_low)
