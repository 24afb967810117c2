"""The central metrics registry: one namespaced snapshot for the engine.

The engine's health numbers live with their owners — theory sizes, SAT
counters, the Tseitin clause cache, the log store, the formula arena, the
span tracer — each reporting plain keys (``wffs``, ``conflicts``,
``hit_rate``).  The registry gives every source a *namespace* and adds it in
one place, so every metric has exactly one dotted name (``theory.wffs``,
``sat.conflicts``, ``arena.hit_rate``, ``pipeline.execute.seconds.p90``);
two sources producing the same dotted name is a registration bug and makes
:meth:`MetricsRegistry.snapshot` raise.

Two instrument kinds are supported for code that wants to *push* values
(the pipeline feeds per-stage duration histograms), and *collectors* pull
from the counter owners at snapshot time, so hot paths keep their
zero-overhead plain-int counters:

* :class:`Counter` — monotonically increasing value;
* :class:`Histogram` — fixed-bucket distribution with estimated
  percentiles (p50/p90/p99), count, and sum.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Mapping, Tuple, Union

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricValue",
]

MetricValue = Union[int, float]

#: Histogram bucket upper bounds, tuned for sub-second stage durations.
BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)


class Counter:
    """A monotonically increasing metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: MetricValue = 0

    def inc(self, amount: MetricValue = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> Dict[str, MetricValue]:
        return {self.name: self.value}


class Histogram:
    """Fixed-bucket histogram with percentile estimates.

    :data:`BUCKETS` are upper bounds; an observation lands in the first bucket
    whose bound is >= the value (one overflow bucket catches the rest).
    Percentiles are estimated as the upper bound of the bucket containing
    the target rank — coarse, bounded-memory, monotone.
    """

    __slots__ = ("name", "counts", "overflow", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.counts: List[int] = [0] * len(BUCKETS)
        self.overflow = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        index = bisect.bisect_left(BUCKETS, value)
        if index == len(BUCKETS):
            self.overflow += 1
        else:
            self.counts[index] += 1

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the q-th percentile (q in [0, 100])."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(q / 100.0 * self.count)))
        seen = 0
        for bound, bucket_count in zip(BUCKETS, self.counts):
            seen += bucket_count
            if seen >= rank:
                return bound
        return float("inf")

    def snapshot(self) -> Dict[str, MetricValue]:
        return {
            f"{self.name}.count": self.count,
            f"{self.name}.sum": self.total,
            f"{self.name}.p50": self.percentile(50),
            f"{self.name}.p90": self.percentile(90),
            f"{self.name}.p99": self.percentile(99),
        }


#: A collector pulls a flat ``str -> number`` mapping from a counter owner.
Collector = Callable[[], Mapping[str, MetricValue]]


class MetricsRegistry:
    """Namespaced metric instruments plus pull-based collectors.

    One registry per :class:`~repro.core.engine.Database`; sources that are
    genuinely process-wide (the formula arena, the span tracer) register
    collectors on each registry and are simply reported by all of them.
    """

    def __init__(self):
        self._instruments: Dict[str, Union[Counter, Histogram]] = {}
        self._collectors: Dict[str, Collector] = {}

    # -- instruments --------------------------------------------------------

    def _instrument(self, name: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    # -- collectors ---------------------------------------------------------

    def register_collector(self, namespace: str, collector: Collector) -> None:
        """Attach a pull source whose plain keys are namespaced at snapshot
        time (``conflicts`` under ``sat`` becomes ``sat.conflicts``).
        Registering the same namespace twice replaces the previous
        collector."""
        self._collectors[namespace] = collector

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, MetricValue]:
        """All metrics under their namespaced dotted names.

        A key produced by two sources raises :class:`ValueError` naming
        both, instead of silently shadowing a metric.
        """
        out: Dict[str, MetricValue] = {}
        owner: Dict[str, str] = {}

        def put(key: str, value: MetricValue, source: str) -> None:
            if key in out:
                raise ValueError(
                    f"metric key collision: {key!r} produced by both "
                    f"{owner[key]!r} and {source!r}"
                )
            out[key] = value
            owner[key] = source

        for namespace, collector in self._collectors.items():
            for key, value in collector().items():
                put(f"{namespace}.{key}", value, namespace)
        for name, instrument in self._instruments.items():
            for key, value in instrument.snapshot().items():
                put(key, value, f"instrument:{name}")
        return out
