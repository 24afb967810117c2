"""Hierarchical span tracing — the timing backbone of the telemetry layer.

A *span* is one timed region of work with a dotted name (``"gua.step2_rename"``),
wall and CPU durations, free-form attributes, and children.  Spans nest
through a :mod:`contextvars` variable, so instrumented layers never pass a
trace handle around: the pipeline opens ``pipeline.update``, GUA opens
``gua.apply`` inside it, the solver opens ``sat.solve`` inside that, and the
tree assembles itself.  Finished *root* spans land in a bounded ring buffer
on the process-wide :data:`TRACER` (mirroring the formula arena's
process-wide design), where the exporters and ``explain_update`` read them.

Tracing is **disabled by default** and the disabled path is a single
attribute check plus a shared no-op context manager — cheap enough to leave
``span(...)`` calls on hot paths like :meth:`Solver.solve`.  Call sites that
compute attributes guard with ``if sp:`` (the no-op span is falsy)::

    with span("gua.step2_rename") as sp:
        ...
        if sp:
            sp.attrs["renamed"] = len(mapping)
"""

from __future__ import annotations

import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "SpanTracer", "TRACER", "span", "configure", "enabled"]

#: The innermost active span of the current context (None outside any span).
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)


class _NullAttrs(dict):
    """Attribute sink of the no-op span: accepts writes, stores nothing."""

    def __setitem__(self, key, value):  # noqa: D105 - deliberate no-op
        pass

    def update(self, *args, **kwargs):
        pass


class _NoopSpan:
    """Shared do-nothing span returned while tracing is off (falsy)."""

    __slots__ = ()

    attrs = _NullAttrs()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


NOOP = _NoopSpan()


class Span:
    """One timed region; a context manager that links itself to the tree."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "start",
        "wall_seconds",
        "cpu_seconds",
        "_cpu0",
        "_token",
        "_tracer",
        "_parent",
    )

    def __init__(self, name: str, attrs: Dict[str, Any], tracer: "SpanTracer"):
        self.name = name
        self.attrs: Dict[str, Any] = attrs
        self.children: List[Span] = []
        self.start = 0.0  #: perf_counter seconds since the tracer's epoch
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._tracer = tracer

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self)
        self._tracer.spans_started += 1
        self.start = time.perf_counter() - self._tracer.epoch
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_seconds = (
            time.perf_counter() - self._tracer.epoch - self.start
        )
        self.cpu_seconds = time.process_time() - self._cpu0
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        parent = self._parent
        if parent is not None:
            parent.children.append(self)
        else:
            self._tracer._finish_root(self)
        return False

    # -- tree access --------------------------------------------------------

    def walk(self) -> Iterator[Tuple[int, "Span"]]:
        """Depth-first ``(depth, span)`` pairs, self first."""
        stack: List[Tuple[int, Span]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def find(self, name: str) -> Iterator["Span"]:
        """All descendants (including self) with the given span name."""
        for _, node in self.walk():
            if node.name == name:
                yield node

    def render(self, *, min_ms: float = 0.0) -> str:
        """Human-readable indented tree with wall-clock milliseconds."""
        lines = []
        for depth, node in self.walk():
            if depth and node.wall_seconds * 1e3 < min_ms:
                continue
            attrs = ", ".join(
                f"{k}={v}" for k, v in node.attrs.items() if k != "pipeline"
            )
            lines.append(
                f"{'  ' * depth}{node.name}  "
                f"{node.wall_seconds * 1e3:.3f} ms"
                + (f"  [{attrs}]" if attrs else "")
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.wall_seconds * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class SpanTracer:
    """Process-wide span collector: enable flag and root ring buffer.

    The ring buffer holds finished *root* spans only (children hang off
    their parents), bounding memory regardless of workload length.  The
    tracer is deliberately global — instrumented layers (solver, Tseitin,
    GUA) have no database handle to thread one through — which also means
    traces from several :class:`~repro.core.engine.Database` instances can
    interleave; root spans carry disambiguating attributes (the pipeline
    stamps ``pipeline=<id>``).
    """

    def __init__(self, keep_last: int = 256):
        self.enabled = False
        self.epoch = time.perf_counter()
        self.spans_started = 0
        self.roots_finished = 0
        self._ring: Deque[Span] = deque(maxlen=keep_last)

    # -- configuration ------------------------------------------------------

    def configure(
        self,
        *,
        enabled: Optional[bool] = None,
        keep_last: Optional[int] = None,
    ) -> None:
        if enabled is not None:
            self.enabled = enabled
        if keep_last is not None:
            self._ring = deque(self._ring, maxlen=keep_last)

    def reset(self) -> None:
        """Drop collected spans and counters (configuration is kept)."""
        self._ring.clear()
        self.spans_started = 0
        self.roots_finished = 0
        self.epoch = time.perf_counter()

    # -- span creation ------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager timing one region (no-op while disabled)."""
        if not self.enabled:
            return NOOP
        return Span(name, attrs, self)

    def _finish_root(self, root: Span) -> None:
        self._ring.append(root)
        self.roots_finished += 1

    # -- access -------------------------------------------------------------

    def roots(self) -> Tuple[Span, ...]:
        """Finished root spans, oldest first."""
        return tuple(self._ring)

    def last_root(self, name: Optional[str] = None) -> Optional[Span]:
        for root in reversed(self._ring):
            if name is None or root.name == name:
                return root
        return None

    def find_root(self, predicate: Callable[[Span], bool]) -> Optional[Span]:
        """Newest finished root span satisfying *predicate*."""
        for root in reversed(self._ring):
            if predicate(root):
                return root
        return None

    def discard(self, predicate: Callable[[Span], bool]) -> int:
        """Drop finished roots matching *predicate* (rollback uses this so a
        rewound update's trace can never be reported as current)."""
        kept = [root for root in self._ring if not predicate(root)]
        dropped = len(self._ring) - len(kept)
        if dropped:
            self._ring = deque(kept, maxlen=self._ring.maxlen)
        return dropped

    def statistics(self) -> Dict[str, float]:
        """Plain keys; the metrics registry namespaces them under ``obs``."""
        return {
            "enabled": int(self.enabled),
            "spans_started": self.spans_started,
            "roots_finished": self.roots_finished,
            "roots_buffered": len(self._ring),
        }


#: The process-wide tracer every instrumented layer reports to.
TRACER = SpanTracer()


def span(name: str, **attrs: Any):
    """Module-level shorthand for :meth:`TRACER.span`."""
    if not TRACER.enabled:
        return NOOP
    return TRACER.span(name, **attrs)


def configure(**kwargs) -> None:
    """Configure the process tracer (``enabled``, ``keep_last``)."""
    TRACER.configure(**kwargs)


def enabled() -> bool:
    return TRACER.enabled
