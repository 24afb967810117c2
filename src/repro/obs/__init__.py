"""Unified telemetry: hierarchical spans, a metrics registry, exporters,
and GUA ``EXPLAIN``.

Zero-dependency observability for the whole engine, replacing the three
generations of ad-hoc instrumentation (``SolverStats`` counters, the
pipeline tracer's stage timings, the arena counters) with one layer:

* :func:`span` / :data:`TRACER` — hierarchical span tracing with contextvar
  propagation (:mod:`repro.obs.spans`); disabled by default, ~free when off;
* :class:`MetricsRegistry` — one dotted namespace over counters, histograms
  and pull collectors of the engine's plain-key statistics sources
  (:mod:`repro.obs.metrics`);
* :mod:`repro.obs.export` — JSON-lines span logs, Chrome ``trace_event``
  files for ``chrome://tracing``, plaintext metric dumps;
* :func:`explain_update` — the last update rendered as the paper's GUA
  Steps 1–7 narrative (:mod:`repro.obs.explain`).

Typical use::

    import repro.obs as obs

    obs.configure(enabled=True)          # start collecting spans
    db.update("MODIFY R(a) TO BE R(a') WHERE R(b)")
    print(obs.explain_update(db))        # the GUA narrative + span tree
    obs.write_chrome_trace(obs.TRACER, "trace.json")
"""

from repro.obs.explain import explain_update, narrate_gua
from repro.obs.export import (
    chrome_trace,
    render_metrics,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.spans import TRACER, Span, SpanTracer, configure, enabled, span

__all__ = [
    "TRACER",
    "Span",
    "SpanTracer",
    "span",
    "configure",
    "enabled",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "spans_to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "render_metrics",
    "explain_update",
    "narrate_gua",
]
