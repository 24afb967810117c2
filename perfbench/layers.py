"""Per-layer timing for the traced run, measured from outside the library.

:class:`LayerProbe` replaces public entry points of each layer with timing
wrappers at run time; nothing in ``src/`` is edited.  A layer's time is its
*self* time: the wall time of its wrapped calls minus the wrapped calls
nested inside them (``theory.clauses`` contains Tseitin encodes,
``load_database`` contains theory walks).  The pipeline's normalize, tag and
journal times come from the stage events ``Database.last_trace()`` returns;
the journal's own top-level ``theory.size`` walk is subtracted from it.
Work counts come from ``Database.metrics_snapshot()`` deltas over the timed
phase.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

#: Every per-layer metric and its unit, in the order they are printed.
UNITS = {
    "ldml.parse_ms": "ms",
    "pipeline.normalize_ms": "ms",
    "pipeline.tag_ms": "ms",
    "pipeline.journal_ms": "ms",
    "gua.apply_ms": "ms",
    "theory.size_ms": "ms",
    "theory.size_calls": "count",
    "theory.clauses_ms": "ms",
    "tseitin.encode_ms": "ms",
    "tseitin.cache_hit_rate": "ratio",
    "theory.nodes": "count",
    "theory.wffs": "count",
    "sat.build_ms": "ms",
    "sat.search_ms": "ms",
    "sat.builds_per_ask": "ratio",
    "sat.clauses_per_build": "ratio",
    "sat.decisions_per_ask": "ratio",
    "sat.conflicts_per_ask": "ratio",
    "query.ask_ms": "ms",
    "query.bindings_per_find": "ratio",
    "simplify.maintain_ms": "ms",
    "simplify.passes": "count",
    "simplify.shrink_ratio": "ratio",
    "persist.save_ms": "ms",
    "persist.load_ms": "ms",
    "persist.bytes_per_update": "B",
    "arena.hit_rate": "ratio",
    "facade.update_exponent": "exponent",
    "tracing.overhead_ratio": "ratio",
}

#: Layers whose self time is reported, as ``<layer>_ms``.
TIMED_LAYERS = (
    "ldml.parse",
    "gua.apply",
    "theory.size",
    "theory.clauses",
    "tseitin.encode",
    "sat.build",
    "sat.search",
    "query.ask",
    "simplify.maintain",
    "persist.save",
    "persist.load",
)
STAGES = ("normalize", "tag", "journal")


def _entry_points():
    """layer -> [(owner, attribute)] of the public entry points wrapped.

    Functions are patched where the caller looks them up (the pipeline
    imports ``parse_update`` and ``ask`` by name), methods on their class.
    """
    import repro.core.pipeline as pipeline
    import repro.core.simplification as simplification
    import repro.persist as persist
    import repro.query.answers as answers
    import repro.query.open_queries as open_queries
    import repro.theory.theory as theory
    from repro.core.gua import GuaExecutor
    from repro.logic.sat import Solver

    return {
        "ldml.parse": [(pipeline, "parse_update"), (pipeline, "parse_open_update")],
        "gua.apply": [(GuaExecutor, "apply"), (GuaExecutor, "apply_simultaneous")],
        "theory.size": [(theory.ExtendedRelationalTheory, "size")],
        "theory.clauses": [(theory.ExtendedRelationalTheory, "clauses")],
        "tseitin.encode": [(theory, "tseitin"), (answers, "tseitin")],
        "sat.build": [(Solver, "__init__")],
        "sat.search": [(Solver, "solve")],
        "query.ask": [(pipeline, "ask_theory"), (open_queries, "ask")],
        "query.find": [(open_queries.OpenQuery, "answers")],
        "simplify.maintain": [(simplification, "simplify_theory")],
        "persist.save": [(persist, "save_database")],
        "persist.load": [(persist, "load_database")],
    }


def _delta(after, before, key):
    return after.get(key, 0) - before.get(key, 0)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class LayerProbe:
    """Times the layers under one database's timed phase."""

    def __init__(self, db):
        self.db = db
        self.theory = db.theory
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.stack = []  # [child seconds, layer] per open wrapped call
        self.top_size_s = 0.0
        self.stage_s = defaultdict(float)
        self.main_asks = 0
        self.find_asks = 0
        self.solver_clauses = 0
        self.shrink_ratios = []
        self.persisted = None  # (bytes, updates) of the last save
        self.update_points = []  # (theory nodes after, update seconds)
        self._originals = []
        self._size = type(self.theory).size

    def _wrap(self, layer, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                elif layer == "theory.size":
                    self.top_size_s += elapsed
            self._observe(layer, args, result)
            return result

        return timed

    def _observe(self, layer, args, result):
        if layer == "query.ask" and args[0] is self.theory:
            self.main_asks += 1
            if any(frame[1] == "query.find" for frame in self.stack):
                self.find_asks += 1
        elif layer == "sat.build":
            self.solver_clauses += args[0].num_clauses
        elif layer == "simplify.maintain":
            self.shrink_ratios.append(result.shrink_ratio)

    # -- the episode's hooks -----------------------------------------------------------

    def start(self):
        self.before = self.db.metrics_snapshot()
        for layer, targets in _entry_points().items():
            for owner, name in targets:
                original = getattr(owner, name)
                self._originals.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))

    def observe(self, kind, seconds):
        """Called after each timed operation, outside its timing."""
        if kind != "update":
            return
        trace = self.db.last_trace()
        for stage in STAGES:
            self.stage_s[stage] += trace.stage_seconds(stage)
        # The only theory walk outside any wrapped layer is the journal's.
        self.stage_s["journal"] -= self.top_size_s
        self.top_size_s = 0.0
        self.update_points.append((self._size(self.theory), seconds))

    def persisted_file(self, size, updates):
        self.persisted = (size, updates)

    def finish(self, finds):
        """Stop wrapping and return the per-layer metrics of the phase."""
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        from repro.bench.measure import fit_power_law

        after = self.db.metrics_snapshot()
        before = self.before
        metrics = {f"{layer}_ms": 1e3 * self.self_s[layer] for layer in TIMED_LAYERS}
        metrics.update(
            {f"pipeline.{stage}_ms": 1e3 * self.stage_s[stage] for stage in STAGES}
        )
        hits = _delta(after, before, "tseitin.cache_hits")
        arena_hits = _delta(after, before, "arena.intern_hits")
        builds = self.calls["sat.build"]
        points = [(nodes, s) for nodes, s in self.update_points if nodes > 0]
        metrics.update(
            {
                "theory.size_calls": self.calls["theory.size"],
                "theory.nodes": after["theory.nodes"],
                "theory.wffs": after["theory.wffs"],
                "tseitin.cache_hit_rate": _ratio(
                    hits, hits + _delta(after, before, "tseitin.cache_misses")
                ),
                "sat.builds_per_ask": _ratio(builds, self.calls["query.ask"]),
                "sat.clauses_per_build": _ratio(self.solver_clauses, builds),
                "sat.decisions_per_ask": _ratio(
                    _delta(after, before, "sat.decisions"), self.main_asks
                ),
                "sat.conflicts_per_ask": _ratio(
                    _delta(after, before, "sat.conflicts"), self.main_asks
                ),
                "query.bindings_per_find": _ratio(self.find_asks, finds),
                "simplify.passes": self.calls["simplify.maintain"],
                "simplify.shrink_ratio": (
                    statistics.median(self.shrink_ratios) if self.shrink_ratios else 0.0
                ),
                "persist.bytes_per_update": (
                    _ratio(*self.persisted) if self.persisted else 0.0
                ),
                "arena.hit_rate": _ratio(
                    arena_hits,
                    arena_hits + _delta(after, before, "arena.intern_misses"),
                ),
                "facade.update_exponent": fit_power_law(
                    [nodes for nodes, _ in points], [s for _, s in points]
                ),
            }
        )
        return metrics
