"""The unified update-execution pipeline.

Every LDML statement — INSERT/DELETE/MODIFY/ASSERT, ground or open, LDML
text, AST object, or SQL-ish front-end input — executes through one staged
path:

    parse -> normalize -> tag -> execute -> journal -> maintain

* **parse** — surface text to update objects (``?var`` statements become
  :class:`~repro.ldml.open_updates.OpenUpdate`; SQL goes through
  :func:`~repro.ldml.sql.translate_sql`);
* **normalize** — the paper's reductions: open updates ground to a
  :class:`~repro.ldml.simultaneous.SimultaneousInsert` over the backend's
  atom universe (Section 4); ground updates pass through (their Section 3.2
  reduction to INSERT happens inside GUA, as before).  From here on the
  update is one :data:`~repro.core.transaction.JournaledUpdate` object —
  a ground update or a simultaneous set — all the way to the journal;
* **tag** — the Section 3.5 attribute-tagging layer (conjoin attribute
  atoms), applied once, uniformly, for every backend;
* **execute** — the pluggable :class:`UpdateBackend` does the real work:
  :class:`GuaBackend` runs algorithm GUA against the live theory,
  :class:`LogBackend` appends to a :class:`~repro.core.logstore.
  LogStructuredStore` (the Section 4 strawman), :class:`NaiveBackend`
  applies the model-level semantics world by world (Section 3.2's parallel
  computation method);
* **journal** — the executed update object is recorded in the transaction
  journal exactly once, so replay and persistence see one format regardless
  of how the statement arrived (its ``kind``, ``ground`` or
  ``simultaneous``, is derived from the object);
* **maintain** — the Section 4 periodic simplifier, for backends that keep
  an incrementally-maintained theory.

Every stage reports to a :class:`PipelineTracer`: its duration is recorded
once, in the metrics registry histogram ``pipeline.<stage>.seconds`` (whose
``.count``/``.sum`` are the cumulative calls and seconds), and its wall time
and detail (atoms/wffs touched, backend counters) join the bounded
per-update history behind ``Database.last_trace()`` and the CLI ``.trace``
command.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.core.gua import GuaExecutor, GuaResult, GuaStats
from repro.core.logstore import LogStructuredStore
from repro.core.naive import NaiveWorldStore
from repro.core.simplification import AutoSimplifier
from repro.core.transaction import JournaledUpdate, UpdateLog, kind_of
from repro.errors import TheoryError, UpdateError
from repro.ldml.ast import GroundUpdate, Insert
from repro.ldml.open_updates import OpenUpdate, parse_open_update
from repro.ldml.parser import parse_update
from repro.ldml.simultaneous import SimultaneousInsert
from repro.ldml.sql import translate_sql
from repro.logic.parser import parse as parse_formula
from repro.logic.syntax import Formula
from repro.logic.terms import GroundAtom
from repro.obs.metrics import Collector, MetricsRegistry
from repro.obs.spans import span as obs_span
from repro.query.answers import Answer, ask as ask_theory
from repro.theory.theory import ExtendedRelationalTheory
from repro.theory.worlds import AlternativeWorld

#: The stages, in execution order.
STAGES: Tuple[str, ...] = (
    "parse",
    "normalize",
    "tag",
    "execute",
    "journal",
    "maintain",
)

#: Per-update traces each pipeline keeps for ``last_trace()``/``.trace``.
TRACE_HISTORY = 64

#: Monotonic ids stamped on each pipeline's root spans, so traces from
#: several databases interleaved on the process tracer stay attributable.
_PIPELINE_IDS = itertools.count()


# -- observability -----------------------------------------------------------------


@dataclass
class StageEvent:
    """One stage execution inside one update."""

    stage: str
    seconds: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class UpdateTrace:
    """The full stage record of one update through the pipeline.

    ``sequence`` is the update's journal sequence (``-1`` until the journal
    stage has recorded it).
    """

    backend: str
    sequence: int = -1
    kind: str = "?"
    events: List[StageEvent] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(event.seconds for event in self.events)

    def stage_seconds(self, stage: str) -> float:
        return sum(e.seconds for e in self.events if e.stage == stage)

    def __repr__(self) -> str:
        return (
            f"UpdateTrace(#{self.sequence} {self.kind} via {self.backend}, "
            f"{self.total_seconds * 1e3:.3f} ms)"
        )


class PipelineTracer:
    """Times pipeline stages into the registry; keeps recent update traces.

    One tracer per :class:`~repro.core.engine.Database`; the pipeline is
    single-threaded, so the tracer tracks one in-flight update at a time.
    Each stage duration is observed once, by the registry histogram
    ``pipeline.<stage>.seconds``; the last :data:`TRACE_HISTORY` per-update
    traces are kept for ``Database.last_trace()`` and the CLI ``.trace``
    command.
    """

    def __init__(self, registry: MetricsRegistry):
        self._history: Deque[UpdateTrace] = deque(maxlen=TRACE_HISTORY)
        self._current: Optional[UpdateTrace] = None
        self.histograms = {
            stage: registry.histogram(f"pipeline.{stage}.seconds")
            for stage in STAGES
        }

    def begin(self, backend: str) -> UpdateTrace:
        self._current = UpdateTrace(backend=backend)
        return self._current

    @contextmanager
    def stage(self, name: str):
        """Time one stage; the yielded event's ``detail`` is caller-filled.

        Alongside the per-update trace, each stage execution opens an obs
        span (``pipeline.<stage>``, nested under the update's root span
        when tracing is on) and feeds the stage-duration histogram.
        """
        event = StageEvent(stage=name)
        with obs_span(f"pipeline.{name}") as sp:
            start = time.perf_counter()
            try:
                yield event
            finally:
                event.seconds = time.perf_counter() - start
                if sp:
                    sp.attrs.update(event.detail)
                self.histograms[name].observe(event.seconds)
                if self._current is not None:
                    self._current.events.append(event)

    def commit(self) -> None:
        """The in-flight update completed; move it to the history."""
        if self._current is not None:
            self._history.append(self._current)
            self._current = None

    def abort(self) -> None:
        """The in-flight update failed; drop its partial trace (the stage
        histograms keep the time actually spent)."""
        self._current = None

    def truncate(self, sequence: int) -> None:
        """Drop traces of updates with sequence >= *sequence* (rollback).

        The stage histograms are *not* rewound — they describe work
        actually performed, which a rollback cannot unperform.
        """
        while self._history and self._history[-1].sequence >= sequence:
            self._history.pop()

    def last(self) -> Optional[UpdateTrace]:
        return self._history[-1] if self._history else None

    def history(self) -> Tuple[UpdateTrace, ...]:
        return tuple(self._history)


# -- backends ----------------------------------------------------------------------


@dataclass
class BackendResult:
    """Uniform execution outcome for backends that do not run GUA.

    Mirrors the slice of :class:`~repro.core.gua.GuaResult` the façade and
    CLI consume (``update``, ``stats``), plus backend-specific ``detail``.
    """

    update: JournaledUpdate
    stats: GuaStats = field(default_factory=GuaStats)
    detail: Dict[str, int] = field(default_factory=dict)


class UpdateBackend:
    """The pluggable execution strategy behind the pipeline.

    Implementations must provide the storage/reasoning primitives below;
    the pipeline supplies parsing, normalization, tagging, journaling, and
    maintenance around them.  ``FEATURES`` advertises optional capabilities
    (``"theory"`` — a live/materializable theory object; ``"savepoints"`` —
    in-place snapshot/restore; ``"simplify"`` — in-place Section 4
    simplification).
    """

    name: str = "?"
    FEATURES: FrozenSet[str] = frozenset()

    def supports(self, feature: str) -> bool:
        return feature in self.FEATURES

    @property
    def theory(self) -> ExtendedRelationalTheory:
        raise TheoryError(
            f"the {self.name!r} backend does not expose a theory"
        )

    def execute(self, update: JournaledUpdate):
        """Run one normalized, tagged update against the backend's state."""
        raise NotImplementedError

    def ask(self, query: Union[Formula, str]) -> Answer:
        raise NotImplementedError

    def world_set(
        self, limit: Optional[int] = None
    ) -> FrozenSet[AlternativeWorld]:
        """The backend's alternative-world set, optionally capped.

        ``limit`` bounds enumeration for oracles that only need to know
        whether the set is small enough to compare exhaustively (the QA
        differential harness): at most *limit* worlds are materialized, so
        a runaway case costs bounded work instead of an exponential blowup.
        """
        raise NotImplementedError

    def world_count(self, cap: Optional[int] = None) -> int:
        count = 0
        for _ in self.world_set(limit=cap):
            count += 1
            if cap is not None and count >= cap:
                break
        return count

    def is_consistent(self) -> bool:
        raise NotImplementedError

    def atom_universe(self) -> FrozenSet[GroundAtom]:
        """The ground-atom universe open updates are grounded over."""
        raise NotImplementedError

    def size(self) -> int:
        """The backend's growth measure (``Database.size()``).  The journal
        does not record it: on a theory it walks every stored wff."""
        raise NotImplementedError

    def metric_sources(self) -> List[Tuple[str, Collector]]:
        """``(namespace, collector)`` pairs for the metrics registry; each
        collector returns plain keys."""
        return []


class GuaBackend(UpdateBackend):
    """Algorithm GUA against a live, incrementally-maintained theory."""

    name = "gua"
    FEATURES = frozenset({"theory", "savepoints", "simplify"})

    def __init__(
        self,
        base: ExtendedRelationalTheory,
        *,
        simplify_every: Optional[int] = None,
    ):
        # simplify_every is the pipeline's maintain stage on this backend.
        self._theory = base
        self.executor = GuaExecutor(base)

    @property
    def theory(self) -> ExtendedRelationalTheory:
        return self._theory

    def execute(self, update: JournaledUpdate) -> GuaResult:
        return self.executor.apply(update)

    def ask(self, query: Union[Formula, str]) -> Answer:
        return ask_theory(self._theory, query)

    def world_set(
        self, limit: Optional[int] = None
    ) -> FrozenSet[AlternativeWorld]:
        if limit is None:
            return self._theory.world_set()
        return frozenset(self._theory.alternative_worlds(limit=limit))

    def world_count(self, cap: Optional[int] = None) -> int:
        return self._theory.world_count(cap=cap)

    def is_consistent(self) -> bool:
        return self._theory.is_consistent()

    def atom_universe(self) -> FrozenSet[GroundAtom]:
        return self._theory.atom_universe()

    def size(self) -> int:
        return self._theory.size()

    def metric_sources(self) -> List[Tuple[str, Collector]]:
        theory = self._theory
        return [
            ("theory", theory.statistics),
            ("sat", theory.sat_stats.as_dict),
            ("tseitin", theory.tseitin_statistics),
        ]


class LogBackend(UpdateBackend):
    """The Section 4 strawman: O(1) appends, replay-on-read."""

    name = "log"
    FEATURES = frozenset({"theory", "compact"})

    def __init__(
        self,
        base: Optional[ExtendedRelationalTheory] = None,
        *,
        simplify_every: Optional[int] = None,
    ):
        self.store = LogStructuredStore(base, simplify_every=simplify_every)

    @property
    def theory(self) -> ExtendedRelationalTheory:
        """The materialized theory — forces a (memoized) replay."""
        return self.store.materialize()

    def execute(self, update: JournaledUpdate) -> BackendResult:
        self.store.apply(update)
        return BackendResult(
            update=update, detail={"log_pending": self.store.pending()}
        )

    def ask(self, query: Union[Formula, str]) -> Answer:
        return self.store.ask(query)

    def world_set(
        self, limit: Optional[int] = None
    ) -> FrozenSet[AlternativeWorld]:
        if limit is None:
            return self.store.world_set()
        return frozenset(
            self.store.materialize().alternative_worlds(limit=limit)
        )

    def is_consistent(self) -> bool:
        return self.store.materialize().is_consistent()

    def atom_universe(self) -> FrozenSet[GroundAtom]:
        # Grounding an open update needs the current state: the honest cost
        # of the strawman is that this forces a replay.
        return self.store.materialize().atom_universe()

    def size(self) -> int:
        # Deliberately O(1): the size measure is the pending-log length,
        # never a forced replay.
        return self.store.pending()

    def compact(self) -> None:
        self.store.compact()

    def metric_sources(self) -> List[Tuple[str, Collector]]:
        return [("log", self.store.statistics)]


class NaiveBackend(UpdateBackend):
    """Section 3.2's parallel computation method: explicit worlds.

    Alongside the world set it tracks the atom universe the completion
    axioms would represent (base universe plus every atom an update
    mentions), so open updates ground over the same candidates as on the
    theory backends.
    """

    name = "naive"
    FEATURES = frozenset()

    def __init__(
        self,
        base: Optional[ExtendedRelationalTheory] = None,
        *,
        simplify_every: Optional[int] = None,
    ):
        base = base or ExtendedRelationalTheory()
        self.store = NaiveWorldStore.from_theory(base)
        self._universe = set(base.atom_universe())

    def execute(self, update: JournaledUpdate) -> BackendResult:
        self._universe.update(update.atoms())
        self.store.apply(update)
        return BackendResult(
            update=update, detail={"worlds": self.store.world_count()}
        )

    def ask(self, query: Union[Formula, str]) -> Answer:
        if isinstance(query, str):
            query = parse_formula(query)
        worlds = self.store.worlds
        # Matches the SAT-backed answers on an inconsistent theory: with no
        # worlds, everything is (vacuously) certain and nothing possible.
        return Answer(
            certain=all(world.satisfies(query) for world in worlds),
            possible=any(world.satisfies(query) for world in worlds),
        )

    def world_set(
        self, limit: Optional[int] = None
    ) -> FrozenSet[AlternativeWorld]:
        if limit is None or len(self.store.worlds) <= limit:
            return self.store.worlds
        return frozenset(itertools.islice(self.store.worlds, limit))

    def is_consistent(self) -> bool:
        return self.store.is_consistent()

    def atom_universe(self) -> FrozenSet[GroundAtom]:
        return frozenset(self._universe)

    def size(self) -> int:
        return self.store.world_count()

    def statistics(self) -> Dict[str, int]:
        return {
            "worlds": self.store.world_count(),
            "universe_atoms": len(self._universe),
        }

    def metric_sources(self) -> List[Tuple[str, Collector]]:
        return [("naive", self.statistics)]


#: backend name -> constructor ``(base, *, simplify_every)``; gua and naive
#: ignore ``simplify_every`` (the pipeline's maintain stage handles it).
BACKENDS = {
    "gua": GuaBackend,
    "log": LogBackend,
    "naive": NaiveBackend,
}


def make_backend(
    name: str,
    base: ExtendedRelationalTheory,
    *,
    simplify_every: Optional[int] = None,
) -> UpdateBackend:
    """Instantiate a backend by registry name over a base theory."""
    try:
        backend = BACKENDS[name]
    except KeyError:
        raise UpdateError(
            f"unknown backend {name!r} (expected one of {sorted(BACKENDS)})"
        ) from None
    return backend(base, simplify_every=simplify_every)


# -- the pipeline ------------------------------------------------------------------


class UpdatePipeline:
    """One staged execution path for every update, any backend.

    Owns nothing but the wiring: the backend does the storage work, the
    journal is the transaction manager's, the tracer aggregates
    observability, and the optional simplifier implements the maintain
    stage for theory-keeping backends.
    """

    def __init__(
        self,
        backend: UpdateBackend,
        journal: UpdateLog,
        tracer: PipelineTracer,
        *,
        schema=None,
        auto_tag: bool = False,
        simplifier: Optional[AutoSimplifier] = None,
    ):
        self.backend = backend
        self.journal = journal
        self.tracer = tracer
        self.schema = schema
        self.auto_tag = auto_tag and schema is not None
        self.simplifier = simplifier
        #: Distinguishes this pipeline's root spans on the process tracer.
        self.pipeline_id = next(_PIPELINE_IDS)
        #: The last successful execution result and its journal sequence —
        #: what ``explain_update`` narrates without a replay on the gua
        #: backend.  Cleared by rollback when the update is rewound.
        self.last_result: Optional[Any] = None
        self.last_sequence: Optional[int] = None
        # Body -> tagged body, keyed by interned identity.  Grounded open
        # updates and repeated workloads re-submit structurally identical
        # bodies; hash-consing makes them the same object, so the tag stage
        # becomes one dict probe.  Bounded: cleared when it outgrows the cap.
        self._tag_memo: Dict[Formula, Formula] = {}

    _TAG_MEMO_CAP = 1024

    # -- entry point ------------------------------------------------------------

    def submit(
        self,
        statement: Union[str, GroundUpdate, OpenUpdate, SimultaneousInsert],
        *,
        domains=None,
        source: str = "ldml",
    ):
        """Run one statement through parse → ... → maintain.

        Returns the backend's execution result (:class:`GuaResult` for the
        GUA backend, :class:`BackendResult` otherwise).
        """
        trace = self.tracer.begin(self.backend.name)
        root = obs_span(
            "pipeline.update",
            pipeline=self.pipeline_id,
            backend=self.backend.name,
        )
        root.__enter__()
        try:
            with self.tracer.stage("parse") as event:
                parsed = self._parse(statement, source)
                event.detail["source"] = source
                event.detail["statement"] = type(parsed).__name__

            with self.tracer.stage("normalize") as event:
                if isinstance(parsed, OpenUpdate):
                    update = parsed.expand(self.backend, domains)
                    trace.kind = "open"
                    event.detail["pairs"] = len(update)
                else:
                    update = parsed
                    trace.kind = kind_of(update)
                event.detail["kind"] = trace.kind

            with self.tracer.stage("tag") as event:
                update = self._tag(update)
                event.detail["tagged"] = self.auto_tag
                event.detail["atoms"] = len(update.atoms())

            with self.tracer.stage("execute") as event:
                result = self.backend.execute(update)
                event.detail["backend"] = self.backend.name
                stats = getattr(result, "stats", None)
                if stats is not None:
                    event.detail["wffs_added"] = stats.wffs_added
                    event.detail["nodes_added"] = stats.nodes_added
                detail = getattr(result, "detail", None)
                if detail:
                    event.detail.update(detail)

            with self.tracer.stage("journal") as event:
                entry = self.journal.record(update)
                trace.sequence = entry.sequence
                event.detail["kind"] = entry.kind
                event.detail["sequence"] = entry.sequence

            with self.tracer.stage("maintain") as event:
                report = None
                if self.simplifier is not None and self.backend.supports(
                    "simplify"
                ):
                    report = self.simplifier.after_update(self.backend.theory)
                event.detail["simplified"] = report is not None
                if report is not None:
                    event.detail["size_after"] = report.size_after
        except BaseException as error:
            self.tracer.abort()
            root.__exit__(type(error), error, error.__traceback__)
            raise
        if root:
            root.attrs["kind"] = trace.kind
            root.attrs["sequence"] = entry.sequence
        root.__exit__(None, None, None)
        self.tracer.commit()
        self.last_result = result
        self.last_sequence = entry.sequence
        return result

    # -- stages -----------------------------------------------------------------

    def _parse(self, statement, source: str):
        if source == "sql":
            if not isinstance(statement, str):
                raise UpdateError("SQL statements must be strings")
            return translate_sql(statement, self.schema)
        if isinstance(statement, str):
            if "?" in statement:
                return parse_open_update(statement)
            return parse_update(statement)
        if isinstance(
            statement, (GroundUpdate, OpenUpdate, SimultaneousInsert)
        ):
            return statement
        raise UpdateError(
            f"cannot execute {statement!r}: expected LDML text, a ground "
            "update, an open update, or a simultaneous set"
        )

    def _tag_body(self, body: Formula) -> Formula:
        """Memoized ``schema.tag_with_attributes`` over interned bodies."""
        tagged = self._tag_memo.get(body)
        if tagged is None:
            tagged = self.schema.tag_with_attributes(body)
            if len(self._tag_memo) >= self._TAG_MEMO_CAP:
                self._tag_memo.clear()
            self._tag_memo[body] = tagged
        return tagged

    def tag_ground(self, update: GroundUpdate) -> GroundUpdate:
        """Tag one ground update (identity when tagging is off)."""
        if not self.auto_tag:
            return update
        insert = update.to_insert()
        tagged_body = self._tag_body(insert.body)
        if tagged_body is insert.body:
            return insert
        return Insert(tagged_body, insert.where)

    def _tag(self, update: JournaledUpdate) -> JournaledUpdate:
        """The Section 3.5 attribute-tagging layer, for every backend."""
        if not self.auto_tag:
            return update
        if isinstance(update, SimultaneousInsert):
            return SimultaneousInsert(
                [(where, self._tag_body(body)) for where, body in update.pairs]
            )
        return self.tag_ground(update)
