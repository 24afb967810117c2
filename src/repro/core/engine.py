"""The user-facing database façade.

:class:`Database` is now a thin shell over the staged update pipeline
(:mod:`repro.core.pipeline`): every statement — ground, open, SQL-ish —
runs through parse → normalize → tag → execute → journal → maintain, and
the execution strategy is a pluggable backend::

    db = Database(schema=schema_from_dict({"Orders": [...]}), auto_tag=True)
    db.update("INSERT Orders(700,32,9) | Orders(700,33,9) WHERE T")
    db.ask("Orders(700,32,9)")          # -> possible
    db.update("ASSERT Orders(700,32,9)")
    db.ask("Orders(700,32,9)")          # -> certain

    Database(backend="gua")    # algorithm GUA on a live theory (default)
    Database(backend="log")    # Section 4 strawman: append, replay on read
    Database(backend="naive")  # Section 3.2: explicit alternative worlds

All backends answer queries through the same ``ask``/``worlds`` surface, so
benchmarks (E10, E12) compare them through one entry point; counters and
per-stage duration histograms are available from :meth:`metrics_snapshot`,
and the last update's stage-by-stage trace from :meth:`last_trace`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.gua import GuaResult
from repro.core.pipeline import (
    BackendResult,
    PipelineTracer,
    UpdateBackend,
    UpdatePipeline,
    UpdateTrace,
    make_backend,
)
from repro.core.simplification import (
    AutoSimplifier,
    SimplificationReport,
    simplify_theory,
)
from repro.core.transaction import TransactionManager
from repro.errors import InconsistentTheoryError, UpdateError
from repro.ldml.ast import GroundUpdate
from repro.ldml.parser import parse_script
from repro.logic.arena import ARENA
from repro.logic.syntax import Formula
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import TRACER
from repro.query.answers import Answer
from repro.query.select import SelectedRow, select as select_theory
from repro.theory.dependencies import TemplateDependency
from repro.theory.schema import DatabaseSchema
from repro.theory.theory import ExtendedRelationalTheory
from repro.theory.worlds import AlternativeWorld

#: What an update call returns: the GUA result on the gua backend, the
#: uniform :class:`BackendResult` elsewhere.  Both expose ``.update`` and
#: ``.stats``.
UpdateResult = Union[GuaResult, BackendResult]


class Database:
    """An incomplete-information database under LDML updates."""

    def __init__(
        self,
        schema: Optional[DatabaseSchema] = None,
        dependencies: Sequence[TemplateDependency] = (),
        facts: Sequence[Union[Formula, str]] = (),
        *,
        auto_tag: bool = True,
        simplify_every: Optional[int] = None,
        backend: str = "gua",
    ):
        """Args:
            schema: optional database schema (enables type axioms and the
                attribute-tagging layer).
            dependencies: dependency axioms to enforce.
            facts: initial non-axiomatic wffs.
            auto_tag: apply the Section 3.5 "type and dependency layer" to
                INSERT/MODIFY bodies (conjoin attribute atoms) so type
                axioms never silently drop freshly inserted worlds.
            simplify_every: run the Section 4 simplifier every N updates
                (gua: in place after updates; log: during replay; naive:
                ignored — explicit worlds have no syntactic growth).
            backend: execution strategy — ``"gua"`` (live theory, default),
                ``"log"`` (log-structured strawman), or ``"naive"``
                (explicit world set).
        """
        base = ExtendedRelationalTheory(
            schema=schema, dependencies=dependencies, formulas=facts
        )
        self.auto_tag = auto_tag and schema is not None
        # The transaction manager copies the base before the backend can
        # mutate it, so replay always starts from the true initial state.
        self.transactions = TransactionManager(base)
        self.backend: UpdateBackend = make_backend(
            backend, base, simplify_every=simplify_every
        )
        self.metrics = MetricsRegistry()
        self.tracer = PipelineTracer(self.metrics)
        self._simplifier = (
            AutoSimplifier(simplify_every)
            if simplify_every and self.backend.supports("simplify")
            else None
        )
        self.pipeline = UpdatePipeline(
            self.backend,
            self.transactions.log,
            self.tracer,
            schema=schema,
            auto_tag=self.auto_tag,
            simplifier=self._simplifier,
        )
        # Per-savepoint simplifier state (update-counter phase, report
        # count) so rollback restores the whole engine, not just the theory.
        self._simplifier_marks: Dict[str, Tuple[int, int]] = {}
        # Every health counter flows through the registry, which adds each
        # source's namespace to its plain keys.
        for namespace, collector in self.backend.metric_sources():
            self.metrics.register_collector(namespace, collector)
        self.metrics.register_collector(
            "engine", lambda: {"updates_applied": len(self.transactions.log)}
        )
        self.metrics.register_collector("arena", ARENA.statistics)
        self.metrics.register_collector("obs", TRACER.statistics)

    # -- backend views -----------------------------------------------------------

    @property
    def theory(self) -> ExtendedRelationalTheory:
        """The backend's theory — live for gua, materialized (replayed) for
        log; the naive backend has none and raises
        :class:`~repro.errors.TheoryError`."""
        return self.backend.theory

    # -- updates ---------------------------------------------------------------

    def update(self, statement: Union[GroundUpdate, str]) -> UpdateResult:
        """Apply one LDML update through the staged pipeline.

        Statements containing ``?var`` variables — either strings or
        :class:`~repro.ldml.open_updates.OpenUpdate` objects — are open
        updates: the normalize stage grounds them over the backend's atom
        universe into one simultaneous set (Section 4's reduction).
        """
        return self.pipeline.submit(statement)

    def update_open(
        self, statement, domains=None
    ) -> UpdateResult:
        """Apply an LDML update with variables (see
        :mod:`repro.ldml.open_updates`)."""
        from repro.ldml.open_updates import OpenUpdate, parse_open_update

        open_update = (
            parse_open_update(statement)
            if isinstance(statement, str)
            else statement
        )
        if not isinstance(open_update, OpenUpdate):
            raise UpdateError(
                f"update_open expects an open update, got {statement!r}"
            )
        return self.pipeline.submit(open_update, domains=domains)

    def run_script(self, script: str) -> List[UpdateResult]:
        """Apply a ';'-separated LDML script (ground and open statements)."""
        return [self.pipeline.submit(u) for u in parse_script(script)]

    def sql(self, statement: str) -> UpdateResult:
        """Apply one SQL-ish statement (see :mod:`repro.ldml.sql`)."""
        return self.pipeline.submit(statement, source="sql")

    # -- queries ---------------------------------------------------------------

    def ask(self, query: Union[Formula, str]) -> Answer:
        """Three-valued answer: certain / possible / impossible."""
        return self.backend.ask(query)

    def is_certain(self, query: Union[Formula, str]) -> bool:
        return self.ask(query).certain

    def is_possible(self, query: Union[Formula, str]) -> bool:
        return self.ask(query).possible

    def select(self, relation: str, **kwargs) -> List[SelectedRow]:
        """Tuple membership with certainty status for one relation."""
        return select_theory(self.theory, relation, **kwargs)

    def explain(self, query: Union[Formula, str]):
        """Witness worlds for a query: ``(world_where_true, world_where_false)``.

        Either component is None when no such world exists (so a certain
        query has ``(world, None)``, an impossible one ``(None, world)``).
        """
        from repro.query.answers import witness_world

        return (
            witness_world(self.theory, query, holds=True),
            witness_world(self.theory, query, holds=False),
        )

    def find(self, query: str, **kwargs):
        """Answer a query with ``?var`` variables: bindings with status.

        >>> db.find("Emp(?x, sales)")   # doctest: +SKIP
        [AnswerRow(binding=(('x', alice),), status='certain'), ...]
        """
        from repro.query.open_queries import parse_open_query

        return parse_open_query(query).answers(self.theory, **kwargs)

    def worlds(self) -> List[AlternativeWorld]:
        """Materialize the world set (exponential in the incompleteness)."""
        return sorted(
            self.backend.world_set(), key=lambda w: sorted(map(str, w))
        )

    def world_set(self, limit: Optional[int] = None):
        """The alternative-world set as a frozenset, optionally capped.

        With ``limit``, at most that many worlds are materialized — the
        hook the QA differential oracle uses to compare backends without
        risking an exponential enumeration on a runaway case (a result of
        exactly ``limit`` worlds may be truncated; compare against
        ``limit + 1`` caps to detect overflow).
        """
        return self.backend.world_set(limit=limit)

    def world_count(self, cap: Optional[int] = None) -> int:
        return self.backend.world_count(cap=cap)

    def is_consistent(self) -> bool:
        return self.backend.is_consistent()

    def check_consistent(self) -> None:
        if not self.is_consistent():
            raise InconsistentTheoryError(
                "the theory has no models — a previous ASSERT/INSERT "
                "contradicted everything; roll back or rebuild"
            )

    # -- maintenance ---------------------------------------------------------------

    def simplify(self, **options) -> SimplificationReport:
        """Run the Section 4 simplifier now (gua backend only — the log
        backend checkpoints with :meth:`compact` instead)."""
        if not self.backend.supports("simplify"):
            raise UpdateError(
                f"the {self.backend.name!r} backend has no in-place theory "
                "to simplify"
                + (
                    "; use compact() to checkpoint the log"
                    if self.backend.supports("compact")
                    else ""
                )
            )
        return simplify_theory(self.theory, **options)

    def compact(self) -> None:
        """Checkpoint a log backend: fold the pending log into the base."""
        if not self.backend.supports("compact"):
            raise UpdateError(
                f"the {self.backend.name!r} backend does not keep a "
                "compactable log"
            )
        self.backend.compact()

    def metrics_snapshot(self) -> Dict[str, float]:
        """Engine-wide health metrics under dotted names: the backend's
        counters (``theory.*``, ``sat.*`` and ``tseitin.*`` for gua,
        ``log.*`` for the log store, ``naive.*`` world counts),
        ``engine.updates_applied``, the per-stage duration histograms
        ``pipeline.<stage>.seconds.{count,sum,p50,p90,p99}``, the formula
        arena's ``arena.*`` interning/memo counters (process-wide, shared
        by all databases), and the span tracer's ``obs.*`` counters.

        A key produced by two sources raises instead of silently shadowing
        a metric.
        """
        return self.metrics.snapshot()

    def explain_update(self) -> str:
        """Render the last applied update as the paper's GUA Step 1–7
        narrative (see :func:`repro.obs.explain.explain_update`)."""
        from repro.obs.explain import explain_update

        return explain_update(self)

    def last_trace(self) -> Optional[UpdateTrace]:
        """The stage-by-stage trace of the most recent pipeline update."""
        return self.tracer.last()

    # -- transactions ---------------------------------------------------------------

    def savepoint(self, name: str) -> None:
        if not self.backend.supports("savepoints"):
            raise UpdateError(
                f"the {self.backend.name!r} backend does not support "
                "savepoints"
            )
        self.transactions.savepoint(name, self.theory)
        if self._simplifier is not None:
            self._simplifier_marks[name] = self._simplifier.mark()

    def rollback(self, name: str) -> None:
        if not self.backend.supports("savepoints"):
            raise UpdateError(
                f"the {self.backend.name!r} backend does not support "
                "savepoints"
            )
        snapshot = self.transactions.rollback(name)
        # Restore in place so the executor and journal keep working against
        # the same theory object.
        self.theory.restore(snapshot)
        # Re-sync the auto-simplifier with the restored timeline: its
        # update counter and report list must match the savepoint, or the
        # next update would simplify too early/late (or report phantom
        # passes that the rollback undid).
        if self._simplifier is not None:
            mark = self._simplifier_marks.get(name)
            if mark is not None:
                self._simplifier.restore(mark)
            surviving = set(self.transactions.savepoint_names())
            self._simplifier_marks = {
                n: m for n, m in self._simplifier_marks.items() if n in surviving
            }
        # A rolled-back update must never be reported as current: rewind the
        # pipeline trace history, drop this pipeline's root spans past the
        # new journal tip, and clear the cached last execution result.
        log_length = len(self.transactions.log)
        self.tracer.truncate(log_length)
        pipeline_id = self.pipeline.pipeline_id
        TRACER.discard(
            lambda root: root.attrs.get("pipeline") == pipeline_id
            and root.attrs.get("sequence", log_length) >= log_length
        )
        if (
            self.pipeline.last_sequence is not None
            and self.pipeline.last_sequence >= log_length
        ):
            self.pipeline.last_result = None
            self.pipeline.last_sequence = None

    def size(self) -> int:
        """The backend's growth measure (stored nodes for gua, pending log
        length for log, world count for naive)."""
        return self.backend.size()

    def __repr__(self) -> str:
        return (
            f"Database(backend={self.backend.name!r}, size={self.size()}, "
            f"{len(self.transactions.log)} updates applied)"
        )
