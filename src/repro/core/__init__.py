"""The paper's primary contribution: algorithm GUA and its surroundings."""

from repro.core.gua import GuaExecutor, GuaResult, GuaStats, gua_run_script, gua_update
from repro.core.naive import NaiveWorldStore, commutes
from repro.core.simplification import (
    AutoSimplifier,
    SimplificationReport,
    simplify_theory,
)
from repro.core.transaction import LogEntry, Savepoint, TransactionManager, UpdateLog
from repro.core.logstore import LogStructuredStore
from repro.core.pipeline import (
    BackendResult,
    GuaBackend,
    LogBackend,
    NaiveBackend,
    PipelineTracer,
    StageEvent,
    UpdateBackend,
    UpdatePipeline,
    UpdateTrace,
    make_backend,
)
from repro.core.engine import Database

__all__ = [
    "GuaExecutor",
    "GuaResult",
    "GuaStats",
    "gua_run_script",
    "gua_update",
    "NaiveWorldStore",
    "commutes",
    "AutoSimplifier",
    "SimplificationReport",
    "simplify_theory",
    "LogEntry",
    "Savepoint",
    "TransactionManager",
    "UpdateLog",
    "LogStructuredStore",
    "BackendResult",
    "GuaBackend",
    "LogBackend",
    "NaiveBackend",
    "PipelineTracer",
    "StageEvent",
    "UpdateBackend",
    "UpdatePipeline",
    "UpdateTrace",
    "make_backend",
    "Database",
]
