"""Differential fuzzing subsystem — the engine's correctness backstop.

The paper's entire correctness claim is Theorem 1's commutative diagram:
updating the *theory* with algorithm GUA must land on the same alternative
worlds as updating every world individually.  With three interchangeable
backends (``gua``, ``log``, ``naive``), open and simultaneous updates,
schemas, and dependency axioms, no hand-written suite enumerates the
interactions — so this package generates them:

* :mod:`repro.qa.generate` — a seeded, deterministic generator of random
  schemas, extended relational theories (type axioms, FD/inclusion/MVD
  dependencies, disjunctive and negated wffs) and LDML scripts mixing
  INSERT/DELETE/MODIFY/ASSERT, open ``?var`` updates, and simultaneous
  updates;
* :mod:`repro.qa.oracle` — the differential harness: every case runs
  through all three ``Database`` backends plus the per-model S-set
  semantics of :mod:`repro.ldml.semantics`, comparing alternative-world
  sets after every statement, checking ``ask`` certain/possible answers
  against a scan of the oracle's worlds, plus the Section 3.1 metamorphic
  laws (operator reduction to INSERT, update-then-rollback identity,
  persistence round-trip);
* :mod:`repro.qa.shrink` — a delta-debugging minimizer that reduces a
  failing (theory, script) pair to a minimal reproducer and emits it as a
  ready-to-paste pytest regression;
* :mod:`repro.qa.plant` — deliberately-broken engine variants (mutated
  GUA Step 4 restrictors, a query solver that keeps a stale activation
  literal live) used to prove the oracle catches real bugs;
* :mod:`repro.qa.cli` — the ``repro fuzz`` entry point
  (``python -m repro fuzz --seed 7 --cases 200``).

Everything is seeded: the same ``--seed`` replays the same cases, and every
failing case serializes to JSON for the regression corpus in
``tests/qa/corpus/``.
"""

from repro.qa.generate import FuzzCase, FuzzConfig, case_is_legal, generate_case
from repro.qa.oracle import CaseReport, Discrepancy, run_case
from repro.qa.plant import PLANTED_BUGS, planted_bug
from repro.qa.shrink import emit_pytest, shrink_case

__all__ = [
    "FuzzCase",
    "FuzzConfig",
    "case_is_legal",
    "generate_case",
    "CaseReport",
    "Discrepancy",
    "run_case",
    "PLANTED_BUGS",
    "planted_bug",
    "shrink_case",
    "emit_pytest",
]
