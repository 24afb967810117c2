"""``EXPLAIN`` for updates: the last update rendered as the paper's GUA
narrative, step by step.

Algorithm GUA (Sections 3.3–3.6) is itself the best explanation of *why* an
update produced the theory it did: which atoms were new and got completion
axioms (Step 1/2'), which atoms were renamed to which predicate constants
(Step 2), what the definition and restriction wffs look like (Steps 3–4),
and which type/dependency axiom instances had to be materialized
(Steps 5–7).  :func:`explain_update` renders exactly that, from the
step-tagged additions every :class:`~repro.core.gua.GuaResult` records.

On the gua backend the narrative comes from the *live* execution result.
The log and naive backends never ran GUA for the update (they append /
rewrite worlds), so the narrative is reconstructed: the journal is replayed
up to the previous update and GUA is dry-run on that pre-state — same
statement, same semantics, fresh predicate-constant names.

When span tracing was enabled during the update (see
:mod:`repro.obs.spans`), the report also includes the hierarchical timing
tree — pipeline stages, GUA steps, SAT solves — of the actual run.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.spans import TRACER, Span

__all__ = ["explain_update", "narrate_gua"]

#: (step key in ``GuaResult.step_additions``, report label, paper action)
GUA_STEPS = (
    ("step1", "Step 1 ", "extend completion axioms"),
    ("step2'", "Step 2'", "attribute completion"),
    ("step2", "Step 2 ", "rename updated atoms"),
    ("step3", "Step 3 ", "define the update"),
    ("step4", "Step 4 ", "restrict the update"),
    ("step5", "Step 5 ", "instantiate type axioms"),
    ("step6", "Step 6 ", "instantiate dependency axioms"),
    ("step7", "Step 7 ", "close completion axioms"),
)


def narrate_gua(result) -> List[str]:
    """The Steps 1–7 narrative of one :class:`~repro.core.gua.GuaResult`."""
    additions = getattr(result, "step_additions", {}) or {}
    stats = result.stats
    lines: List[str] = []
    lines.append(f"  statement: {result.update}")
    lines.append(f"  g = {stats.g} ground atom instances in the update")
    for key, label, action in GUA_STEPS:
        if key == "step2":
            if result.fresh_constants:
                renames = ", ".join(
                    f"{atom} => {fresh}"
                    for atom, fresh in sorted(
                        result.fresh_constants.items(), key=lambda kv: kv[0]
                    )
                )
                lines.append(
                    f"{label} ({action}): {renames}  "
                    f"[{stats.renamed_occurrences} stored occurrence(s) "
                    "redirected]"
                )
            else:
                lines.append(f"{label} ({action}): nothing to rename")
            continue
        added = additions.get(key, ())
        if not added:
            suffix = ""
            if key == "step6" and stats.dependency_bindings_examined:
                suffix = (
                    f" ({stats.dependency_bindings_examined} binding(s) "
                    "examined, all already instantiated)"
                )
            lines.append(f"{label} ({action}): no wffs added{suffix}")
            continue
        lines.append(f"{label} ({action}): added {len(added)} wff(s)")
        for formula in added:
            lines.append(f"    + {formula}")
    return lines


def _find_update_span(pipeline_id: int, sequence: int) -> Optional[Span]:
    return TRACER.find_root(
        lambda root: root.name == "pipeline.update"
        and root.attrs.get("pipeline") == pipeline_id
        and root.attrs.get("sequence") == sequence
    )


def explain_update(db) -> str:
    """A GUA step-by-step report for *db*'s most recent update.

    Works on every backend: the gua backend explains its live execution;
    the others replay the journal to the pre-update state and dry-run GUA
    on it (the narrative is semantically identical, but predicate-constant
    names are freshly minted).  Appends the recorded span tree when the
    update ran with tracing enabled.
    """
    from repro.core.gua import GuaExecutor, GuaResult

    entries = db.transactions.log.entries()
    if not entries:
        return "nothing to explain: no updates applied yet"
    entry = entries[-1]

    result = None
    reconstructed = False
    pipeline = db.pipeline
    if (
        pipeline.last_result is not None
        and pipeline.last_sequence == entry.sequence
        and isinstance(pipeline.last_result, GuaResult)
    ):
        result = pipeline.last_result
    else:
        pre_state = db.transactions.replay(upto=entry.sequence)
        result = GuaExecutor(pre_state).apply(entry.update)
        reconstructed = True

    lines: List[str] = []
    source = (
        "reconstructed by replaying the journal and dry-running GUA"
        if reconstructed
        else "live GUA execution"
    )
    lines.append(
        f"GUA EXPLAIN — update #{entry.sequence} ({entry.kind}) via the "
        f"{db.backend.name!r} backend [{source}]"
    )
    lines.extend(narrate_gua(result))

    root = _find_update_span(pipeline.pipeline_id, entry.sequence)
    if root is not None:
        lines.append("")
        lines.append("span tree (wall clock):")
        lines.append(root.render())
    elif not TRACER.enabled:
        lines.append(
            "(span tracing disabled — enable with repro.obs.configure"
            "(enabled=True) or the CLI --trace flag for per-step timings)"
        )
    return "\n".join(lines)
