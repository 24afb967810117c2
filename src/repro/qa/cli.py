"""The ``repro fuzz`` entry point.

Runs a seeded batch of differential cases and reports discrepancies::

    python -m repro fuzz --seed 7 --cases 200
    python -m repro fuzz --seed 7 --cases 50 --check diagram --check backends
    python -m repro fuzz --seed 7 --cases 20 --plant step4-drop-guard

Exit status 0 when every case agrees, 1 when any discrepancy survives.
Each failing case is shrunk (unless ``--no-shrink``) and printed as a
minimal reproducer; ``--emit-dir`` additionally writes each one as a
ready-to-paste pytest module plus its JSON spec for
``tests/qa/corpus/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs import configure, render_metrics, span
from repro.obs.metrics import MetricsRegistry
from repro.qa.generate import FuzzConfig, generate_case
from repro.qa.oracle import DEFAULT_CHECKS, run_case
from repro.qa.shrink import emit_pytest, shrink_case


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Differential fuzzing: random theories + LDML scripts through "
            "all backends and the S-set oracle (Theorem 1's commutative "
            "diagram)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--cases", type=int, default=100, help="number of cases to run"
    )
    parser.add_argument(
        "--max-atoms", type=int, default=6, help="ground-atom pool per case"
    )
    parser.add_argument(
        "--max-wffs", type=int, default=4, help="initial-theory wffs per case"
    )
    parser.add_argument(
        "--max-statements", type=int, default=4, help="script length per case"
    )
    parser.add_argument(
        "--check",
        action="append",
        choices=DEFAULT_CHECKS,
        help="run only these checks (repeatable; default: all)",
    )
    parser.add_argument(
        "--world-cap",
        type=int,
        default=256,
        help="skip comparisons once a world set outgrows this (default 256)",
    )
    parser.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="report raw failing cases without minimizing them",
    )
    parser.add_argument(
        "--emit-dir",
        metavar="DIR",
        help="write each failing case as pytest + JSON into DIR",
    )
    parser.add_argument(
        "--plant",
        metavar="BUG",
        help="run with a deliberately broken engine (see repro.qa.plant) — "
        "for validating that the oracle catches it",
    )
    parser.add_argument(
        "--progress-every",
        type=int,
        default=50,
        metavar="N",
        help="print a progress line every N cases (0: quiet)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the qa.* metrics registry at the end",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable obs span tracing for the run",
    )
    return parser


def _run_batch(args, registry: MetricsRegistry, out) -> int:
    config = FuzzConfig(
        max_atoms=args.max_atoms,
        max_wffs=args.max_wffs,
        max_statements=args.max_statements,
    )
    checks = tuple(args.check) if args.check else None
    failures = 0
    skipped_checks = 0
    for index in range(args.cases):
        case = generate_case(args.seed * 1_000_003 + index, config)
        report = run_case(
            case, checks, world_cap=args.world_cap, registry=registry
        )
        skipped_checks += report.checks_skipped
        if report.ok:
            if args.progress_every and (index + 1) % args.progress_every == 0:
                print(
                    f"  ... {index + 1}/{args.cases} cases, "
                    f"{failures} discrepancies",
                    file=out,
                )
            continue
        failures += 1
        print(f"case {index} (seed {case.seed}): {report.summary()}", file=out)
        if args.shrink:
            fails = lambda c: not run_case(  # noqa: E731
                c, checks, world_cap=args.world_cap
            ).ok
            case, steps = shrink_case(case, fails, registry=registry)
            print(f"  shrunk in {steps} steps to:", file=out)
        else:
            print("  raw case:", file=out)
        for line in case.describe().splitlines():
            print(f"    {line}", file=out)
        if args.emit_dir:
            _emit(case, checks, args.emit_dir, index, out)
    print(
        f"{args.cases} cases: {failures} with discrepancies "
        f"({skipped_checks} comparisons skipped at world cap "
        f"{args.world_cap})",
        file=out,
    )
    return 1 if failures else 0


def _emit(case, checks, directory: str, index: int, out) -> None:
    from pathlib import Path

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    stem = f"repro_seed_{case.seed}"
    (target / f"{stem}.json").write_text(case.to_json() + "\n")
    (target / f"test_{stem}.py").write_text(
        emit_pytest(case, note=case.note or f"fuzz case {index}", checks=checks)
    )
    print(f"  wrote {target / f'test_{stem}.py'}", file=out)


def fuzz_main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    if args.trace:
        configure(enabled=True)
    registry = MetricsRegistry()
    with span("qa.fuzz", seed=args.seed, cases=args.cases):
        if args.plant:
            from repro.qa.plant import planted_bug

            with planted_bug(args.plant):
                status = _run_batch(args, registry, out)
            # A planted bug the oracle missed is itself a failure.
            if status == 0:
                print(
                    f"planted bug {args.plant!r} was NOT detected",
                    file=out,
                )
                status = 1
            else:
                print(
                    f"planted bug {args.plant!r} detected (exit 0)",
                    file=out,
                )
                status = 0
        else:
            status = _run_batch(args, registry, out)
    if args.metrics:
        print(render_metrics(registry.snapshot()), file=out)
    return status
