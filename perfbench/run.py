"""The repository benchmark: the public ``Database`` façade, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Workloads are ``ingest``, ``query_mix`` and ``ingest_simplify`` (see
``BENCHMARK.json`` for why each exists).  One run is a closed loop with one
client on one thread: each episode starts a fresh interpreter
(``episode.py``), sets the database up, and times every operation while
checking its answer.  Episodes, each with its own inputs derived from
``--seed``, repeat while another one still fits in ``--seconds``; at least
one always runs.  Set-up time, in seconds, is the median over the episodes
plus extra set-up-only starts, five in all at least.  Operation latencies
and throughput are in reference milliseconds (``ref_ms``, see
``episode.py``): wall time divided by the time of a fixed calibration loop
run beside each operation, so that the host's speed drifting does not read
as a change of the program.  The table also prints the wall-clock medians.
Peak RSS includes the calibration loop's clause table, about 6 MB.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: each of its episodes runs twice, untraced and then traced with the
same inputs, and the ratio of the two timed phases (in ``ref_ms``) is the
tracing overhead.
Every metric is printed with its unit, then the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from episode import WORKLOADS  # noqa: E402
from layers import UNITS as LAYER_UNITS  # noqa: E402

SETUP_SAMPLES = 5
EPISODE_TIMEOUT_S = 170

#: name -> unit; the order of the printed table.
END_TO_END = {
    "setup_s": "s",
    "update_p50": "ref_ms",
    "update_p90": "ref_ms",
    "ask_p50": "ref_ms",
    "ask_p90": "ref_ms",
    "ops_per_ref_s": "1/ref_s",
    "nodes_per_update": "count",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def run_episode(workload: str, seed: str, *, trace=False, setup_only=False):
    """One episode in a fresh interpreter; returns its JSON result."""
    command = [
        sys.executable,
        str(HERE / "episode.py"),
        "--workload", workload,
        "--seed", seed,
    ]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    # Fixed string hashing, so the same inputs take the same code paths.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        done = subprocess.run(
            command + ["--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=EPISODE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"episode timed out: {' '.join(command)}") from error
    if done.returncode != 0:
        raise BenchmarkError(
            f"episode exited with {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_units(run_unit, seconds: float):
    """Run units while the next one, as long as the last, still fits."""
    deadline = time.perf_counter() + seconds
    units = []
    while True:
        started = time.perf_counter()
        units.append(run_unit(len(units)))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return units


def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def pool(episodes, key):
    """kind -> the times *key* of every operation of that kind."""
    pooled = {kind: [] for kind in ("update", "ask", "find", "persist")}
    for e in episodes:
        for kind, value in zip(e["kinds"], e[key]):
            pooled[kind].append(value)
    return pooled


def end_to_end(workload, seed, seconds):
    episodes = run_units(lambda k: run_episode(workload, f"{seed}:{k}"), seconds)
    setups = [e["setup_s"] for e in episodes]
    k = len(episodes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_episode(workload, f"{seed}:{k}", setup_only=True)["setup_s"])
        k += 1
    ref = pool(episodes, "op_ref")
    metrics = {
        "setup_s": p50(setups),
        "update_p50": p50(ref["update"]),
        "update_p90": p90(ref["update"]),
        "ask_p50": p50(ref["ask"]),
        "ask_p90": p90(ref["ask"]),
        "ops_per_ref_s": 1e3 * sum(len(v) for v in ref.values())
        / sum(e["phase_ref"] for e in episodes),
        "nodes_per_update": p50([e["nodes"] / e["updates"] for e in episodes]),
        "peak_rss_mb": p50([e["peak_rss_mb"] for e in episodes]),
    }
    wall = pool(episodes, "op_s")
    samples = {kind: len(values) for kind, values in ref.items()}
    samples["setup"] = len(setups)
    samples["episodes"] = len(episodes)
    samples["wall_ms"] = {
        f"{kind}_p50": round(1e3 * p50(values), 3)
        for kind, values in wall.items() if values
    }
    samples["calibration_ms"] = round(
        1e3 * p50([p50(e["calibration_s"]) for e in episodes]), 4
    )
    return episodes, {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}, samples


def per_layer(workload, seed, seconds):
    def pair(k):
        plain = run_episode(workload, f"{seed}:{k}")
        traced = run_episode(workload, f"{seed}:{k}", trace=True)
        traced["layers"]["tracing.overhead_ratio"] = traced["phase_ref"] / plain["phase_ref"]
        return plain, traced

    pairs = run_units(pair, seconds)
    episodes = [e for both in pairs for e in both]
    metrics = {
        name: (p50([traced["layers"][name] for _, traced in pairs]), unit)
        for name, unit in LAYER_UNITS.items()
    }
    return episodes, metrics, {"pairs": len(pairs)}


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        episodes, metrics, samples = measure(args.workload, args.seed, args.seconds)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        try:  # episodes remove their own directories; drop the parent if empty
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    attempted = sum(e["attempted"] for e in episodes)
    failed = sum(e["failed"] for e in episodes)
    tracer_off = all(e["obs_enabled"] == 0 for e in episodes)
    for e in episodes:
        for error in e["errors"]:
            print(f"failed: {error}")
    if not tracer_off:
        print("failed: the span tracer was enabled during a timed run")
    print(f"workload {args.workload} seed {args.seed}: samples {samples}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6f} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0 and tracer_off,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
