"""The bfock benchmark: dual-path exact checks, timed end to end and per module.

    python3 perfbench/run.py --workload wick-n8 --seed 1 --seconds 55 --trace 0

One closed-loop client runs the workload's checks one after another, each
round in a fresh interpreter (see worker.py), until the next round would end
past ``--seconds``; there is always at least one round.  Every check must
agree bit-exactly across its two paths and match its committed digest, where
one applies at that seed (see gate.py).  The last stdout line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run alternates untraced and traced rounds and reports
the per-module ones, medians over the traced rounds, and writes each traced
round's spans to ``.perfbench-out/``.  The exit code is 1 when a check failed
and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = tuple(json.loads((HERE / "plan.json").read_text())["workloads"])
SETUP_SAMPLES = 30  # fresh interpreters timed per run, rounds included
SETUP_BATCH = 6  # set-up-only interpreters before each round, to spread them over the run
WORKER_TIMEOUT_S = 150
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark could not run (as opposed to a check failing)."""


def spawn(workload: str, seed: int, mode: str, trace_out: Path | None = None) -> dict:
    """Run one worker round and return its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set and dict orders in every round
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--spawned-at", repr(spawned_at),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} round of {workload} ran past {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} round of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in PERCENTILES:
        rank = max(1, -(-len(ordered) * pct // 100))  # nearest rank, 1-based
        if len(ordered) - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return None


def describe(name: str, samples: list[float]) -> str:
    found = tail(samples)
    spread = f"p{found[0]:g} {found[1]:.4g}" if found else "no percentile has ten samples beyond it"
    return f"{name}: median {statistics.median(samples):.4g} s, {spread}, n={len(samples)}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict[str, list[dict]], list[float]]:
    """Rounds by mode, alternating untraced and traced ones when tracing, and set-up times.

    Every round is also a set-up sample; set-up-only interpreters run in
    batches between rounds (and after the last, if need be) until there are
    SETUP_SAMPLES.  Their time counts against ``seconds``.
    """
    modes = ("plain", "traced") if trace else ("plain",)
    rounds: dict[str, list[dict]] = {mode: [] for mode in modes}
    cost: dict[str, list[float]] = {mode: [] for mode in modes}
    setups: list[float] = []
    started = time.monotonic()
    count = 0
    while True:
        for _ in range(min(SETUP_BATCH, SETUP_SAMPLES - len(setups) - 1)):
            setups.append(spawn(workload, seed, "setup")["setup_s"])
        mode = modes[count % len(modes)]
        trace_out = OUT / f"trace-{workload}-seed{seed}-round{count}.json" if mode == "traced" else None
        t0 = time.monotonic()
        rounds[mode].append(spawn(workload, seed, mode, trace_out))
        cost[mode].append(time.monotonic() - t0)
        setups.append(rounds[mode][-1]["setup_s"])
        count += 1
        if count < len(modes):
            continue
        following = modes[count % len(modes)]
        if time.monotonic() - started + statistics.median(cost[following]) > seconds:
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(workload, seed, "setup")["setup_s"])
            return rounds, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "bfock" / "__init__.py").is_file():
            raise BenchError("no bfock sources under src/")
        # byte-compile up front so no round's set-up includes compiling
        if not compileall.compile_dir(ROOT / "src", quiet=1):
            raise BenchError("src/ does not compile")
        rounds, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    plain = rounds["plain"]
    every = [r for runs in rounds.values() for r in runs]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    walls = [r["wall_s"] for r in plain]
    wall_s = statistics.median(walls)

    print(f"workload {args.workload}, seed {args.seed}, {len(plain)} untraced rounds")
    print(describe("wall_s per round", walls))
    print(describe("time per check", [s for r in plain for s in r["check_s"]]))
    print(f"setup_s: median {statistics.median(setups):.4g} s, n={len(setups)}")
    print(f"failed_share: {failed / attempted:.4g} of {attempted} checks attempted")
    for failure in [f for r in every for f in r["failures"]][:5]:
        print(f"FAILED {failure}")

    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in rounds["traced"])
            for name in rounds["traced"][0]["layers"]
        }
        traced_wall = statistics.median(r["wall_s"] for r in rounds["traced"])
        values["trace.overhead_share"] = traced_wall / wall_s - 1
        declared_metrics = declared["per_layer"]
        plan = json.loads((HERE / "plan.json").read_text())
        for name, predicted in plan["predictions"].get(args.workload, {}).items():
            verdict = "holds" if values[name] == predicted else "DIFFERS"
            print(f"prediction {name} = {predicted}: measured {values[name]:g} ({verdict})")
        print(f"spans written to {OUT.relative_to(ROOT)}/trace-{args.workload}-seed{args.seed}-round*.json")
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        declared_metrics = declared["end_to_end"]

    names = {m["name"] for m in declared_metrics}
    if names != set(values):
        print(f"benchmark could not run: metrics {sorted(names ^ set(values))} "
              "are declared but not measured, or measured but not declared", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
