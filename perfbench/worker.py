"""One benchmark round in a fresh interpreter: set up, run the checks, report.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed N --mode plain|traced|setup
                                --spawned-at T [--trace-out PATH]

Every round is a fresh process because ``coxeter._group_table`` is an
``lru_cache`` that a CLI user pays for on every call; a warm loop would
measure cache hits.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY_TIMINGS = (
    "spectral-bounds",
    "factorization",
    "orthopoly-substitution",
    "group-partition-counts",
)


def _import_bfock() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import bfock

    if Path(bfock.__file__).resolve().parent != (ROOT / "src" / "bfock").resolve():
        raise SystemExit(f"bfock was imported from {bfock.__file__}, not this checkout")


def verify_check_timings(stdout: str) -> dict[str, float]:
    """cli.check.<name>.s from a `verify --timings` report."""
    elapsed = {check["name"]: check["elapsed_ms"] for check in json.loads(stdout)["checks"]}
    return {f"cli.check.{name}.s": elapsed[name] / 1000 for name in VERIFY_TIMINGS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["plain", "traced", "setup"], required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the parent at spawn")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    _import_bfock()
    import gate
    import spans
    import workloads

    traced = args.mode == "traced"
    checks = workloads.build(args.workload, args.seed, timings=traced)
    fixed = {check.id for check in checks if check.fixed}
    judge = gate.Gate(*gate.load_expected(args.workload, args.seed, fixed))
    report: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        missing = spans.install(tracer)
        if missing:
            print(f"not traced, not found: {', '.join(missing)}", file=sys.stderr)

    check_s = []
    started = time.perf_counter()
    with tracer.span(spans.ROOT_SPAN) if tracer else nullcontext():
        for check in checks:
            t0 = time.perf_counter()
            try:
                equal, lhs, rhs = check.run()
            except Exception as exc:  # a raising check is a failed check
                judge.record_error(check.id, exc)
            else:
                judge.record(check.id, equal, lhs, rhs)
            check_s.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - started

    report.update(
        wall_s=wall_s,
        check_s=check_s,
        attempted=judge.attempted,
        failed=judge.failed,
        failures=judge.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        layers.update({f"cli.check.{name}.s": 0.0 for name in VERIFY_TIMINGS})
        for check in checks:
            if isinstance(check.run, workloads.VerifyRun):
                layers.update(verify_check_timings(check.run.stdout))
        report["layers"] = layers
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "spans": spans.spans_json(tracer)}
            ))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
