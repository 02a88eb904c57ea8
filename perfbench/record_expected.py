"""Write the committed expectations the correctness gate compares against.

    python3 perfbench/record_expected.py

Runs every workload's checks at seed 1 and stores, per check, the digest of
its canonical output in ``expected/digests-seed1.json``, and the default
``bfock verify --suite all`` stdout in ``expected/verify-all.stdout``.  A check
whose two paths disagree is an error, never recorded.  Rerun only when an
output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    for workload in run.WORKLOADS:
        if workload == "verify-all":
            code, stdout = workloads.run_verify(timings=False)
            if code != 0:
                raise SystemExit(f"verify exited {code}")
            (gate.EXPECTED / "verify-all.stdout").write_text(stdout, encoding="utf-8")
            continue
        digests[workload] = {}
        for check in workloads.build(workload, gate.DIGEST_SEED):
            equal, lhs, rhs = check.run()
            if not equal or lhs != rhs:
                raise SystemExit(f"{workload}/{check.id}: the two paths disagree")
            digests[workload][check.id] = gate.digest(lhs)
    path = gate.EXPECTED / f"digests-seed{gate.DIGEST_SEED}.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
