"""Every committed CLI output, one row each: the command and the file its stdout reproduces.

Run it from the repository root:

    python3 tests/goldens.py

It runs every row in this process through ``bfock.cli.main`` and exits 1 if a
row does not exit 0 or its stdout differs from its file.  As a script it
blocks numpy before bfock is imported, so every row also shows that the CLI
needs no numpy.  The tier-1 suite runs each row through the same ``run``
(``tests/test_cli.py``), except a row marked ``tier1=False``.  It needs only
the standard library; pytest does not collect it.

A row's file is compared byte for byte, except a ``.sha256`` file, which
holds the ``sha256sum`` line of the stdout (``<hex digest>  -``).  A row with
no file only has to exit 0.  A new committed output is a new row.
"""

from __future__ import annotations

import hashlib
import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Golden(NamedTuple):
    command: str  # the argv of ``bfock``, split on spaces
    file: str | None  # relative to the repository root
    tier1: bool = True


GOLDENS = [
    Golden("verify --suite all", "perfbench/expected/verify-all.stdout"),
    Golden("verify --suite all --n 5 --seed 11", None),
    # both vector sweeps agree on every symbol word up to the guard
    Golden("verify --suite vector --n 6", None),
    Golden("fock --n 4 --signature +-", "tests/data/fock-n4.json"),
    Golden("fock --n 5 --signature +-", "tests/data/fock-n5.sha256"),
    Golden("fock --n 4 --signature +--", "tests/data/fock-n4-d3.sha256"),
    Golden("orthopoly --family alphaq-poisson-B --N 10", "tests/data/orthopoly-alphaq-poisson-B-N10.sha256"),
    Golden("orthopoly --family qt-poisson --N 10", "tests/data/orthopoly-qt-poisson-N10.sha256"),
    Golden("group --n 6", "tests/data/group-n6.sha256"),
    # B_7, the rank guard: 645,120 rows, about 7 s in-process, so only the script runs it
    Golden("group --n 7", "tests/data/group-n7.sha256", tier1=False),
    Golden("partitions --n 7", "tests/data/partitions-n7.sha256"),
    Golden("partitions --n 7 --filter no-singletons", "tests/data/partitions-n7-no-singletons.sha256"),
    Golden("partitions --n 7 --filter pairs-only", "tests/data/partitions-n7-pairs-only.sha256"),
    Golden("partitions --n 6 --extended", "tests/data/partitions-n6-extended.sha256"),
    Golden("moment --seed 11 --n 4", "tests/data/moment-seed11-n4.json"),
    # singletons and fractional lambdas; at n = 9 the open-block states merge deeper; n = 10 is the wick guard
    Golden("moment --seed 11 --n 8 --lambda 2/3 --lambda=-1/2 --check", "tests/data/moment-seed11-n8.json"),
    Golden("moment --seed 11 --n 9 --lambda 2/3 --lambda=-1/2 --check", "tests/data/moment-seed11-n9.json"),
    Golden("moment --seed 11 --n 10 --lambda 2/3 --lambda=-1/2 --check", "tests/data/moment-seed11-n10.json"),
    Golden("partitions --n 5 --extended", "tests/data/partitions-n5-extended.csv"),
    Golden("qt --n 8 --t-symbolic", "tests/data/qt-n8.json"),
    Golden("qt --n 8 --t-symbolic --check", "tests/data/qt-n8-check.json"),
    Golden("moment --seed 11 --n 8 --signature +-- --check", "tests/data/moment-seed11-n8-d3.json"),
    Golden("fock --n 3 --signature +- --mode rational --alpha 1/2 --q=-1/3", "tests/data/fock-n3-rational.json"),
    Golden("fock --n 3 --signature +- --mode float --alpha 1/2 --q=-1/3", "tests/data/fock-n3-float.json"),
    Golden(
        "moment --seed 11 --n 5 --mode rational --alpha 1/3 --q 1/2 --check",
        "tests/data/moment-seed11-n5-rational.json",
    ),
    Golden(
        "orthopoly --family alsalam-ismail --N 6 --mode rational --t 1/2",
        "tests/data/orthopoly-alsalam-ismail-N6-rational.json",
    ),
    Golden("qt --n 6 --q 1/5 --t 1/2 --check", "tests/data/qt-n6-q-t-check.json"),
]


def run(golden: Golden) -> tuple[int, bytes, bytes | None]:
    """The row's exit code, what its stdout is compared as (the bytes, or their
    ``sha256sum`` line for a ``.sha256`` file) and the file's bytes, or None."""
    from bfock.cli import main  # here, so that the script can block numpy first

    with redirect_stdout(io.StringIO()) as out:
        code = main(golden.command.split())
    got = out.getvalue().encode("utf-8")
    if golden.file is None:
        return code, got, None
    if golden.file.endswith(".sha256"):
        got = f"{hashlib.sha256(got).hexdigest()}  -\n".encode("ascii")
    return code, got, (ROOT / golden.file).read_bytes()


def main() -> int:
    failed = 0
    for golden in GOLDENS:
        started = time.perf_counter()
        code, got, expected = run(golden)
        elapsed = time.perf_counter() - started
        problem = (
            f"exit {code}" if code != 0
            else f"stdout differs from {golden.file}" if expected is not None and got != expected
            else ""
        )
        failed += bool(problem)
        print(f"{'FAIL' if problem else 'ok':4} {elapsed:6.2f} s  bfock {golden.command}  {problem}".rstrip())
    print(f"{len(GOLDENS)} rows; {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.modules["numpy"] = None  # an import of numpy now raises ImportError
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
