"""Correctness gate: every check must agree bit-exactly across its two paths.

The canonical outputs must also match the digests committed under
``expected/``: at the default seed every check's, at any other seed those of
the checks whose output does not depend on the seed (all of ``wick-n8``, the
orthopoly checks).  So a fault in the scalar core that both paths share fails
the gate at any seed.  The ``verify`` report must match its committed copy
byte for byte at every seed.  A check that raises counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"
DIGEST_SEED = 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected(
    workload: str, seed: int, fixed: set[str] = frozenset()
) -> tuple[dict[str, str], dict[str, str]]:
    """(digests, exact texts) that the workload's outputs must match at this seed.

    ``fixed`` names the checks whose output does not depend on the seed.
    """
    table = json.loads((EXPECTED / f"digests-seed{DIGEST_SEED}.json").read_text())
    digests = {
        check_id: value
        for check_id, value in table.get(workload, {}).items()
        if seed == DIGEST_SEED or check_id in fixed
    }
    texts: dict[str, str] = {}
    if workload == "verify-all":
        texts["verify-all"] = (EXPECTED / "verify-all.stdout").read_text(encoding="utf-8")
    return digests, texts


class Gate:
    """Counts checks attempted and failed, keeping the first failures' reasons."""

    KEPT = 5

    def __init__(self, digests: dict[str, str] | None = None, texts: dict[str, str] | None = None):
        self.digests = digests or {}
        self.texts = texts or {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, check_id: str, reason: str) -> bool:
        self.failed += 1
        if len(self.failures) < self.KEPT:
            self.failures.append(f"{check_id}: {reason}")
        return False

    def record(self, check_id: str, equal: bool, lhs: str, rhs: str) -> bool:
        """Judge one check's result; True when it passed."""
        self.attempted += 1
        if not equal or lhs != rhs:
            return self._fail(check_id, f"paths differ: {lhs[:80]!r} vs {rhs[:80]!r}")
        if check_id in self.texts and lhs != self.texts[check_id]:
            return self._fail(check_id, "output differs from the committed copy")
        if check_id in self.digests and digest(lhs) != self.digests[check_id]:
            return self._fail(check_id, "output differs from the committed digest")
        return True

    def record_error(self, check_id: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(check_id, f"raised {type(exc).__name__}: {exc}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
