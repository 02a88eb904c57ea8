"""Seeded inputs and the dual-path checks of each benchmark workload.

Inputs are drawn here, not through ``bfock.moments.random_problem``, so a later
change to that helper cannot silently change a workload.  ``draw_problem``
mirrors its draw order, so seed 1 gives the same first instance as
``random_problem(Random(1), n, space)``.  The program only ever receives the
built ``MomentProblem``/``SpaceSpec``/``QtSpec`` objects.

The gated ``wick-n8`` workload must cost the same at every seed: redrawn
instances differ in cost by up to a third from seed to seed, which would hide
a change's effect in seed noise.  So it always runs the seed-1 instances, each
moved by an orthogonal map that commutes with J (a sign change of
coordinates); the seed picks the map.  The moment is invariant under such a
map, so the output must match the committed digest at every seed, and every
intermediate value is the unmoved one up to sign, so the work is the same.

Every check computes one quantity two independent ways and returns
``(equal, lhs, rhs)``: whether the two results are bit-identical as values,
and their canonical text forms.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

# the checks look functions up on their modules at call time, so the traced
# run's wrappers (spans.install) see the benchmark's own calls too
from bfock import cli, fock, moments, orthopoly, qt
from bfock.fock import FockVector, SpaceSpec
from bfock.moments import MomentProblem
from bfock.qt import QtSpec
from gate import DIGEST_SEED

# A non-diagonal reflection (J = J^T, J^2 = I): keeps a fast path that is only
# right for diagonal involutions from passing unnoticed.
REFLECTION = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(-3, 5)))

# Orthogonal maps O with O J = J O that only change signs: the moment of the
# moved instance (O x, O T O^T, lambda) equals the unmoved one.
DIAGONAL_SYMMETRIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
REFLECTION_SYMMETRIES = ((1, 1), (-1, -1))

VERIFY_ARGV = ("verify", "--suite", "all")
ORTHOPOLY_ORDER = 12


@dataclass(frozen=True)
class Check:
    id: str
    run: Callable[[], tuple[bool, str, str]]
    # output is the same at every seed, so its committed digest always applies
    fixed: bool = False


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def draw_problem(
    rng: random.Random, n: int, space: SpaceSpec, zero_lams: bool = False
) -> MomentProblem:
    """Small rationals (|num| <= 5, den <= 5) in the draw order of random_problem."""
    d = space.d
    xs = [tuple(_rational(rng) for _ in range(d)) for _ in range(n)]
    ts = []
    for _ in range(n):
        upper = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                upper[i][j] = _rational(rng)
                upper[j][i] = upper[i][j]
        ts.append(tuple(tuple(row) for row in upper))
    lams = [Fraction(0) if zero_lams else _rational(rng) for _ in range(n)]
    return MomentProblem.build(xs, ts, lams, space)


def moved(prob: MomentProblem, signs: tuple[int, ...]) -> MomentProblem:
    """The instance under the diagonal orthogonal map O = diag(signs)."""
    xs = [[s * v for s, v in zip(signs, x)] for x in prob.xs]
    ts = [[[si * sj * v for sj, v in zip(signs, row)] for si, row in zip(signs, t)] for t in prob.ts]
    return MomentProblem.build(xs, ts, prob.lams, prob.space)


def wick_symmetries(seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(diagonal, reflection) sign maps of a seed; seed 1 leaves both unmoved."""
    k = (seed - DIGEST_SEED) % (len(DIAGONAL_SYMMETRIES) * len(REFLECTION_SYMMETRIES))
    return DIAGONAL_SYMMETRIES[k % len(DIAGONAL_SYMMETRIES)], REFLECTION_SYMMETRIES[k // len(DIAGONAL_SYMMETRIES)]


def vector_text(v: FockVector) -> str:
    """Sorted (word, coefficient) pairs of a Fock vector; "0" when it is zero."""
    if v.is_zero:
        return "0"
    return "; ".join(f"{word}:{coeff}" for word, coeff in sorted(v.coeffs.items()))


def _moment_check(prob: MomentProblem) -> Callable[[], tuple[bool, str, str]]:
    def run() -> tuple[bool, str, str]:
        lhs = fock.vacuum_expectation(prob.operators(), prob.space)
        rhs = moments.wick_moment(prob)
        return lhs == rhs, str(lhs), str(rhs)

    return run


def _vector_check(eps: tuple[str, ...], prob: MomentProblem) -> Callable[[], tuple[bool, str, str]]:
    def run() -> tuple[bool, str, str]:
        lhs = moments.eps_word_vector(eps, prob)
        rhs = moments.vector_formula(eps, prob)
        return lhs == rhs, vector_text(lhs), vector_text(rhs)

    return run


def _qt_check(prob: MomentProblem, spec: QtSpec) -> Callable[[], tuple[bool, str, str]]:
    def run() -> tuple[bool, str, str]:
        lhs = qt.qt_y_moment(prob.xs, prob.ts, spec)
        rhs = qt.qt_wick(prob.xs, prob.ts, spec)
        return lhs == rhs, str(lhs), str(rhs)

    return run


def _orthopoly_check(model: str, sign: str) -> Callable[[], tuple[bool, str, str]]:
    def run() -> tuple[bool, str, str]:
        if model == "qt":
            jp = orthopoly.qt_poisson()
        else:
            jp = orthopoly.alphaq_poisson_b(negate_alpha=sign == "-")
        lhs = orthopoly.operator_moments(model, ORTHOPOLY_ORDER, sign)
        rhs = orthopoly.moments_from_jacobi(jp, ORTHOPOLY_ORDER)
        return lhs == rhs, " | ".join(map(str, lhs)), " | ".join(map(str, rhs))

    return run


def run_verify(timings: bool) -> tuple[int, str]:
    """`bfock verify --suite all` with its defaults; returns (exit code, stdout)."""
    buffer = io.StringIO()
    argv = list(VERIFY_ARGV) + (["--timings"] if timings else [])
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def without_timings(stdout: str) -> str:
    """The verify report as the default run prints it (elapsed_ms all 0)."""
    payload = json.loads(stdout)
    for check in payload["checks"]:
        check["elapsed_ms"] = 0
    return json.dumps(payload, indent=2) + "\n"


class VerifyRun:
    """`bfock verify --suite all`; keeps the last raw report for its --timings."""

    def __init__(self, timings: bool):
        self.timings = timings
        self.stdout = ""

    def __call__(self) -> tuple[bool, str, str]:
        code, self.stdout = run_verify(self.timings)
        # the suite compares its own two paths; exit 0 means every check agreed
        text = without_timings(self.stdout) if self.timings else self.stdout
        return code == cli.EXIT_OK, text, text


def build(workload: str, seed: int, timings: bool = False) -> list[Check]:
    """The checks of one workload, in the order they run.

    ``timings`` asks ``verify`` for real elapsed times (traced runs only).
    """
    rng = random.Random(seed)
    if workload == "wick-n8":
        base = random.Random(DIGEST_SEED)
        diagonal = draw_problem(base, 8, SpaceSpec.diagonal("+-", truncation=8))
        reflection = draw_problem(base, 7, SpaceSpec(2, REFLECTION, truncation=7))
        diagonal_signs, reflection_signs = wick_symmetries(seed)
        return [
            Check("moment-n8-diagonal", _moment_check(moved(diagonal, diagonal_signs)), fixed=True),
            Check("moment-n7-reflection", _moment_check(moved(reflection, reflection_signs)), fixed=True),
        ]
    if workload == "vector-n6":
        problems = {
            "diagonal": draw_problem(rng, 6, SpaceSpec.diagonal("+-", truncation=6)),
            "reflection": draw_problem(rng, 6, SpaceSpec(2, REFLECTION, truncation=6)),
        }
        return [
            Check(f"vector-{tag}-{''.join(eps)}", _vector_check(eps, prob))
            for tag, prob in problems.items()
            for eps in product("*1'", repeat=6)
        ]
    if workload == "verify-all":
        return [Check("verify-all", VerifyRun(timings))]
    if workload == "qt-orthopoly":
        spec = QtSpec.make(2, truncation=8)
        first = draw_problem(rng, 8, spec.space, zero_lams=True)
        second = draw_problem(rng, 8, spec.space, zero_lams=True)
        return [
            Check("qt-n8-first", _qt_check(first, spec)),
            Check("qt-n8-second", _qt_check(second, spec)),
            Check("orthopoly-alphaq-plus", _orthopoly_check("alphaq", "+"), fixed=True),
            Check("orthopoly-alphaq-minus", _orthopoly_check("alphaq", "-"), fixed=True),
            Check("orthopoly-qt", _orthopoly_check("qt", "+"), fixed=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")
