"""Command-line front end.

Subcommands: group, partitions, fock, moment, qt, orthopoly, verify.

Exactness crosses the CLI boundary as strings: rationals as ``p/q`` and
polynomials in canonical text form; floats appear only under ``--mode float``.
``_render`` is the one place that turns a ``Poly`` into output text for the
chosen mode, and ``moment`` and ``qt`` share one ``--check`` tail
(``_emit_sides``): the partition side, then under ``--check`` the operator
side and whether the two are equal, with exit 1 when they are not.

Every command is deterministic byte-for-byte for a fixed (config, seed); the
verify report therefore emits ``elapsed_ms: 0`` unless ``--timings`` is
requested.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage errors (argparse, out-of-range values, and options the command would
not read), 3 resource-guard violations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from math import factorial
from typing import Callable, Iterator, Sequence

from . import orthopoly
from .coxeter import enumerate_group
from .errors import ResourceLimitError, TruncationError
from .fock import SpaceSpec, r_operator, symmetrizer, vacuum_expectation
from .moments import (
    MAX_VECTOR_N,
    MomentProblem,
    VerifyReport,
    compare,
    corollary_free_alpha,
    corollary_gaussian,
    corollary_q_case,
    random_problem,
    verify_moment_identity,
    verify_vector_identities,
    wick_moment,
)
from .partitions import enumerate_colored, enumerate_extended, statistics
from .qt import QtSpec, qt_wick, qt_y_moment
from .scalars import (
    T, Matrix, Poly, frac_identity, frac_matrix, identity_matrix, is_semidefinite, mat_kron,
    mat_mul, mat_to_int, norm_at_most, qint,
)

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RESOURCE = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be nonnegative, got {value}")
    return value


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render(args: argparse.Namespace) -> Callable[[Poly], str]:
    """How --mode shows a Poly: its canonical text, its exact value at the given
    (--alpha, --q, --t), or the repr of its float value there."""
    point = [getattr(args, name, None) or Fraction(0) for name in ("alpha", "q", "t")]
    if args.mode == "rational":
        return lambda value: str(value.evaluate(*point))
    if args.mode == "float":
        floats = [float(x) for x in point]
        return lambda value: repr(value.eval_float(*floats))
    return str


def _reject_given(args: argparse.Namespace, names: Sequence[str], reason: str) -> None:
    """Exit 2 on the first of these options that was given, since nothing reads it."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} {reason}")


def _require_type_b_range(args: argparse.Namespace) -> None:
    """--alpha and --q (default 0) are read only in a numeric mode, with |alpha|, |q| < 1."""
    if args.mode == "symbolic":
        _reject_given(args, ("alpha", "q"), "is not read in --mode symbolic")
    elif not (abs(args.alpha or 0) < 1 and abs(args.q or 0) < 1):
        raise ValueError("type-B numeric modes require |alpha| < 1 and |q| < 1")


def _emit_sides(
    args: argparse.Namespace, payload: dict, key: str, partition_side: Poly,
    operator_side: Callable[[], Poly], render: Callable[[Poly], str] = str,
) -> int:
    """Emit payload with the partition side under key; under --check also the
    operator side and whether the two are equal, exiting 1 when they are not."""
    payload[key] = render(partition_side)
    if args.check:
        other = operator_side()
        payload["operator_side"] = render(other)
        payload["equal"] = other == partition_side
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if payload.get("equal", True) else EXIT_CHECK_FAILED


# -- subcommands ----------------------------------------------------------------


def cmd_group(args: argparse.Namespace) -> int:
    records = enumerate_group(args.n)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["window", "l1", "l2", "word"])
    for record in records:
        writer.writerow(
            [
                " ".join(str(v) for v in record.window),
                record.l1,
                record.l2,
                " ".join(str(g) for g in record.word),
            ]
        )
    _emit(args, buffer.getvalue())
    return EXIT_OK


def _format_blocks(blocks) -> str:
    return "|".join(" ".join(str(x) for x in block) for block in blocks)


def _format_colors(colors) -> str:
    return "|".join("".join("+" if c == 1 else "-" for c in cs) for cs in colors)


def cmd_partitions(args: argparse.Namespace) -> int:
    if args.extended and args.filter != "all":
        raise ValueError(f"--filter {args.filter} does not apply to --extended")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "blocks", "colors", "marked",
            "rc", "nest", "rnarc", "narc", "rarc",
            "maxc", "maxl", "mleft", "outarc",
        ]
    )
    partitions = enumerate_extended(args.n) if args.extended else enumerate_colored(args.n, args.filter)
    for p in partitions:
        stats = statistics(p)
        writer.writerow(
            [
                _format_blocks(p.blocks),
                _format_colors(p.colors),
                " ".join(str(b) for b in sorted(p.marked)),
                stats.rc, stats.nest, stats.rnarc, stats.narc, stats.nest,  # rarc is nest
                stats.max_c, stats.max_l, stats.m_left,
                "" if stats.out_arc is None else stats.out_arc,
            ]
        )
    _emit(args, buffer.getvalue())
    return EXIT_OK


def cmd_fock(args: argparse.Namespace) -> int:
    _require_type_b_range(args)
    render = _render(args)
    space = SpaceSpec.diagonal(args.signature, truncation=max(args.n, 1))
    payload = {
        "version": REPORT_VERSION,
        "n": args.n,
        "d": space.d,
        "signature": args.signature,
        "mode": args.mode,
        "symmetrizer": [[render(x) for x in row] for row in symmetrizer(args.n, space)],
    }
    if args.n >= 1:
        payload["r_operator"] = [[render(x) for x in row] for row in r_operator(args.n, space)]
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _moment_problem(args: argparse.Namespace) -> MomentProblem:
    """The seeded (on --signature, default +-) or unit instance, with the given
    λ values zero-padded to n."""
    n = args.n
    if len(args.lambdas) > n:
        raise ValueError(f"{len(args.lambdas)} --lambda values for n = {n}")
    lams = list(args.lambdas) + [Fraction(0)] * (n - len(args.lambdas))
    if args.seed is not None:
        signature = "+-" if args.signature is None else args.signature
        space = SpaceSpec.diagonal(signature, truncation=max(n, 1))
        # random_problem draws λ last, so its xs and ts do not depend on zero_lams
        prob = random_problem(random.Random(args.seed), n, space, zero_lams=True)
        return MomentProblem.build(prob.xs, prob.ts, lams, space)
    _reject_given(args, ("signature",), "applies only to a seeded instance (--seed)")
    space = SpaceSpec.diagonal("+", truncation=max(n, 1))
    return MomentProblem.build(
        xs=[(Fraction(1),)] * n,
        ts=[((Fraction(1),),)] * n,
        lams=lams,
        space=space,
    )


def cmd_moment(args: argparse.Namespace) -> int:
    _require_type_b_range(args)
    prob = _moment_problem(args)
    payload = {"version": REPORT_VERSION, "n": args.n, "mode": args.mode}
    return _emit_sides(
        args, payload, "partition_side", wick_moment(prob),
        lambda: vacuum_expectation(prob.operators(), prob.space), _render(args),
    )


def _require_qt_range(t: Fraction, q: Fraction | None) -> None:
    """Substituted values must satisfy 0 < t < 1, and |q| < t when q is given too."""
    if not 0 < t < 1:
        raise ValueError("(q,t) substitution requires 0 < t < 1")
    if q is not None and not abs(q) < t:
        raise ValueError("(q,t) substitution requires |q| < t")


def cmd_qt(args: argparse.Namespace) -> int:
    if args.t_symbolic:
        _reject_given(args, ("t",), "is not read with --t-symbolic")
        if args.q is not None and not abs(args.q) < 1:
            raise ValueError("(q,t) substitution with a symbolic t requires |q| < 1")
        t = None
    else:
        t = Fraction(1, 2) if args.t is None else args.t
        _require_qt_range(t, args.q)
    spec = QtSpec.make(1, truncation=max(args.n, 1))
    xs = [(Fraction(1),)] * args.n
    ts = [frac_identity(1) if args.T == "identity" else ((Fraction(0),),)] * args.n

    def settle(poly: Poly) -> Poly:
        """Substitute --q when given and t unless --t-symbolic; the two sides are
        compared after this."""
        return poly.subs(q=args.q, t=t)

    payload = {"version": REPORT_VERSION, "n": args.n, "T": args.T}
    return _emit_sides(
        args, payload, "wick", settle(qt_wick(xs, ts, spec)),
        lambda: settle(qt_y_moment(xs, ts, spec)),
    )


# the parameters each family reads in --mode rational; the symbolic mode reads none
_ORTHOPOLY_READS = {
    "alphaq-poisson-B": ("alpha", "q"), "qt-poisson": ("q", "t"), "alsalam-ismail": ("t",),
}


def cmd_orthopoly(args: argparse.Namespace) -> int:
    reads = _ORTHOPOLY_READS[args.family] if args.mode == "rational" else ()
    unread = [name for name in ("alpha", "q", "t") if name not in reads]
    _reject_given(args, unread, f"is not read by {args.family} in --mode {args.mode}")
    if args.family == "alphaq-poisson-B":
        _require_type_b_range(args)
    elif args.mode == "rational":
        _require_qt_range(args.t or Fraction(0), args.q)
    render = _render(args)
    jp = orthopoly.family(args.family)
    table = orthopoly.polys(jp, args.N)
    moments = orthopoly.moments_from_jacobi(jp, args.N)
    payload = {
        "version": REPORT_VERSION,
        "family": args.family,
        "N": args.N,
        "beta": [render(jp.beta(k)) for k in range(args.N + 1)],
        "gamma": [render(jp.gamma(k)) for k in range(args.N + 1)],
        "polynomials": [[render(c) for c in row] for row in table],
        "moments": [render(m) for m in moments],
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# -- verify suite -----------------------------------------------------------------

Check = tuple[str, Callable[[], Iterator[VerifyReport]]]


def _wick_checks(n_max: int, seed: int) -> list[Check]:
    def run(n: int) -> Iterator[VerifyReport]:
        space = SpaceSpec.diagonal("+-", truncation=n)
        yield verify_moment_identity(random_problem(random.Random(seed + n), n, space))

    return [(f"wick-n{n}", partial(run, n)) for n in range(1, n_max + 1)]


def _vector_checks(n_max: int, seed: int) -> list[Check]:
    def run(n: int) -> Iterator[VerifyReport]:
        space = SpaceSpec.diagonal("+-", truncation=n)
        yield from verify_vector_identities(random_problem(random.Random(seed + 100 + n), n, space))

    return [(f"vector-n{n}", partial(run, n)) for n in range(1, n_max + 1)]


def _corollary_checks(n_max: int, seed: int) -> list[Check]:
    def run() -> Iterator[VerifyReport]:
        for n in range(1, n_max + 1):
            space = SpaceSpec.diagonal("++", truncation=n)
            prob = random_problem(random.Random(seed + 200 + n), n, space, zero_lams=True)
            full = wick_moment(prob)
            yield compare(f"q-case n={n}", full.subs(alpha=0), corollary_q_case(prob))
            yield compare(f"free-alpha n={n}", full.subs(q=0), corollary_free_alpha(prob))
            gaussian = replace(prob, ts=(frac_matrix([[0, 0], [0, 0]]),) * n)
            yield compare(f"gaussian n={n}", wick_moment(gaussian), corollary_gaussian(gaussian))

    return [("corollaries", run)]


def _qt_checks(n_max: int, seed: int) -> list[Check]:
    def run() -> Iterator[VerifyReport]:
        spec = QtSpec.make(2, truncation=n_max)
        for n in range(1, n_max + 1):
            prob = random_problem(random.Random(seed + 300 + n), n, spec.space, zero_lams=True)
            lhs, rhs = qt_y_moment(prob.xs, prob.ts, spec), qt_wick(prob.xs, prob.ts, spec)
            yield compare(f"qt n={n}", lhs, rhs)

    def fixture() -> Iterator[VerifyReport]:
        spec = QtSpec.make(1, truncation=5)
        unit = (Fraction(1),)
        value = qt_wick([unit] * 5, [frac_identity(1)] * 5, spec).subs(q=0)
        yield compare("qt-y5 at q=0", value, T**2 + 2 * T + 3)

    return [("qt-identity", run), ("qt-y5-fixture", fixture)]


def _factorization_checks() -> list[Check]:
    @cache
    def pair(signature: str, n: int) -> tuple[Matrix, Matrix]:
        """P(n) and R(n), built by whichever check reaches them first: both checks
        use truncation 4, and a level-n matrix does not depend on it anyway."""
        space = SpaceSpec.diagonal(signature, truncation=4)
        return symmetrizer(n, space), r_operator(n, space)

    def run() -> Iterator[VerifyReport]:
        for signature in ("+", "+-"):
            space = SpaceSpec.diagonal(signature, truncation=4)
            previous = symmetrizer(0, space)
            for n in range(1, 5):
                lhs, r = pair(signature, n)
                rhs = mat_mul(mat_kron(previous, identity_matrix(space.d)), r)
                yield compare(f"P({n}) factorization {signature}", lhs, rhs)
                previous = lhs

    def bounds() -> Iterator[VerifyReport]:
        """||R(n)|| <= (1 + |a| |q|^(n-1)) [n]_|q| and P(n) > 0, certified exactly."""
        points = [(Fraction(a, 5), Fraction(q, 10)) for a in (2, -2) for q in (3, -3)]
        for n in range(1, 5):
            gram, r = pair("+-", n)
            for alpha, q in points:
                bound = (1 + abs(alpha) * abs(q) ** (n - 1)) * qint(n).evaluate(0, abs(q))
                at = f"n={n} at ({alpha},{q})"
                yield compare(f"norm bound {at}", norm_at_most(r, bound, alpha, q), True)
                positive = is_semidefinite(mat_to_int(gram, alpha, q)[0], definite=True)
                yield compare(f"gram positivity {at}", positive, True)

    return [("factorization", run), ("spectral-bounds", bounds)]


def _orthopoly_checks() -> list[Check]:
    def identities() -> Iterator[VerifyReport]:
        for which, sign in (("alphaq", "+"), ("alphaq", "-"), ("qt", "+")):
            yield orthopoly.vacuum_polynomial_identity(which, 5, sign=sign)
        for which, model in (("alphaq-poisson-B", "alphaq"), ("qt-poisson", "qt")):
            jacobi = orthopoly.moments_from_jacobi(orthopoly.family(which), 6)
            operator = orthopoly.operator_moments(model, 6)
            for k, (lhs, rhs) in enumerate(zip(jacobi, operator)):
                yield compare(f"{which} m_{k}", lhs, rhs)

    def substitution() -> Iterator[VerifyReport]:
        yield orthopoly.substitution_check(10)

    return [("orthopoly-identities", identities), ("orthopoly-substitution", substitution)]


def _colored_count(n: int) -> int:
    """The number of colored partitions of [n], sum_k S(n, k) 2^(n - k): a k-block
    partition has n - k arcs of two colors each.  The Stirling numbers of the second
    kind come from S(m, k) = k S(m-1, k) + S(m-1, k-1), with no partition walk."""
    row = [1]  # S(m, k) for k = 0..m
    for _ in range(n):
        row = [k * s + below for k, (s, below) in enumerate(zip(row + [0], [0] + row))]
    return sum(s * 2 ** (n - k) for k, s in enumerate(row))


def _group_checks() -> list[Check]:
    def run() -> Iterator[VerifyReport]:
        for n in range(1, 6):
            yield compare(f"|group({n})|", len(enumerate_group(n)), 2**n * factorial(n))
        for n in range(1, 8):
            count = sum(1 for _ in enumerate_colored(n))
            yield compare(f"colored count n={n}", count, _colored_count(n))

    return [("group-partition-counts", run)]


SUITES: dict[str, Callable[[int, int], list[Check]]] = {
    "wick": lambda n, seed: _wick_checks(min(n, 4), seed),
    "vector": lambda n, seed: _vector_checks(min(n, MAX_VECTOR_N), seed),
    "corollaries": lambda n, seed: _corollary_checks(min(n, 5), seed),
    "qt": lambda n, seed: _qt_checks(min(n, 5), seed),
    "factorization": lambda n, seed: _factorization_checks(),
    "orthopoly": lambda n, seed: _orthopoly_checks(),
    "group": lambda n, seed: _group_checks(),
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"verify needs --n >= 1, got {args.n}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    checks = [check for name in names for check in SUITES[name](args.n, args.seed)]
    results = []
    for name, run in sorted(checks, key=lambda item: item[0]):
        started = time.perf_counter()
        failure = next((report for report in run() if not report.equal), None)
        elapsed = int((time.perf_counter() - started) * 1000)
        results.append(
            {
                "name": name,
                "status": "pass" if failure is None else "fail",
                "lhs": "" if failure is None else f"{failure.name}: {failure.lhs}",
                "rhs": "" if failure is None else failure.rhs,
                "elapsed_ms": elapsed if args.timings else 0,
            }
        )
    _emit(args, json.dumps({"version": REPORT_VERSION, "checks": results}, indent=2) + "\n")
    return EXIT_OK if all(row["status"] == "pass" for row in results) else EXIT_CHECK_FAILED


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfock",
        description="Exact type-B deformed Fock spaces and their Wick formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("group", help="enumerate the signed-permutation group")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("partitions", help="enumerate colored/extended partitions")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument(
        "--filter", choices=["all", "no-singletons", "pairs-only"], default="all"
    )
    p.add_argument("--extended", action="store_true")
    common(p)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("fock", help="emit symmetrizer and recursion-factor matrices")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--signature", default="+")
    p.add_argument("--alpha", type=_fraction, default=None, help="numeric modes only, default 0")
    p.add_argument("--q", type=_fraction, default=None, help="numeric modes only, default 0")
    p.add_argument("--mode", choices=["symbolic", "rational", "float"], default="symbolic")
    common(p)
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("moment", help="moment of a type-B operator product")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--alpha", type=_fraction, default=None, help="--mode rational only, default 0")
    p.add_argument("--q", type=_fraction, default=None, help="--mode rational only, default 0")
    p.add_argument(
        "--lambda",
        dest="lambdas",
        type=_fraction,
        action="append",
        default=[],
        help="shift constants, repeatable (lambda_1 first), at most n, zero-padded; also with --seed",
    )
    p.add_argument("--mode", choices=["symbolic", "rational"], default="symbolic")
    p.add_argument("--check", action="store_true", help="also compute the operator side")
    p.add_argument("--seed", type=int, default=None, help="random instance instead of the unit one")
    p.add_argument("--signature", default=None, help="signature of a seeded instance, default +-")
    common(p)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("qt", help="(q,t)-model moments")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--q", type=_fraction, default=None)
    p.add_argument("--t", type=_fraction, default=None, help="default 1/2; not with --t-symbolic")
    p.add_argument("--t-symbolic", dest="t_symbolic", action="store_true")
    p.add_argument("--T", choices=["identity", "zero"], default="identity")
    p.add_argument("--check", action="store_true")
    common(p)
    p.set_defaults(func=cmd_qt)

    p = sub.add_parser("orthopoly", help="polynomial tables and moment sequences")
    p.add_argument("--family", choices=list(_ORTHOPOLY_READS), required=True)
    p.add_argument("--N", type=_nonnegative_int, required=True)
    needs = {"alpha": "default 0", "q": "default 0", "t": "required there, with 0 < t < 1"}
    for name, need in needs.items():
        readers = ", ".join(family for family, names in _ORTHOPOLY_READS.items() if name in names)
        p.add_argument(f"--{name}", type=_fraction, default=None,
                       help=f"--mode rational only, read by {readers}; {need}")
    p.add_argument("--mode", choices=["symbolic", "rational"], default="symbolic")
    common(p)
    p.set_defaults(func=cmd_orthopoly)

    p = sub.add_parser("verify", help="run the acceptance-style check suites")
    p.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--n", type=_nonnegative_int, default=4, help="size cap inside the suites, >= 1")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--timings", action="store_true", help="emit real elapsed_ms (non-deterministic)")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (TruncationError, ValueError) as exc:
        parser.error(str(exc))  # raises SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
