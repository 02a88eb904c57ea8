"""Acceptance suite: one test per criterion, exact unless stated otherwise.

Every equality below is bit-exact (polynomial or rational identity, zero
tolerance), and the spectral bounds are certified exactly, with zero slack,
at rational parameters.  Run with ``pytest -s`` to see one pass/fail line
per criterion.
"""

import random
from fractions import Fraction
from itertools import product

from bfock.coxeter import enumerate_group, reduced_words, word_to_permutation
from bfock.fock import SpaceSpec, r_operator, symmetrizer, vacuum_expectation
from bfock.moments import (
    MomentProblem,
    corollary_cases,
    random_problem,
    verify_moment_identity,
    verify_vector_identity,
    wick_moment,
)
from bfock.orthopoly import (
    family,
    moments_from_jacobi,
    operator_moments,
    substitution_check,
    vacuum_polynomial_identity,
)
from bfock.partitions import (
    ColoredPartition,
    ExtendedPartition,
    enumerate_colored,
    set_partitions,
    statistics,
)
from bfock.qt import QtSpec, qt_wick, qt_y_moment
from bfock.scalars import (
    ALPHA,
    ONE,
    Q,
    T,
    Poly,
    identity_matrix,
    is_semidefinite,
    mat_eq,
    mat_kron,
    mat_mul,
    mat_to_int,
    norm_at_most,
    qint,
)

F = Fraction
SEED = 7
INSTANCES = 20


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_main_wick_identity():
    rng = random.Random(SEED)
    failures = []
    for n in range(1, 5):
        space = SpaceSpec.diagonal("+-", truncation=n)
        for _ in range(INSTANCES):
            prob = random_problem(rng, n, space)
            report = verify_moment_identity(prob)
            if not report.equal:
                failures.append(f"n={n}: {report.first_difference}")
    point = (F(-2, 5), F(3, 10))
    space5 = SpaceSpec.diagonal("+-", truncation=5)
    for _ in range(INSTANCES):
        prob = random_problem(rng, 5, space5)
        lhs = vacuum_expectation(prob.operators(), prob.space).evaluate(*point)
        rhs = wick_moment(prob).evaluate(*point)
        if lhs != rhs:
            failures.append(f"n=5 at {point}: {lhs} != {rhs}")
    _report(
        1,
        not failures,
        failures[0] if failures else
        f"operator = partition sum, n<=4 symbolic + n=5 rational, {INSTANCES} instances each",
    )


def test_criterion_2_vector_level_theorem():
    rng = random.Random(SEED)
    failures = []
    for n in range(1, 5):
        space = SpaceSpec.diagonal("+-", truncation=n)
        prob = random_problem(rng, n, space)
        for eps in product("*1'", repeat=n):
            report = verify_vector_identity(eps, prob)
            if not report.equal:
                failures.append(f"eps={''.join(eps)}: {report.first_difference}")
    _report(
        2,
        not failures,
        failures[0] if failures else "all 3^n symbol words agree for n <= 4, symbolic, d=2",
    )


def test_criterion_3_corollary_specializations():
    rng = random.Random(SEED)
    failures = []
    for n in range(1, 6):
        space = SpaceSpec.diagonal("++", truncation=max(n, 1))
        prob = random_problem(rng, n, space, zero_lams=True)
        full = wick_moment(prob)
        if full.subs(alpha=0) != corollary_cases("q-case", prob):
            failures.append(f"q-case n={n}")
        if full.subs(q=0) != corollary_cases("free-alpha", prob):
            failures.append(f"free-alpha n={n}")
        zero_t = tuple(
            tuple(tuple(F(0) for _ in range(2)) for _ in range(2)) for _ in range(n)
        )
        gaussian = MomentProblem(xs=prob.xs, ts=zero_t, lams=prob.lams, space=space)
        if wick_moment(gaussian) != corollary_cases("gaussian", gaussian):
            failures.append(f"gaussian n={n}")
    _report(
        3,
        not failures,
        failures[0] if failures else "three corollary evaluators match wick_moment, n <= 5",
    )


def test_criterion_4_paper_partition_fixture():
    blocks = ((2,), (1, 4, 6, 7), (3, 5, 10), (9, 11), (8, 12))
    colors = ((), (-1, 1, -1), (1, -1), (1,), (-1,))
    base = ColoredPartition(n=12, blocks=blocks, colors=colors)
    cases = [
        (frozenset({2}), (3, 3)),   # {3,5,10} marked
        (frozenset(), (1, 3)),      # nothing marked
        (frozenset({1}), (2, 4)),   # {1,4,6,7} marked
    ]
    failures = []
    for marked, (max_c, max_l) in cases:
        stats = statistics(ExtendedPartition(base=base, marked=marked))
        if (stats.rc, stats.rnarc, stats.narc) != (5, 1, 4):
            failures.append(f"marked={sorted(marked)}: rc/rnarc/narc")
        if (stats.max_c, stats.max_l) != (max_c, max_l):
            failures.append(f"marked={sorted(marked)}: maxc/maxl")
    _report(
        4,
        not failures,
        failures[0] if failures else "12-point fixture: rc=5, rnarc=1, narc=4, (maxc,maxl) per marking",
    )


def test_criterion_5_qt_fixture_and_identity():
    unit = (F(1),)
    identity = ((F(1),),)
    spec1 = QtSpec.make(1, truncation=5)
    fixture = qt_y_moment([unit] * 5, [identity] * 5, spec1).subs(q=0)
    failures = []
    if fixture != T**2 + 2 * T + 3:
        failures.append(f"Y^5 fixture gave {fixture}")
    if qt_wick([unit] * 5, [identity] * 5, spec1).subs(q=0) != T**2 + 2 * T + 3:
        failures.append("qt_wick fixture")
    rng = random.Random(SEED)
    spec2 = QtSpec.make(2, truncation=5)
    for n in range(1, 6):
        prob = random_problem(rng, n, spec2.space, zero_lams=True)
        if qt_y_moment(prob.xs, prob.ts, spec2) != qt_wick(prob.xs, prob.ts, spec2):
            failures.append(f"qt identity n={n}")
    _report(
        5,
        not failures,
        failures[0] if failures else "Y^5 fixture t^2+2t+3; qt operator = qt partition sum, n <= 5",
    )


def test_criterion_6_factorization_and_bounds():
    failures = []
    for signature in ("+", "+-"):
        space = SpaceSpec.diagonal(signature, truncation=4)
        for n in range(1, 5):
            lhs = symmetrizer(n, space)
            rhs = mat_mul(
                mat_kron(symmetrizer(n - 1, space), identity_matrix(space.d)),
                r_operator(n, space),
            )
            if not mat_eq(lhs, rhs):
                failures.append(f"factorization n={n} sig={signature}")
    space = SpaceSpec.diagonal("+-", truncation=5)
    points = [(F(a, 5), F(q, 10)) for a in (2, -2) for q in (3, -3)]
    for n in range(1, 6):
        r = r_operator(n, space)
        gram = symmetrizer(n, space) if n <= 4 else None
        for alpha, q in points:
            bound = (1 + abs(alpha) * abs(q) ** (n - 1)) * qint(n).evaluate(0, abs(q))
            if not norm_at_most(r, bound, alpha, q):
                failures.append(f"norm n={n} at ({alpha},{q})")
            if gram is not None and not is_semidefinite(mat_to_int(gram, alpha, q)[0], definite=True):
                failures.append(f"positivity n={n} at ({alpha},{q})")
    _report(
        6,
        not failures,
        failures[0] if failures else
        "P=(P⊗I)R exactly n<=4; R norms within lemma bound (exact, zero slack) n<=5; "
        "Gram positive definite (exact) n<=4",
    )


def test_criterion_7_orthogonal_polynomial_identities():
    failures = []
    for sign in ("+", "-"):
        report = vacuum_polynomial_identity("alphaq", 5, sign=sign)
        if not report.equal:
            failures.append(report.first_difference)
    for which, model in (("alphaq-poisson-B", "alphaq"), ("qt-poisson", "qt")):
        if moments_from_jacobi(family(which), 6) != operator_moments(model, 6):
            failures.append(f"moments {which}")
    sub = substitution_check(10)
    if not sub.equal:
        failures.append(sub.first_difference)
    _report(
        7,
        not failures,
        failures[0] if failures else
        "P_n(B)Ω = x^n (both signs) n<=5; Jacobi = operator moments n<=6; substitution n<=10",
    )


def test_criterion_8_group_and_partition_counts():
    failures = []
    for n in range(1, 6):
        expected = 2**n
        for k in range(2, n + 1):
            expected *= k
        if len(enumerate_group(n)) != expected:
            failures.append(f"|group({n})|")
    for n in range(1, 4):
        for record in enumerate_group(n):
            for word in reduced_words(record.perm):
                if (word.count(0), len(word) - word.count(0)) != (record.l1, record.l2):
                    failures.append(f"(l1,l2) not word-invariant at n={n}")
                if word_to_permutation(word, n) != record.perm:
                    failures.append(f"bad reduced word at n={n}")
    for n in range(1, 5):
        lhs = Poly()
        for record in enumerate_group(n):
            lhs = lhs + Poly.monomial(1, ea=record.l1, eq=record.l2)
        rhs = ONE
        for k in range(1, n + 1):
            rhs = rhs * (ONE + ALPHA * Q ** (k - 1)) * qint(k)
        if lhs != rhs:
            failures.append(f"stat product identity n={n}")
    for n in range(1, 8):
        expected = sum(2 ** (n - len(blocks)) for blocks in set_partitions(n))
        if sum(1 for _ in enumerate_colored(n)) != expected:
            failures.append(f"|colored({n})|")
    _report(
        8,
        not failures,
        failures[0] if failures else
        "group orders n<=5; word-invariant stats n<=3; stat product n<=4; colored counts n<=7",
    )
