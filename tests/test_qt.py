"""(q,t) model: symmetrizer, operators, Wick formula, specializations."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfock.errors import TruncationError
from bfock.fock import (
    FockVector,
    SpaceSpec,
    annihilate,
    apply_operator,
    basis_words,
    gauge,
    inner,
    symmetrizer,
    vacuum_expectation,
)
from bfock.moments import MomentProblem, closed_chain_value, random_problem, wick_moment
from bfock.partitions import arc_covers, set_partitions
from bfock.qt import (
    QtSpec,
    qt_annihilate,
    qt_apply,
    qt_create,
    qt_gauge,
    qt_wick,
    qt_y,
    qt_y_moment,
)
from bfock.scalars import ONE, Q, T, Poly, frac_identity, frac_matrix

F = Fraction

SPEC1 = QtSpec.make(1, truncation=6)
SPEC2 = QtSpec.make(2, truncation=6)

UNIT = (F(1),)
ID1 = ((F(1),),)


def test_qt_flavor_symmetrizer_small():
    assert symmetrizer(1, SPEC2.space, "qt") == [[ONE, Poly()], [Poly(), ONE]]
    assert symmetrizer(2, SPEC1.space, "qt") == [[T + Q]]


def test_qt_flavor_symmetrizer_t1_recovers_type_b_alpha0():
    for n in (1, 2, 3):
        lhs = symmetrizer(n, SPEC2.space, "qt")
        rhs = symmetrizer(n, SPEC2.space)
        for row_l, row_r in zip(lhs, rhs):
            for a, b in zip(row_l, row_r):
                assert a.subs(t=1) == b.subs(alpha=0)


def test_qt_operators_kill_vacuum():
    omega = FockVector.vacuum(SPEC2.space)
    assert qt_apply(qt_annihilate((F(1), F(0))), omega).is_zero
    assert qt_apply(qt_gauge(frac_identity(2)), omega).is_zero


def test_qt_annihilator_weights():
    # a(x) on x1⊗x2 → t^0 q^1 <x,x1> x2 + t^1 q^0 <x,x2> x1
    v = FockVector.basis(SPEC2.space, (0, 1))
    x = (F(2), F(3))
    got = qt_apply(qt_annihilate(x), v)
    expected = (
        Poly.monomial(2, eq=1) * FockVector.basis(SPEC2.space, (1,))
        + Poly.monomial(3, et=1) * FockVector.basis(SPEC2.space, (0,))
    )
    assert got == expected


def test_qt_t1_reproduces_alpha0_operators():
    rng = random.Random(7)
    space = SPEC2.space
    prob = random_problem(rng, 1, space)
    x, t = prob.xs[0], prob.ts[0]
    for word in basis_words(2, 3):
        v = FockVector.basis(space, word)
        qt_ann = qt_apply(qt_annihilate(x), v)
        b_ann = apply_operator(annihilate(x), v)
        for w in set(qt_ann.coeffs) | set(b_ann.coeffs):
            assert qt_ann.coeff(w).subs(t=1) == b_ann.coeff(w).subs(alpha=0)
        qt_g = qt_apply(qt_gauge(t), v)
        b_g = apply_operator(gauge(t), v)
        for w in set(qt_g.coeffs) | set(b_g.coeffs):
            assert qt_g.coeff(w).subs(t=1) == b_g.coeff(w).subs(alpha=0)


def test_qt_gauge_adjointness():
    t = ((F(1), F(2)), (F(2), F(-1)))
    for n in (1, 2, 3):
        for u_word in basis_words(2, n):
            for v_word in basis_words(2, n):
                u = FockVector.basis(SPEC2.space, u_word)
                v = FockVector.basis(SPEC2.space, v_word)
                assert inner(qt_apply(qt_gauge(t), u), v, "qt") == inner(
                    u, qt_apply(qt_gauge(t), v), "qt"
                )


def test_qt_creation_annihilation_adjointness():
    x = (F(1, 2), F(3))
    for n in (0, 1, 2):
        for u_word in basis_words(2, n):
            for v_word in basis_words(2, n + 1):
                u = FockVector.basis(SPEC2.space, u_word)
                v = FockVector.basis(SPEC2.space, v_word)
                assert inner(qt_apply(qt_create(x), u), v, "qt") == inner(
                    u, qt_apply(qt_annihilate(x), v), "qt"
                )


def test_qt_wick_pair():
    got = qt_wick([(F(2),), (F(3),)], [ID1, ID1], SPEC1)
    assert got == Poly.const(6)


def test_qt_wick_y5_fixture():
    # q = 0, T = Id, unit x: the fifth moment is t^2 + 2t + 3
    moment = qt_wick([UNIT] * 5, [ID1] * 5, SPEC1)
    assert moment.subs(q=0) == T**2 + 2 * T + 3
    operator_side = qt_y_moment([UNIT] * 5, [ID1] * 5, SPEC1)
    assert operator_side.subs(q=0) == T**2 + 2 * T + 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qt_wick_equals_operator_side(n):
    rng = random.Random(300 + n)
    prob = random_problem(rng, n, SPEC2.space, zero_lams=True)
    lhs = qt_y_moment(prob.xs, prob.ts, SPEC2)
    rhs = qt_wick(prob.xs, prob.ts, SPEC2)
    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qt_t1_matches_type_b_alpha0_moments(n):
    rng = random.Random(400 + n)
    prob = random_problem(rng, n, SPEC2.space, zero_lams=True)
    qt_value = qt_wick(prob.xs, prob.ts, SPEC2).subs(t=1)
    b_value = wick_moment(prob).subs(alpha=0)
    assert qt_value == b_value


def reference_terms(prob):
    """(rc, rarc, chain product) of each singleton-free partition, Fraction by Fraction."""
    for blocks in set_partitions(prob.n):
        if any(len(block) < 2 for block in blocks):
            continue
        value = Fraction(1)
        for block in blocks:
            value *= closed_chain_value(block, (1,) * (len(block) - 1), prob)
            if not value:
                break
        if value:
            rc, covers = arc_covers(blocks)
            yield rc, sum(map(sum, covers)), value


def reference_qt_wick(prob):
    """The (q,t) Wick sum term by term: q^rc t^rarc times the chain product."""
    return Poly.sum(Poly.monomial(value, eq=rc, et=rarc) for rc, rarc, value in reference_terms(prob))


@pytest.mark.parametrize("zero_t", [False, True], ids=["random-T", "T=0"])
@pytest.mark.parametrize("n", range(8))
def test_qt_wick_matches_the_reference_sum(n, zero_t):
    prob = random_problem(random.Random(500 + n), n, SPEC2.space, zero_lams=True)
    if zero_t:
        prob = replace(prob, ts=tuple(frac_matrix([[0, 0], [0, 0]]) for _ in prob.ts))
    assert qt_wick(prob.xs, prob.ts, SPEC2) == reference_qt_wick(prob)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.randoms(use_true_random=False), st.booleans())
def test_qt_wick_matches_the_reference_sum_on_random_data(d, n, rng, zero_t):
    """Coordinates with denominators up to 7 in dimension 1 to 3, T = 0 or
    random and symmetric, as every coefficient operator must be."""

    def rational():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 7))

    def symmetric():
        upper = {(i, j): Fraction(0) if zero_t else rational() for i in range(d) for j in range(i, d)}
        return [[upper[min(i, j), max(i, j)] for j in range(d)] for i in range(d)]

    spec = QtSpec.make(d, truncation=max(n, 1))
    xs = [[rational() for _ in range(d)] for _ in range(n)]
    ts = [symmetric() for _ in range(n)]
    prob = MomentProblem.build(xs, ts, [0] * n, spec.space)
    assert qt_wick(xs, ts, spec) == reference_qt_wick(prob)


def test_qt_q0_noncrossing_only():
    rng = random.Random(31)
    prob = random_problem(rng, 4, SPEC2.space, zero_lams=True)
    expected = Poly.sum(
        Poly.monomial(value, et=rarc) for rc, rarc, value in reference_terms(prob) if rc == 0
    )
    assert qt_wick(prob.xs, prob.ts, SPEC2).subs(q=0) == expected


@pytest.mark.parametrize(
    "xs,ts,y_match",
    [
        ([(F(1), F(5))] * 2, [ID1] * 2, "^qt-y: vector has 2 coordinates, the space has d = 1$"),
        ([UNIT] * 2, [frac_identity(2)] * 2, "^qt-y: coefficient operator is not 1x1$"),
    ],
    ids=["x-length", "t-size"],
)
def test_qt_wick_checks_dimensions(xs, ts, y_match):
    with pytest.raises(ValueError, match="^vector/operator dimensions must match the space$"):
        qt_wick(xs, ts, QtSpec.make(1, truncation=4))
    with pytest.raises(ValueError, match=y_match):
        qt_y_moment(xs, ts, QtSpec.make(1, truncation=4))


def test_qt_vacuum_expectation_truncation_guard():
    tight = QtSpec.make(1, truncation=1)
    with pytest.raises(TruncationError, match="^more operator factors than the truncation allows$"):
        vacuum_expectation([qt_y(UNIT, ID1)] * 3, tight.space)
    assert vacuum_expectation([qt_y(UNIT, ID1)], tight.space) == Poly()


def test_qt_pruned_vacuum_expectation_matches_unpruned_loop():
    rng = random.Random(41)
    for n in range(1, 7):
        prob = random_problem(rng, n, SPEC2.space, zero_lams=True)
        ops = [qt_y(x, t) for x, t in zip(reversed(prob.xs), reversed(prob.ts))]
        v = FockVector.vacuum(SPEC2.space)
        for op in reversed(ops):
            v = qt_apply(op, v)
        assert vacuum_expectation(ops, SPEC2.space) == v.coeff(())


MINUS = SpaceSpec.diagonal("-", truncation=3)
X1 = FockVector.basis(MINUS, (0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: symmetrizer(1, MINUS, "qt"),
        lambda: inner(X1, X1, "qt"),
        lambda: apply_operator(qt_create((F(1),)), FockVector.vacuum(MINUS)),
        lambda: apply_operator(qt_annihilate((F(1),)), X1),
        lambda: apply_operator(qt_gauge(((F(1),),)), X1),
        lambda: apply_operator(qt_y((F(1),), ((F(1),),)), X1),
    ],
    ids=["symmetrizer", "inner", "qt-create", "qt-annihilate", "qt-gauge", "qt-y"],
)
def test_the_qt_flavor_and_kinds_reject_a_nontrivial_involution(call):
    """The (q,t) model has no involution term: on a space with J != I its flavor
    and kinds raise rather than drop J."""
    with pytest.raises(ValueError, match="trivial involution"):
        call()
