"""Scalar ring: arithmetic, evaluation homomorphism, q-integers, the Fraction oracle."""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfock.fock import SpaceSpec, r_operator, symmetrizer
from bfock.scalars import (
    ALPHA,
    ONE,
    Q,
    T,
    ZERO,
    Poly,
    frac_matrix,
    frac_vector,
    is_semidefinite,
    mat_kron,
    mat_mul,
    mat_to_int,
    norm_at_most,
    qint,
    qtint,
)
from fraction_poly import FractionPoly
from oracles import leading_minors

F = Fraction

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=5
)

exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)

polys = st.dictionaries(exponents, rationals, max_size=5).map(Poly)


def test_eval_substitution():
    assert (ALPHA * Q).evaluate(F(1, 2), F(1, 3)) == F(1, 6)
    assert (ONE + 0 * Q).evaluate(F(7), F(-3)) == 1
    p = (ONE + ALPHA) * (ONE + Q)
    assert p.evaluate(F(-2, 5), F(3, 10)) == F(3, 5) * F(13, 10)
    assert p.evaluate(F(-2, 5), F(3, 10)) == F(39, 50)


def test_repr_and_a_foreign_comparison():
    assert repr(ZERO) == "Poly(0)"
    assert repr(ONE + Q) == "Poly(q + 1)"
    assert ONE != "1"  # __eq__ returns NotImplemented, so Python compares identities


def test_arith_basics():
    assert (ONE + ALPHA) * (ONE - ALPHA) == ONE - ALPHA**2
    p = Poly({(1, 2, 0): F(3), (0, 0, 1): F(-1, 2)})
    assert (p - p) == ZERO
    assert (p - p).terms == {}
    lhs = (ONE + Q) * (ONE + Q + Q**2)
    assert lhs.evaluate(0, F(1, 2)) == F(3, 2) * F(7, 4)
    assert lhs.evaluate(0, F(1, 2)) == F(21, 8)


@settings(max_examples=150)
@given(polys, polys, rationals, rationals, rationals)
def test_eval_is_ring_homomorphism(p, r, av, qv, tv):
    assert (p * r).evaluate(av, qv, tv) == p.evaluate(av, qv, tv) * r.evaluate(av, qv, tv)
    assert (p + r).evaluate(av, qv, tv) == p.evaluate(av, qv, tv) + r.evaluate(av, qv, tv)


@settings(max_examples=100)
@given(polys, polys, polys)
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


def test_qint_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(3) == ONE + Q + Q**2


@pytest.mark.parametrize("n", range(13))
def test_qint_telescoping(n):
    assert qint(n) * (ONE - Q) == ONE - Q**n


def test_qtint_values():
    assert qtint(1) == ONE
    assert qtint(2) == T + Q
    assert qtint(3) == T**2 + Q * T + Q**2


@pytest.mark.parametrize("n", range(1, 9))
def test_qtint_homogeneous_and_t1(n):
    assert all(sum(exp) == n - 1 for exp in qtint(n).terms)
    assert qtint(n).subs(t=1) == qint(n)


def test_subs_alpha_negation():
    p = ONE + ALPHA + ALPHA**2 * Q
    assert p.subs(alpha=-ALPHA) == ONE - ALPHA + ALPHA**2 * Q


def test_canonical_str():
    assert str(ZERO) == "0"
    assert str(T**2 + 2 * T + 3) == "t^2 + 2*t + 3"
    assert str(ONE - Q) == "-q + 1"
    assert str(F(3, 5) * ALPHA * Q - ONE) == "3/5*a*q - 1"
    assert str(ALPHA**2 * Q + 2 * ALPHA * Q + ONE) == "a^2*q + 2*a*q + 1"


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: frac_vector([F(1), 0.5]), TypeError, "not a rational value: 0.5"),
        (lambda: Poly.monomial(1, eq=-1), ValueError, "negative exponents"),
        (lambda: Q**-1, ValueError, "nonnegative integer"),
        (lambda: Q**F(1, 2), ValueError, "nonnegative integer"),
        (lambda: qint(-1), ValueError, "nonnegative"),
        (lambda: qtint(-1), ValueError, "nonnegative"),
    ],
    ids=["float-entry", "negative-exponent", "negative-power", "fractional-power", "qint", "qtint"],
)
def test_scalars_reject_values_outside_their_domain(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_pow_and_coercion():
    assert (Q + 1) ** 0 == ONE
    assert 2 * Q == Q + Q
    assert F(1, 2) * (Q + Q) == Q
    assert (Q - F(1, 2)).terms[(0, 0, 0)] == F(-1, 2)


# -- the integer core against the Fraction oracle ------------------------------

# denominators up to 12 make sums and products widen and reduce the common one
oracle_coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=12)
oracle_terms = st.dictionaries(exponents, oracle_coefficients, max_size=5)


def agrees(p: Poly, fp: FractionPoly) -> bool:
    """Same terms, same text and the same float value, term order included."""
    return (
        p.terms == fp.terms
        and str(p) == str(fp)
        and p.eval_float(0.3, -0.7, 1.1) == fp.eval_float(0.3, -0.7, 1.1)
    )


@settings(max_examples=60, deadline=None)
@given(oracle_terms, oracle_terms, oracle_terms, oracle_coefficients, st.integers(0, 3))
def test_poly_matches_the_fraction_oracle(a, b, c, scalar, k):
    p, r, s = Poly(a), Poly(b), Poly(c)
    fp, fr, fs = FractionPoly(a), FractionPoly(b), FractionPoly(c)
    assert agrees(p, fp)
    assert agrees(p + r, fp + fr)
    assert agrees(p - r, fp - fr)
    assert agrees(p - p, fp - fp)
    assert agrees(p * r, fp * fr)
    assert agrees(p * scalar, fp * scalar)
    assert agrees(scalar - p, scalar - fp)
    assert agrees(3 * p + 1, 3 * fp + 1)
    assert agrees(p**k, fp**k)
    assert agrees(Poly.sum([p, r, s, scalar, 2]), FractionPoly.sum([fp, fr, fs, scalar, 2]))
    assert agrees(p.subs(alpha=r, t=scalar), fp.subs(alpha=fr, t=scalar))
    assert agrees(p.subs(q=-Q), fp.subs(q=-FractionPoly.monomial(1, eq=1)))
    assert p.evaluate(scalar, F(1, 3), -2) == fp.evaluate(scalar, F(1, 3), -2)
    assert (p == r) == (fp == fr)
    assert (p == scalar) == (fp == scalar)
    assert (p * r - r * p) == ZERO
    assert hash(p + r) == hash(r + p)  # equal values, terms in another order


def test_power_does_not_square_past_its_last_bit():
    assert Q ** (2**19) == Poly.monomial(1, eq=2**19)
    assert (ALPHA * T) ** (2**20 - 1) == Poly.monomial(1, ea=2**20 - 1, et=2**20 - 1)


@pytest.mark.parametrize(
    "left, right",
    [
        (Poly({(1, 2, 0): F(2, 4)}), Poly({(1, 2, 0): F(1, 2)})),
        (F(1, 2) * (2 * Q + 4), Q + 2),
        ((F(1, 6) * Q + F(1, 3)) * 3, F(1, 2) * Q + 1),
        (Poly.sum([F(1, 3) * Q + F(1, 6), -F(1, 3) * Q, F(-1, 6)]), ZERO),
        ((ALPHA + F(1, 4)) - (ALPHA + F(1, 4)), Poly()),
        (Poly.const(F(6, 3)), Poly.const(2)),
    ],
)
def test_equal_values_built_differently_are_equal_and_hash_equal(left, right):
    assert left == right
    assert hash(left) == hash(right)


# -- the exact semidefinite certificate ------------------------------------------

small_int_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=1, max_size=5
    )
)


def gram_of(a):
    """A^T A for the integer matrix A (rows of A as lists)."""
    cols = list(zip(*a))
    return [[sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]


@settings(max_examples=150)
@given(small_int_matrices)
def test_a_gram_matrix_is_semidefinite_and_definite_after_adding_the_identity(a):
    gram = gram_of(a)
    assert is_semidefinite(gram)
    shifted = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(gram)]
    assert is_semidefinite(shifted, definite=True)


def test_a_singular_semidefinite_matrix_is_not_definite():
    assert is_semidefinite([[1, 1], [1, 1]])
    assert not is_semidefinite([[1, 1], [1, 1]], definite=True)
    assert is_semidefinite([[0, 0], [0, 0]])
    assert is_semidefinite([])


def test_no_norm_is_at_most_a_negative_bound():
    # the zero matrix has norm 0: at most 0, but not at most any bound below it
    assert norm_at_most([[ZERO]], 0, 0, 0)
    assert not norm_at_most([[ZERO]], F(-1, 2), 0, 0)


@pytest.mark.parametrize(
    "m",
    [
        [[0, 1], [1, 0]],  # zero diagonal, nonzero block
        [[1, 2], [2, 1]],  # eigenvalue -1
        [[-1]],
        [[4, 0, 0], [0, -1, 0], [0, 0, 4]],
        [[2, 1, 0], [1, 2, 0], [0, 0, -3]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],  # the zero pivot comes after a positive one
    ],
)
def test_an_indefinite_matrix_is_refuted(m):
    assert not is_semidefinite(m)
    assert not is_semidefinite(m, definite=True)


def test_mat_to_int_clears_one_common_denominator():
    m, den = mat_to_int([[ALPHA, Q], [ONE, ALPHA * Q]], F(2, 5), F(3, 10))
    assert den == 50
    assert m == [[20, 15], [50, 6]]


def mat_to_int_oracle(a, alpha, q, t=0):
    """mat_to_int entry by entry, through the FractionPoly evaluator (``Poly.evaluate``
    is mat_to_int's 1x1 case, so it cannot be the reference): one Fraction per
    entry, then their lcm."""
    values = [[FractionPoly(x.terms).evaluate(alpha, q, t) for x in row] for row in a]
    den = lcm(*(v.denominator for row in values for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in values], den


MAT_TO_INT_POINTS = [(F(a, 5), F(b, 10)) for a in (2, -2) for b in (3, -3)] + [(0, 0)]


@pytest.mark.parametrize("signature", ["+", "+-"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mat_to_int_matches_the_entrywise_oracle(signature, n):
    space = SpaceSpec.diagonal(signature, truncation=4)
    for a in (symmetrizer(n, space), r_operator(n, space)):
        for alpha, q in MAT_TO_INT_POINTS:
            assert mat_to_int(a, alpha, q) == mat_to_int_oracle(a, alpha, q)


def test_mat_to_int_matches_the_oracle_with_t_and_on_zero():
    a = [[T * Q * F(1, 3) + ALPHA, Poly.const(F(1, 7))], [ZERO, T**3 - Q * Q * F(1, 2)]]
    for point in [(F(1, 3), F(-2, 7), F(3, 4)), (0, 0, F(5, 6)), (2, F(1, 2), -1)]:
        assert mat_to_int(a, *point) == mat_to_int_oracle(a, *point)
    zero = [[ZERO, ZERO], [ZERO, ZERO]]
    assert mat_to_int(zero, F(2, 5), F(3, 10), F(1, 2)) == ([[0, 0], [0, 0]], 1)
    assert mat_to_int_oracle(zero, F(2, 5), F(3, 10), F(1, 2)) == ([[0, 0], [0, 0]], 1)


GRID = [F(k, 10) for k in range(-9, 10, 3)] + [F(-19, 20), F(19, 20)]


# (alpha, q, levels) outside the unit square where the Gram matrix is not definite
OUTSIDE = [
    (F(3, 2), F(1, 2), (1, 2, 3)),
    (F(1), F(0), (1, 2, 3)),
    (F(-1), F(1, 2), (1, 2, 3)),
    (F(1, 2), F(3, 2), (2, 3)),
]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_gram_verdict_matches_sylvesters_criterion(n):
    # the pivoted fraction-free verdict against every leading principal minor
    # > 0: definite on the grid inside the unit square, not at the points outside
    space = SpaceSpec.diagonal("+-", truncation=3)
    gram = symmetrizer(n, space)
    points = [(alpha, q, True) for alpha in GRID for q in GRID]
    points += [(alpha, q, False) for alpha, q, levels in OUTSIDE if n in levels]
    for alpha, q, definite in points:
        m, _ = mat_to_int(gram, alpha, q)
        sylvester = all(minor > 0 for minor in leading_minors(m))
        assert is_semidefinite(m, definite=True) == sylvester == definite, (alpha, q)


RAGGED = "^a matrix needs at least one row and rows of one length$"


@pytest.mark.parametrize(
    "product,a,b,match",
    [
        (mat_mul, [[ONE, Q]], [[ONE]], re.escape("cannot multiply a (1, 2) matrix by a (1, 1) one")),
        (mat_mul, [[ONE, ONE]], [[ONE, Q], [ONE]], RAGGED),
        (mat_kron, [[ONE], [ONE, Q]], [[ONE]], RAGGED),
        (mat_kron, [], [[ONE]], RAGGED),
        (lambda a, _: frac_matrix(a), [[1, 2]], None, "^matrix must be square$"),
    ],
    ids=["mul-inner-mismatch", "mul-ragged", "kron-ragged", "kron-empty", "frac-not-square"],
)
def test_matrix_products_reject_shapes_that_do_not_fit(product, a, b, match):
    with pytest.raises(ValueError, match=match):
        product(a, b)
