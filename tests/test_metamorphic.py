"""Metamorphic relations: each side of the moment identity held to itself.

Reversal (self-adjointness).  Each B(x_i) = a(x_i) + a*(x_i) + p(T_i) + lambda_i
is self-adjoint for the deformed inner product, because T_i and J are
symmetric, so phi(B(x_n)···B(x_1)) = phi(B(x_1)···B(x_n)): reversing the points
(xs, ts and lams together) leaves the moment unchanged.  Neither side sees this
symmetry: ``wick_moment`` scans the points left to right, and
``vacuum_expectation`` applies the factors right to left with a horizon that
shrinks as it goes.  So each side is checked alone, and a fault in one scan can
break the relation without the other side's help.  Above ``MAX_WICK_N`` only the
operator side runs, and only a relation like this one can check it there.  The
relation holds on a (q,t) space too: there T_i is symmetric for the (q,t) inner
product as well, and J = I.

Multilinearity.  The moment is linear in each factor B(x_i), and B(x_i) is
linear in the point's data (x_i, T_i, lambda_i) taken together, so replacing
that data by c u + v gives c m(u) + m(v).  Neither side sees this either: the
partition side reads x_i, T_i and lambda_i in different blocks, and the
operator side clears each factor's denominators on its own.  The replaced
point's lambda is nonzero in u and in v, so its singleton terms take part on
every space, the (q,t) one included.

Cross-model.  On a space with J = I, the (q,t) model at t = 1 equals type B at
a = 0: the (q,t) slot weight q^(n-k) t^(k-1) becomes q^(n-k), the type-B one
loses its a-term, and on the partition side the arc choice (I, t^c) becomes
the identity part of (I + a q^(2c) J).  Each side computes one problem on the
two spaces that differ only in their model, and singletons carry their
lambda in both.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfock.fock import SpaceSpec, vacuum_expectation
from bfock.moments import MAX_WICK_N, random_problem, wick_moment


def householder(v):
    """I - 2 v v^T / (v^T v): a symmetric rational involution for an integer v
    (``SpaceSpec`` checks both when ``problem`` builds the space)."""
    norm = sum(c * c for c in v)
    return tuple(
        tuple(F(int(i == k)) - F(2 * v[i] * v[k], norm) for k in range(len(v)))
        for i in range(len(v))
    )


INVOLUTIONS = {
    "+-": ((F(1), F(0)), (F(0), F(-1))),
    "reflection": ((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5))),
    "householder-122": householder((1, 2, 2)),
    "qt-++": ((F(1), F(0)), (F(0), F(1))),
}


def problem(which, n, seed):
    j, model = INVOLUTIONS[which], "qt" if which.startswith("qt-") else "alpha-q"
    space = SpaceSpec(len(j), j, truncation=max(n, 1), model=model)
    return random_problem(random.Random(seed), n, space)


def reversed_points(prob):
    return replace(prob, xs=prob.xs[::-1], ts=prob.ts[::-1], lams=prob.lams[::-1])


def operator_side(prob):
    return vacuum_expectation(prob.operators(), prob.space)


SIDES = {"partition": wick_moment, "operator": operator_side}


@pytest.mark.parametrize("side", sorted(SIDES))
@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(sorted(INVOLUTIONS)), n=st.integers(0, 6), seed=st.integers(0, 2**32))
def test_reversing_the_points_keeps_the_moment(side, which, n, seed):
    moment = SIDES[side]
    prob = problem(which, n, seed)
    assert moment(reversed_points(prob)) == moment(prob)


@pytest.mark.parametrize("which", ["+-", "reflection"])
def test_reversal_holds_on_the_operator_side_above_the_wick_guard(which):
    n = 12
    assert n > MAX_WICK_N
    prob = problem(which, n, 12)
    assert operator_side(reversed_points(prob)) == operator_side(prob)


def with_point(prob, i, x, t, lam):
    """prob with point i + 1's data replaced."""
    def put(values, value):
        return values[:i] + (value,) + values[i + 1:]
    return replace(prob, xs=put(prob.xs, x), ts=put(prob.ts, t), lams=put(prob.lams, lam))


@pytest.mark.parametrize("side", sorted(SIDES))
@settings(max_examples=25, deadline=None)
@given(which=st.sampled_from(sorted(INVOLUTIONS)), n=st.integers(1, 5), seed=st.integers(0, 2**32),
       c=st.fractions(min_value=-3, max_value=3, max_denominator=4), data=st.data())
def test_the_moment_is_linear_in_each_point(side, which, n, seed, c, data):
    moment = SIDES[side]
    i = data.draw(st.integers(0, n - 1), label="point")
    prob, other = problem(which, n, seed), problem(which, n, seed + 1)
    u = (prob.xs[i], prob.ts[i], prob.lams[i] or F(1, 2))
    v = (other.xs[i], other.ts[i], other.lams[i] or F(-1, 3))
    mixed = (
        tuple(c * a + b for a, b in zip(u[0], v[0])),
        tuple(tuple(c * a + b for a, b in zip(ra, rb)) for ra, rb in zip(u[1], v[1])),
        c * u[2] + v[2],
    )
    combined = moment(with_point(prob, i, *mixed))
    assert combined == c * moment(with_point(prob, i, *u)) + moment(with_point(prob, i, *v))


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", range(8))
def test_the_qt_model_at_t1_is_type_b_at_a0(side, d, n):
    moment = SIDES[side]
    prob = random_problem(random.Random(700 + 10 * d + n), n, SpaceSpec.diagonal("+" * d, max(n, 1)))
    prob = replace(prob, lams=tuple(lam or F(1, 2) for lam in prob.lams))  # every point has a singleton term
    qt_prob = replace(prob, space=replace(prob.space, model="qt"))
    assert moment(qt_prob).subs(t=1) == moment(prob).subs(alpha=0)
