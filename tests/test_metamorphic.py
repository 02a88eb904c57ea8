"""Metamorphic relations: each side of the moment identity held to itself.

Reversal (self-adjointness).  Each B(x_i) = a(x_i) + a*(x_i) + p(T_i) + lambda_i
is self-adjoint for the deformed inner product, because T_i and J are
symmetric, so phi(B(x_n)···B(x_1)) = phi(B(x_1)···B(x_n)): reversing the points
(xs, ts and lams together) leaves the moment unchanged.  Neither side sees this
symmetry: ``wick_moment`` scans the points left to right, and
``vacuum_expectation`` applies the factors right to left with a horizon that
shrinks as it goes.  So each side is checked alone, and a fault in one scan can
break the relation without the other side's help.  Above ``MAX_WICK_N`` only the
operator side runs, and only a relation like this one can check it there.
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
}


def problem(which, n, seed):
    j = INVOLUTIONS[which]
    return random_problem(random.Random(seed), n, SpaceSpec(len(j), j, truncation=max(n, 1)))


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
