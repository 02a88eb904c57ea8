"""The packed-int operator kernel against the Poly-level oracle, and its input checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bfock.fock import FockVector, OpSpec, SpaceSpec, apply_operator, type_b, vacuum_expectation
from bfock.moments import MomentProblem, eps_word_vector, eps_operator
from bfock.qt import QtSpec, qt_y_moment
from bfock.scalars import Poly

F = Fraction

SPACES = (
    SpaceSpec.diagonal("+-", truncation=6),
    SpaceSpec.diagonal("+--", truncation=6),
    SpaceSpec(2, ((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5))), truncation=6),
)
# a (q,t) space has the trivial involution
QT_SPACES = tuple(SpaceSpec.diagonal(signature, truncation=6, model="qt") for signature in ("++", "+++"))
KINDS = ("create", "annihilate", "gauge", "b")
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def symmetric(draw, d):
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = draw(rationals)
    return tuple(tuple(row) for row in rows)


@st.composite
def operators_and_vectors(draw):
    """An operator of any kind with only the fields it reads, a vector of either
    model with words of length <= 5 whose coefficients have fractional values
    and a/q/t powers, and a horizon (None or 0..5)."""
    kind = draw(st.sampled_from(KINDS))
    space = draw(st.sampled_from(SPACES + QT_SPACES))
    d = space.d
    x = tuple(draw(rationals) for _ in range(d)) if kind != "gauge" else None
    t = symmetric(draw, d) if kind in ("gauge", "b") else None
    lam = draw(rationals) if kind == "b" else F(0)
    n = draw(st.integers(0, 5))
    words = draw(st.lists(
        st.lists(st.integers(0, d - 1), max_size=n).map(tuple), min_size=1, max_size=6
    ))
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 3))
    coeffs = {
        word: Poly(draw(st.dictionaries(exponents, rationals, min_size=1, max_size=3)))
        for word in words
    }
    horizon = draw(st.one_of(st.none(), st.integers(0, n)))
    return OpSpec(kind, x=x, t=t, lam=lam), FockVector(space, coeffs), horizon


@settings(max_examples=100, deadline=None)
@given(operators_and_vectors())
def test_apply_operator_matches_the_poly_oracle(case):
    op, v, horizon = case
    assert apply_operator(op, v, horizon) == oracles.apply_operator(op, v, horizon)


@st.composite
def moment_problems(draw):
    space = draw(st.sampled_from(SPACES + QT_SPACES))
    d = space.d
    n = draw(st.integers(0, 5))
    xs = [tuple(draw(rationals) for _ in range(d)) for _ in range(n)]
    ts = [symmetric(draw, d) for _ in range(n)]
    lams = [draw(st.one_of(st.just(F(0)), rationals)) for _ in range(n)]
    eps = draw(st.lists(st.sampled_from("*1'"), min_size=n, max_size=n))
    return MomentProblem.build(xs, ts, lams, space), tuple(eps)


@settings(max_examples=30, deadline=None)
@given(moment_problems())
def test_operator_products_match_the_poly_oracle(case):
    prob, eps = case
    ops = prob.operators()
    assert vacuum_expectation(ops, prob.space) == oracles.vacuum_expectation(ops, prob.space)
    word_ops = [eps_operator(symbol, point, prob) for point, symbol in enumerate(eps, start=1)]
    vacuum = FockVector.vacuum(prob.space)
    assert eps_word_vector(eps, prob) == oracles.apply_product(word_ops[::-1], vacuum)


@pytest.mark.parametrize("n", range(6))
def test_qt_y_moment_matches_the_poly_oracle(n):
    spec = QtSpec.make(2, truncation=max(n, 1))
    xs = [(F(k + 1, 3), F(2 - k, 5)) for k in range(n)]
    ts = [((F(1, 2), F(k, 7)), (F(k, 7), F(-1, 3))) for k in range(n)]
    ops = [type_b(x, t) for x, t in zip(reversed(xs), reversed(ts))]
    assert qt_y_moment(xs, ts, spec) == oracles.vacuum_expectation(ops, spec.space)


X2 = (F(1), F(2))
T2 = ((F(1), F(0)), (F(0), F(1)))


# refused at construction, before any space (of either model) is seen
@pytest.mark.parametrize(
    "kind,fields,message",
    [
        *[(kind, {"x": X2, "lam": F(1, 2)}, f"^{kind}: reads no shift lambda, got 1/2$")
          for kind in ("create", "annihilate")],
        ("gauge", {"t": T2, "lam": F(-3)}, "^gauge: reads no shift lambda, got -3$"),
        ("gauge", {"x": X2, "t": T2}, "^gauge: reads no vector x$"),
        *[(kind, {"x": X2, "t": T2}, f"^{kind}: reads no coefficient operator T$")
          for kind in ("create", "annihilate")],
    ],
    ids=["lam-create", "lam-annihilate", "lam-gauge", "x-gauge", "t-create", "t-annihilate"],
)
def test_a_field_the_kind_does_not_read_is_rejected(kind, fields, message):
    with pytest.raises(ValueError, match=message):
        OpSpec(kind, **fields)
