"""The packed-int operator kernel against the Poly-level oracle, and its input checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bfock.fock import FockVector, OpSpec, SpaceSpec, apply_operator, vacuum_expectation
from bfock.moments import MomentProblem, eps_word_vector, eps_operator
from bfock.qt import QtSpec, qt_y, qt_y_moment
from bfock.scalars import Poly

F = Fraction

SPACES = (
    SpaceSpec.diagonal("+-", truncation=6),
    SpaceSpec.diagonal("+--", truncation=6),
    SpaceSpec(2, ((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5))), truncation=6),
)
# the (q,t) kinds are defined on a space with the trivial involution only
QT_SPACES = (SpaceSpec.diagonal("++", truncation=6), SpaceSpec.diagonal("+++", truncation=6))
KINDS = ("create", "annihilate", "gauge", "b", "qt-create", "qt-annihilate", "qt-gauge", "qt-y")
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def symmetric(draw, d):
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = draw(rationals)
    return tuple(tuple(row) for row in rows)


@st.composite
def operators_and_vectors(draw):
    """An operator of any kind with only the fields it reads, a vector with words
    of length <= 5 whose coefficients have fractional values and a/q/t powers,
    and a horizon (None or 0..5)."""
    kind = draw(st.sampled_from(KINDS))
    space = draw(st.sampled_from(QT_SPACES if kind.startswith("qt-") else SPACES))
    d = space.d
    x = tuple(draw(rationals) for _ in range(d)) if not kind.endswith("gauge") else None
    t = symmetric(draw, d) if kind.endswith(("gauge", "b", "y")) else None
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
    space = draw(st.sampled_from(SPACES))
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
    ops = [qt_y(x, t) for x, t in zip(reversed(xs), reversed(ts))]
    assert qt_y_moment(xs, ts, spec) == oracles.vacuum_expectation(ops, spec.space)


X2 = (F(1), F(2))
T2 = ((F(1), F(0)), (F(0), F(1)))


@pytest.mark.parametrize(
    "op,message",
    [
        *[(OpSpec(kind, x=X2, lam=F(1, 2)), f"^{kind}: reads no shift lambda, got 1/2$")
          for kind in ("create", "annihilate", "qt-create", "qt-annihilate")],
        *[(OpSpec(kind, t=T2, lam=F(-3)), f"^{kind}: reads no shift lambda, got -3$")
          for kind in ("gauge", "qt-gauge")],
        (OpSpec("qt-y", x=X2, t=T2, lam=F(5)), "^qt-y: reads no shift lambda, got 5$"),
        *[(OpSpec(kind, x=X2, t=T2), f"^{kind}: reads no vector x$")
          for kind in ("gauge", "qt-gauge")],
        *[(OpSpec(kind, x=X2, t=T2), f"^{kind}: reads no coefficient operator T$")
          for kind in ("create", "annihilate", "qt-create", "qt-annihilate")],
    ],
    ids=[
        *[f"lam-{kind}" for kind in ("create", "annihilate", "qt-create", "qt-annihilate")],
        "lam-gauge", "lam-qt-gauge", "lam-qt-y",
        "x-gauge", "x-qt-gauge",
        *[f"t-{kind}" for kind in ("create", "annihilate", "qt-create", "qt-annihilate")],
    ],
)
def test_a_field_the_kind_does_not_read_is_rejected(op, message):
    v = FockVector.basis(SPACES[0], (0, 1))
    with pytest.raises(ValueError, match=message):
        apply_operator(op, v)
    with pytest.raises(ValueError, match=message):
        vacuum_expectation([op], SPACES[0])
