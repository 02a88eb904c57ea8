"""Rejections at the library boundary, one row each: the call, the error it
raises and a regex its message must match.

Each module's own parametrized rejection table stays beside the tests of that
module; every other raise-only check is a row here.  A size guard raises
``ResourceLimitError``, input past the truncation ``TruncationError``, a float
where an exact value belongs ``TypeError``, and any other bad input or unknown
name ``ValueError``.  A bad input that reaches the library through more than
one entry point has a row for each.  ``VALUES`` is the other side of the
boundary: what each value type's constructor stores from valid input.
"""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from bfock import orthopoly
from bfock.errors import ResourceLimitError, TruncationError
from bfock.fock import (
    FockVector,
    OpSpec,
    SpaceSpec,
    annihilate,
    apply_operator,
    apply_symmetrizer,
    create,
    gauge,
    inner,
    r_operator,
    symmetrizer,
    type_b,
    vacuum_expectation,
)
from bfock.moments import (
    MAX_VECTOR_N,
    MAX_WICK_N,
    MomentProblem,
    corollary_free_alpha,
    corollary_gaussian,
    corollary_q_case,
    eps_operator,
    vector_formula,
    vector_formulas,
    wick_moment,
)
from bfock.partitions import (
    ColoredPartition,
    enumerate_colored,
    enumerate_extended,
    enumerate_extended_eps,
    set_partitions,
)
from bfock.qt import QtSpec, qt_apply, qt_wick
from bfock.scalars import ALPHA, ONE, ZERO, Poly, is_semidefinite
from oracles import colored_wick_moment, eps_compatible, reduced_words

F = Fraction

UNIT, ID1 = (F(1),), ((F(1),),)
X2 = (F(1), F(2))
NOT_SYMMETRIC = ((F(1), F(2)), (F(0), F(1)))
RAGGED = ((F(1),), (F(2),))  # two rows of one entry
D2 = SpaceSpec.diagonal("+-", truncation=6)
LINE = SpaceSpec.diagonal("+", truncation=2)
TIGHT = SpaceSpec.diagonal("+", truncation=1)  # room for one letter
QT_D2 = QtSpec.make(2, truncation=6).space


def unit_problem(n, lam=0, sign="+", model="alpha-q"):
    """x = 1, T = 1 and the given lambda at each of n points on the line."""
    space = SpaceSpec.diagonal(sign, truncation=max(n, 1), model=model)
    return MomentProblem.build([UNIT] * n, [ID1] * n, [lam] * n, space)


WORD_MESSAGE = re.escape("eps must be over {*, 1, '} with one symbol per point")
EXTENDED_PAIR = next(enumerate_extended(2))
# slot 1 of a length-3 word adds q^2 to q^(2^20 - 2)
NEAR_THE_EXPONENT_BOUND = FockVector(
    SpaceSpec.diagonal("+", truncation=4), {(0, 0, 0): Poly.monomial(F(1, 3), eq=2**20 - 2)}
)
SYMMETRIC = "^gauge coefficient operator must be symmetric$"
QT_INVOLUTION = re.escape("(q,t) model requires the trivial involution")


REJECTIONS = [
    # -- scalars ----------------------------------------------------------------
    pytest.param(lambda: ZERO.evaluate(0.5, F(1, 3)), TypeError, "^not a rational value: 0.5$", id="float-point"),
    pytest.param(lambda: Poly.const(1).terms[(5, 0, 0)], KeyError, re.escape("(5, 0, 0)"), id="absent-term"),
    # a foreign operand gets NotImplemented, so Python raises
    pytest.param(lambda: ONE + "x", TypeError, re.escape("for +: 'Poly' and 'str'"), id="poly-plus-str"),
    pytest.param(lambda: ONE - "x", TypeError, re.escape("for -: 'Poly' and 'str'"), id="poly-minus-str"),
    pytest.param(lambda: "x" - ONE, TypeError, re.escape("for -: 'str' and 'Poly'"), id="str-minus-poly"),
    pytest.param(lambda: Poly.monomial(1, eq=2**20), ValueError,
                 re.escape("exponents (0, 1048576, 0) outside [0, 2^20)"), id="exponent-at-construction"),
    pytest.param(lambda: Poly({(0, 0, -1): 1}), ValueError,
                 re.escape("exponents (0, 0, -1) outside [0, 2^20)"), id="negative-exponent-in-dict"),
    pytest.param(lambda: Poly.monomial(1, eq=2**19) * Poly.monomial(1, eq=2**19), ValueError,
                 re.escape("product exponent (0, 1048576, 0) reaches 2^20"), id="exponent-in-a-square"),
    pytest.param(lambda: Poly.monomial(1, ea=2**20 - 1) * ALPHA, ValueError,
                 re.escape("product exponent (1048576, 0, 0) reaches 2^20"), id="exponent-times-alpha"),
    pytest.param(lambda: is_semidefinite([[1, 2], [0, 1]]), ValueError, "symmetric", id="certificate-not-symmetric"),
    pytest.param(lambda: is_semidefinite([[1, 0]]), ValueError, "symmetric", id="certificate-not-square"),
    # -- coxeter, and the tests' own group oracle --------------------------------
    pytest.param(lambda: next(reduced_words((1, 2, 3, 4, 5))), ResourceLimitError,
                 "reduced-word enumeration is guarded at n <= 4", id="reduced-words-rank"),
    # -- partitions -------------------------------------------------------------
    pytest.param(lambda: ColoredPartition(n=2, blocks=((2,), (1,)), colors=((), ())), ValueError,
                 "^blocks must be ordered by their maxima$", id="blocks-out-of-order"),
    pytest.param(lambda: ColoredPartition(n=2, blocks=((1, 2),), colors=((2,),)), ValueError,
                 "^colors must be ±1$", id="color-not-a-sign"),
    pytest.param(lambda: ColoredPartition(n=1, blocks=((1,),), colors=((),), marked=frozenset({0})), ValueError,
                 "only blocks of size >= 2 may be marked", id="marked-singleton"),
    pytest.param(lambda: ColoredPartition(n=-1, blocks=(), colors=()), ValueError, "negative",
                 id="partition-of-negative-n"),
    pytest.param(lambda: next(set_partitions(-1)), ValueError, "negative", id="set-partitions-of-negative-n"),
    pytest.param(lambda: next(enumerate_colored(3, "bogus")), ValueError, "unknown filter 'bogus'",
                 id="unknown-filter"),
    pytest.param(lambda: list(enumerate_colored(11)), ResourceLimitError,
                 "^colored enumeration supports 0 <= n <= 10$", id="colored-size"),
    pytest.param(lambda: list(enumerate_extended(9)), ResourceLimitError,
                 "^extended enumeration supports 0 <= n <= 8$", id="extended-size"),
    pytest.param(lambda: next(enumerate_extended_eps("*" * 9)), ResourceLimitError,
                 "extended enumeration supports 0 <= n <= 8", id="extended-eps-size"),
    pytest.param(lambda: next(enumerate_extended_eps(("*", "x"))), ValueError, WORD_MESSAGE,
                 id="extended-eps-bad-symbol"),
    pytest.param(lambda: eps_compatible(EXTENDED_PAIR, ("*",)), ValueError, WORD_MESSAGE,
                 id="eps-compatible-short"),
    pytest.param(lambda: eps_compatible(EXTENDED_PAIR, ("*", "x")), ValueError, WORD_MESSAGE,
                 id="eps-compatible-bad-symbol"),
    # -- fock: spaces and vectors -----------------------------------------------
    pytest.param(lambda: SpaceSpec(2, ((1, 0), (0,)), 3), ValueError, "dimension mismatch",
                 id="involution-row-short"),
    pytest.param(lambda: SpaceSpec.diagonal("+", 2, model="bogus"), ValueError, "^unknown model 'bogus'$",
                 id="unknown-space-model"),
    # symmetrizing and the inner product read the model from the vector's space,
    # and ``replace`` onto an unknown model re-runs the same check
    pytest.param(lambda: apply_symmetrizer(FockVector.vacuum(replace(D2, model="bogus"))), ValueError,
                 "^unknown model 'bogus'$", id="unknown-flavor-apply"),
    pytest.param(lambda: inner(*[FockVector.vacuum(replace(D2, model="bogus"))] * 2), ValueError,
                 "^unknown model 'bogus'$", id="unknown-flavor-inner"),
    # -- fock: symmetrizers -----------------------------------------------------
    # the d^n guard fires before B_13 is enumerated, so the rank guard never does
    pytest.param(lambda: symmetrizer(13, SpaceSpec.diagonal("+-", 13)), ResourceLimitError,
                 re.escape("matrix dimension d^n = 8192 exceeds 4096"), id="symmetrizer-dimension"),
    *[
        pytest.param(lambda level=level, space=space: symmetrizer(level, space),
                     ValueError, match, id=f"{space.model}-symmetrizer-level-{level}")
        for space in (D2, QT_D2)
        for level, match in ((-1, "negative"), (7, "exceeds truncation 6"))
    ],
    # the recursion factor, like the vector formulas and the corollaries below, is type B only
    pytest.param(lambda: r_operator(2, QT_D2), ValueError,
                 re.escape("r_operator is defined on the type-B (alpha-q) space only"), id="qt-r-operator"),
    # -- fock: operators --------------------------------------------------------
    pytest.param(lambda: apply_operator(create(UNIT), FockVector.basis(TIGHT, (0,))), TruncationError,
                 "^creation at the truncation level$", id="create-past-truncation"),
    pytest.param(lambda: vacuum_expectation([create(UNIT)] * 2, TIGHT), TruncationError,
                 "^more operator factors than the truncation allows$", id="factors-past-truncation"),
    pytest.param(lambda: apply_operator(OpSpec("annihilate", x=UNIT), NEAR_THE_EXPONENT_BOUND), ValueError,
                 "2\\^20", id="kernel-exponent-bound"),
    # a ragged T is refused by its shape, before its symmetry is read
    *[
        pytest.param(call, ValueError, "^matrix must be square$", id=f"{name}-t-ragged")
        for name, call in (("opspec", lambda: OpSpec("gauge", t=RAGGED)), ("gauge", lambda: gauge(RAGGED)),
                           ("type-b", lambda: type_b(X2, RAGGED)))
    ],
    # -- moments ----------------------------------------------------------------
    pytest.param(lambda: MomentProblem.build([UNIT], [], [F(0)], LINE), ValueError, "equal lengths",
                 id="problem-lengths"),
    # the partition side takes no T the operator side would refuse
    pytest.param(lambda: MomentProblem.build([X2], [NOT_SYMMETRIC], [0], D2), ValueError, SYMMETRIC,
                 id="problem-build-t-not-symmetric"),
    pytest.param(lambda: MomentProblem(xs=(X2,), ts=(NOT_SYMMETRIC,), lams=(F(0),), space=D2), ValueError,
                 SYMMETRIC, id="problem-t-not-symmetric"),
    # a directly built problem checks its dimensions before its points
    pytest.param(lambda: MomentProblem(xs=(X2,), ts=(RAGGED,), lams=(F(0),), space=D2), ValueError,
                 "^vector/operator dimensions must match the space$", id="problem-t-ragged"),
    pytest.param(lambda: eps_operator("x", 1, unit_problem(2)), ValueError, "unknown symbol 'x'",
                 id="unknown-symbol"),
    pytest.param(lambda: wick_moment(unit_problem(MAX_WICK_N + 1)), ResourceLimitError, f"n <= {MAX_WICK_N}",
                 id="wick-size"),
    pytest.param(lambda: colored_wick_moment(unit_problem(9)), ResourceLimitError, "n <= 8",
                 id="colored-wick-oracle-size"),
    pytest.param(lambda: vector_formula("*" * (MAX_VECTOR_N + 1), unit_problem(MAX_VECTOR_N + 1)),
                 ResourceLimitError, f"n <= {MAX_VECTOR_N}", id="vector-formula-size"),
    pytest.param(lambda: vector_formula(("*", "x"), unit_problem(2)), ValueError, "eps must be over",
                 id="vector-formula-alphabet"),
    pytest.param(lambda: vector_formula(("*", "1"), unit_problem(3)), ValueError, "one symbol per point",
                 id="vector-formula-length"),
    pytest.param(lambda: corollary_q_case(unit_problem(2, lam=1)), ValueError,
                 "^corollary cases require lambda = 0$", id="q-case-lambda"),
    pytest.param(lambda: corollary_free_alpha(unit_problem(2, sign="-")), ValueError,
                 "^free-alpha case requires involution-fixed vectors$", id="free-alpha-involution"),
    *[
        pytest.param(lambda call=call: call(unit_problem(2, model="qt")), ValueError,
                     re.escape(f"{call.__name__} is defined on the type-B (alpha-q) space only"),
                     id=f"qt-{call.__name__.replace('_', '-')}")
        for call in (corollary_q_case, corollary_free_alpha, corollary_gaussian, vector_formulas)
    ],
    pytest.param(lambda: vector_formula(("*", "1"), unit_problem(2, model="qt")), ValueError,
                 re.escape("vector_formula is defined on the type-B (alpha-q) space only"),
                 id="qt-vector-formula"),
    # -- qt ---------------------------------------------------------------------
    # a (q,t) space has no involution term, so it refuses any J other than I
    pytest.param(lambda: SpaceSpec.diagonal("+-", truncation=2, model="qt"), ValueError, QT_INVOLUTION,
                 id="qt-spec-involution"),
    pytest.param(lambda: SpaceSpec(2, ((F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5))), 2, model="qt"), ValueError,
                 QT_INVOLUTION, id="qt-spec-reflection"),
    pytest.param(lambda: QtSpec(D2), ValueError, re.escape("not a (q,t) space: its model is 'alpha-q'"),
                 id="qt-spec-alpha-q-space"),
    *[
        pytest.param(lambda op=op: qt_apply(op, FockVector.basis(QT_D2, (1,))), ValueError, match,
                     id=f"qt-apply-qt-{op.kind}-dimension")
        for op, match in (
            (create(UNIT), "^create: vector has 1 coordinates, the space has d = 2$"),
            (annihilate(UNIT), "^annihilate: vector has 1 coordinates, the space has d = 2$"),
            (gauge(ID1), "^gauge: coefficient operator is not 2x2$"),
        )
    ],
    # qt_apply takes a vector of a (q,t) space only
    *[
        pytest.param(lambda op=op: qt_apply(op, FockVector.basis(LINE, (0,))), ValueError,
                     re.escape("not a (q,t) space: its model is 'alpha-q'"), id=f"qt-apply-{op.kind}")
        for op in (create(UNIT), annihilate(UNIT), gauge(ID1), type_b(UNIT, ID1))
    ],
    pytest.param(lambda: qt_wick([X2] * 2, [NOT_SYMMETRIC] * 2, QtSpec.make(2, truncation=2)), ValueError,
                 SYMMETRIC, id="qt-wick-t-not-symmetric"),
    # -- orthopoly --------------------------------------------------------------
    pytest.param(lambda: orthopoly.vacuum_polynomial_identity("alphaq", 7), ResourceLimitError,
                 "guarded at n <= 6", id="vacuum-identity-size"),
    pytest.param(lambda: orthopoly.substitution_check(11), ResourceLimitError, "guarded at n <= 10",
                 id="substitution-size"),
    pytest.param(lambda: orthopoly.family("bogus"), ValueError, "unknown family 'bogus'", id="unknown-family"),
    pytest.param(lambda: orthopoly.operator_moments("bogus", 2), ValueError, "unknown model 'bogus'",
                 id="unknown-model"),
    pytest.param(lambda: orthopoly.operator_moments("qt", 4, "-"), ValueError, QT_INVOLUTION,
                 id="qt-model-sign"),
    pytest.param(lambda: orthopoly.vacuum_polynomial_identity("qt", 4, "-"), ValueError, QT_INVOLUTION,
                 id="qt-vacuum-identity-sign"),
]


@pytest.mark.parametrize("call, error, match", REJECTIONS)
def test_guards_and_unknown_names_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _leaves(value):
    """The leaves of nested tuples; a list or set anywhere fails."""
    assert not isinstance(value, (list, set)), value
    return [leaf for item in value for leaf in _leaves(item)] if isinstance(value, tuple) else [value]


# (built from lists and ints, built from tuples and Fractions, the stored
# fields that must be nested tuples, the type of their leaves)
VALUES = [
    pytest.param(lambda: SpaceSpec(2, [[0, 1], [1, 0]], 3), lambda: SpaceSpec(2, ((F(0), F(1)), (F(1), F(0))), 3),
                 ("involution",), Fraction, id="space"),
    pytest.param(lambda: OpSpec("create", x=[1, 2]), lambda: create(X2), ("x",), Fraction, id="create"),
    pytest.param(lambda: OpSpec("b", x=[1, 2], t=[[1, 0], [0, 3]], lam=2),
                 lambda: type_b(X2, ((F(1), F(0)), (F(0), F(3))), F(2)), ("x", "t", "lam"), Fraction, id="b"),
    pytest.param(lambda: MomentProblem([[1, 2]], [[[1, 0], [0, 3]]], [2], D2),
                 lambda: MomentProblem((X2,), (((F(1), F(0)), (F(0), F(3))),), (F(2),), D2),
                 ("xs", "ts", "lams"), Fraction, id="moment-problem"),
    pytest.param(lambda: ColoredPartition(3, [[2], [1, 3]], [[], [-1]], [1]),
                 lambda: ColoredPartition(3, ((2,), (1, 3)), ((), (-1,)), frozenset({1})),
                 ("blocks", "colors"), int, id="partition"),
]


@pytest.mark.parametrize("from_lists, from_tuples, fields, leaf", VALUES)
def test_equal_inputs_build_equal_hashable_values(from_lists, from_tuples, fields, leaf):
    value, normal = from_lists(), from_tuples()
    assert value == normal and hash(value) == hash(normal)
    for name in fields:
        assert all(type(x) is leaf for x in _leaves(getattr(value, name))), name
    assert not isinstance(value, ColoredPartition) or type(value.marked) is frozenset
