"""Size guards and unknown-name raises across the modules, each checked by its message."""

import random
import re

import pytest

from bfock import orthopoly
from bfock.errors import ResourceLimitError
from bfock.fock import SpaceSpec, symmetrizer
from bfock.moments import eps_operator, random_problem
from bfock.partitions import enumerate_colored, enumerate_extended_eps
from bfock.scalars import Poly
from oracles import reduced_words


def small_problem():
    return random_problem(random.Random(0), 2, SpaceSpec.diagonal("+-", 2), zero_lams=True)


@pytest.mark.parametrize(
    "call,error,match",
    [
        # the d^n guard fires before B_13 is enumerated, so the rank guard never does
        (lambda: symmetrizer(13, SpaceSpec.diagonal("+-", 13)), ResourceLimitError,
         "matrix dimension d^n = 8192 exceeds 4096"),
        (lambda: next(reduced_words((1, 2, 3, 4, 5))), ResourceLimitError,
         "reduced-word enumeration is guarded at n <= 4"),
        (lambda: orthopoly.vacuum_polynomial_identity("alphaq", 7), ResourceLimitError,
         "guarded at n <= 6"),
        (lambda: orthopoly.substitution_check(11), ResourceLimitError, "guarded at n <= 10"),
        (lambda: next(enumerate_extended_eps("*" * 9)), ResourceLimitError,
         "extended enumeration supports 0 <= n <= 8"),
        (lambda: orthopoly.family("bogus"), ValueError, "unknown family 'bogus'"),
        (lambda: orthopoly.operator_moments("bogus", 2), ValueError, "unknown model 'bogus'"),
        (lambda: orthopoly.operator_moments("qt", 2, "-"), ValueError,
         "the (q,t) model has the trivial involution"),
        (lambda: next(enumerate_colored(3, "bogus")), ValueError, "unknown filter 'bogus'"),
        (lambda: Poly.const(1).terms[(5, 0, 0)], KeyError, "(5, 0, 0)"),
        (lambda: eps_operator("x", 1, small_problem()), ValueError, "unknown symbol 'x'"),
    ],
    ids=[
        "symmetrizer-dimension", "reduced-words-rank", "vacuum-identity-size",
        "substitution-size", "extended-eps-size", "unknown-family", "unknown-model",
        "qt-model-sign", "unknown-filter", "absent-term", "unknown-symbol",
    ],
)
def test_guards_and_unknown_names_raise(call, error, match):
    with pytest.raises(error, match=re.escape(match)):
        call()
