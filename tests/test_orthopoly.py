"""Jacobi parameters, moments, continued fraction, operator identities."""

from fractions import Fraction
from itertools import product

import pytest

from bfock.orthopoly import (
    al_salam_ismail,
    alphaq_poisson_b,
    family,
    moments_from_jacobi,
    operator_moments,
    polys,
    qt_poisson,
    substitution_check,
    vacuum_polynomial_identity,
)
from bfock.fock import SpaceSpec, type_b
from bfock.qt import QtSpec, qt_y
from bfock.scalars import ALPHA, ONE, Q, T, ZERO
from oracles import continued_fraction_moments, leading_minors, vacuum_coefficients

F = Fraction


def motzkin_moments(jp, upto):
    """Independent oracle: enumerate weighted Motzkin paths explicitly."""
    moments = []
    for n in range(upto + 1):
        total = ZERO
        for steps in product((-1, 0, 1), repeat=n):
            level = 0
            weight = ONE
            ok = True
            for step in steps:
                if step == 1:
                    level += 1  # up: weight 1
                elif step == 0:
                    weight = weight * jp.beta(level)
                else:
                    level -= 1
                    if level < 0:
                        ok = False
                        break
                    weight = weight * jp.gamma(level)
            if ok and level == 0:
                total = total + weight
        moments.append(total)
    return moments


def test_family_marchenko_pastur_limit():
    jp = alphaq_poisson_b()
    betas = [jp.beta(n).evaluate(0, 0) for n in range(5)]
    gammas = [jp.gamma(n).evaluate(0, 0) for n in range(5)]
    assert betas == [0, 1, 1, 1, 1]
    assert gammas == [1, 1, 1, 1, 1]


def test_family_coefficients():
    jp = alphaq_poisson_b()
    assert jp.gamma(1) == (ONE + Q) * (ONE + ALPHA * Q)
    qt = qt_poisson()
    assert qt.gamma(0) == ONE
    assert qt.gamma(1) == T + Q
    assert qt.beta(0) == ZERO


def test_polys_first_steps():
    for jp in (alphaq_poisson_b(), qt_poisson()):
        table = polys(jp, 1)
        assert table[1] == [ZERO, ONE]  # P_1 = y
    table = polys(alphaq_poisson_b(), 2)
    # P_2 = y^2 - (1+a) y - (1+a), from one recurrence step
    assert table[2] == [-(ONE + ALPHA), -(ONE + ALPHA), ONE]


def test_al_salam_ismail_one_step():
    # oracle = one step of the displayed recurrence with a=-1, b=t^2:
    # U_2 = y U_1 - t U_1 - t^2 U_0 = y^2 - t y - t^2
    jp = al_salam_ismail()
    table = polys(jp, 2)
    assert table[2] == [-(T**2), -T, ONE]


def test_moments_small_paths():
    for jp in (alphaq_poisson_b(), qt_poisson()):
        moments = moments_from_jacobi(jp, 2)
        assert moments[0] == ONE
        assert moments[1] == ZERO  # beta_0 = 0
        assert moments[2] == jp.gamma(0)


def test_moment_m3_alphaq():
    moments = moments_from_jacobi(alphaq_poisson_b(), 3)
    assert moments[3] == (ONE + ALPHA) ** 2


@pytest.mark.parametrize("which", ["alphaq-poisson-B", "qt-poisson"])
def test_moments_match_motzkin_oracle(which):
    jp = family(which)
    assert moments_from_jacobi(jp, 6) == motzkin_moments(jp, 6)


def test_qt_poisson_m5_fixture():
    moments = moments_from_jacobi(qt_poisson(), 5)
    assert moments[5].subs(q=0) == T**2 + 2 * T + 3


@pytest.mark.parametrize("sign", ["+", "-"])
def test_vacuum_polynomial_identity_alphaq(sign):
    report = vacuum_polynomial_identity("alphaq", 5, sign=sign)
    assert report.equal, report.first_difference


def test_vacuum_polynomial_identity_qt():
    report = vacuum_polynomial_identity("qt", 5)
    assert report.equal, report.first_difference


@pytest.mark.parametrize("which,model", [("alphaq-poisson-B", "alphaq"), ("qt-poisson", "qt")])
def test_moments_match_operator_moments(which, model):
    jp = family(which)
    assert moments_from_jacobi(jp, 6) == operator_moments(model, 6)


def test_operator_moments_negative_sign_variant():
    jp = alphaq_poisson_b(negate_alpha=True)
    assert moments_from_jacobi(jp, 6) == operator_moments("alphaq", 6, sign="-")


@pytest.mark.parametrize("which,sign", [("alphaq", "+"), ("alphaq", "-"), ("qt", "+")])
def test_operator_moments_equal_the_unpruned_loop(which, sign):
    # the line operator, x = 1 and T = 1, on the space operator_moments builds for it
    unit, identity = (F(1),), ((F(1),),)
    for upto in range(9):
        if which == "alphaq":
            space, op = SpaceSpec.diagonal(sign, truncation=upto + 1), type_b(unit, identity)
        else:
            space, op = QtSpec.make(1, truncation=upto + 1).space, qt_y(unit, identity)
        assert operator_moments(which, upto, sign=sign) == vacuum_coefficients([op] * upto, space)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_continued_fraction_truncation(k):
    # cut at depth k, the fraction keeps exactly the first 2k + 2 moments
    at = (F(1, 3), F(1, 4), F(1, 2))
    for which in ("alphaq-poisson-B", "qt-poisson"):
        jp = family(which)
        expected = [m.evaluate(*at) for m in moments_from_jacobi(jp, 2 * k + 2)]
        got = continued_fraction_moments(jp, depth=k, at=at, count=2 * k + 3)
        assert got[:-1] == expected[:-1]
        assert got[-1] != expected[-1]


def test_substitution_check_passes():
    report = substitution_check(10)
    assert report.equal, report.first_difference


def test_substitution_small_values():
    # n = 2 quotient: y^2 - y - 1 at q = 0
    table = polys(qt_poisson(), 2)
    p2_at_q0 = [c.subs(q=0) for c in table[2]]
    assert p2_at_q0 == [-ONE, -ONE, ONE]


def test_hankel_determinants_are_the_gamma_products():
    # det(m_{i+j})_{i,j < size} = prod_{k=1}^{size-1} gamma_0 ··· gamma_{k-1}
    # (Krattenthaler, Advanced determinant calculus, 1999), and it is > 0 where
    # every gamma is, at one point inside each family's range
    for which, at in (
        ("alphaq-poisson-B", (F(2, 5), F(3, 10), F(0))),
        ("qt-poisson", (F(0), F(1, 5), F(7, 10))),
    ):
        jp = family(which)
        moments = [m.evaluate(*at) for m in moments_from_jacobi(jp, 8)]
        expected, running = [F(1)], F(1)
        for k in range(4):
            running *= jp.gamma(k).evaluate(*at)
            expected.append(expected[-1] * running)
        hankel = [[moments[i + j] for j in range(5)] for i in range(5)]
        assert leading_minors(hankel) == expected, which
        assert all(det > 0 for det in expected), which
