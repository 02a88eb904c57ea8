"""Monic three-term recurrences, Jacobi parameters, and moment extraction.

Families:

* ``alphaq_poisson_b`` - beta_n = gamma_{n-1} = [n]_q (1 + a q^(n-1)), beta_0 = 0
* ``qt_poisson``       - beta_n = gamma_{n-1} = [n]_{q,t}, beta_0 = 0
* ``al_salam_ismail``  - y U_n = U_{n+1} - a t^n U_n + b t^(n-1) U_{n-1},
  with the monic start U_1 = y (so beta_0 = 0)

Moments come from powers of the truncated monic tridiagonal operator
(superdiagonal 1, diagonal beta, subdiagonal gamma), whose (0,0) entries are
the weighted Motzkin path sums; the classical continued fraction carries the
same data and is kept as a secondary cross-check at rational parameters.

The identities against the operator model return ``moments.VerifyReport``s:
the first failing comparison, which names its level and first difference,
or a passing report under the identity's own name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ResourceLimitError
from .fock import FockVector, OpSpec, SpaceSpec, apply_operator, type_b
from .moments import VerifyReport, compare
from .qt import QtSpec, qt_y
from .scalars import ALPHA, ONE, T, Poly, PolyLike, ZERO, qint, qtint

MAX_VACUUM_IDENTITY_N = 6
MAX_SUBSTITUTION_N = 10
MAX_POLYS_N = 19  # the largest N whose tables take under about 10 s


@dataclass(frozen=True)
class JacobiParams:
    """Monic recurrence data: y P_n = P_{n+1} + beta_n P_n + gamma_{n-1} P_{n-1}."""

    name: str
    beta: Callable[[int], Poly]
    gamma: Callable[[int], Poly]


def alphaq_poisson_b(negate_alpha: bool = False) -> JacobiParams:
    """Type-B deformed Poisson family; negate_alpha serves the x̄ = -x variant."""
    a = -ALPHA if negate_alpha else ALPHA

    def coefficient(n: int) -> Poly:
        return qint(n) * (ONE + a * Poly.monomial(1, eq=n - 1)) if n >= 1 else ZERO

    return JacobiParams(
        name="alphaq-poisson-B" + ("-neg" if negate_alpha else ""),
        beta=lambda n: coefficient(n) if n >= 1 else ZERO,
        gamma=lambda n: coefficient(n + 1),
    )


def qt_poisson() -> JacobiParams:
    return JacobiParams(
        name="qt-poisson",
        beta=lambda n: qtint(n) if n >= 1 else ZERO,
        gamma=lambda n: qtint(n + 1),
    )


def al_salam_ismail(a: PolyLike, b: PolyLike) -> JacobiParams:
    """The displayed recurrence with the monic start U_0 = 1, U_1 = y."""
    a_poly = Poly._coerce(a)
    b_poly = Poly._coerce(b)
    return JacobiParams(
        name="al-salam-ismail",
        beta=lambda n: -a_poly * Poly.monomial(1, et=n) if n >= 1 else ZERO,
        gamma=lambda n: b_poly * Poly.monomial(1, et=n),
    )


def family(which: str, **kwargs) -> JacobiParams:
    if which == "alphaq-poisson-B":
        return alphaq_poisson_b(**kwargs)
    if which == "qt-poisson":
        return qt_poisson()
    if which == "alsalam-ismail":
        return al_salam_ismail(**kwargs)
    raise ValueError(f"unknown family {which!r}")


# polynomials in the spectral variable y: coefficient lists, index = power
YPoly = list[Poly]


def polys(jp: JacobiParams, upto: int) -> list[YPoly]:
    """Coefficient tables of P_0 ... P_upto via the monic recurrence."""
    if upto > MAX_POLYS_N:
        raise ResourceLimitError(f"polynomial tables are guarded at N <= {MAX_POLYS_N}")
    table: list[YPoly] = [[ONE]]
    if upto >= 1:
        table.append([-jp.beta(0), ONE])
    for n in range(1, upto):
        shifted = [ZERO] + table[n]  # y * P_n
        out = [ZERO] * (n + 2)
        for k, coeff in enumerate(shifted):
            out[k] = out[k] + coeff
        for k, coeff in enumerate(table[n]):
            out[k] = out[k] - jp.beta(n) * coeff
        for k, coeff in enumerate(table[n - 1]):
            out[k] = out[k] - jp.gamma(n - 1) * coeff
        table.append(out)
    return table[: upto + 1]


def moments_from_jacobi(jp: JacobiParams, upto: int) -> list[Poly]:
    """m_0 ... m_upto as (0,0) entries of powers of the truncated tridiagonal."""
    size = (upto + 1) // 2 + 1  # paths cannot climb above level ceil(n/2)
    beta = [jp.beta(k) for k in range(size)]
    gamma = [jp.gamma(k) for k in range(size)]
    # state: current row vector e_0^T J^k, truncated
    row = [ONE] + [ZERO] * (size - 1)
    moments = [ONE]
    for _ in range(upto):
        nxt = [ZERO] * size
        for i, value in enumerate(row):
            if value.is_zero:
                continue
            nxt[i] = nxt[i] + value * beta[i]
            if i + 1 < size:
                nxt[i + 1] = nxt[i + 1] + value  # superdiagonal 1
            if i > 0:
                nxt[i - 1] = nxt[i - 1] + value * gamma[i - 1]
        row = nxt
        moments.append(row[0])
    return moments


# -- continued-fraction cross-check (rational parameters) ----------------------

Series = list[Fraction]  # univariate polynomial in z, index = power


def _poly_mul_z(a: Series, b: Series, order: int) -> Series:
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a):
        if i > order or not ca:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ca * cb
    return out


def _series_div(num: Series, den: Series, order: int) -> Series:
    if not den or den[0] == 0:
        raise ZeroDivisionError("denominator has no constant term")
    out = [Fraction(0)] * (order + 1)
    num = num + [Fraction(0)] * (order + 1 - len(num))
    for k in range(order + 1):
        acc = num[k]
        for i in range(1, k + 1):
            if i < len(den):
                acc -= den[i] * out[k - i]
        out[k] = acc / den[0]
    return out


def continued_fraction_moments(
    jp: JacobiParams, depth: int, at: tuple[Fraction, Fraction, Fraction], count: int
) -> list[Fraction]:
    """Taylor coefficients of the depth-truncated continued fraction.

    Level j of the fraction is 1 - beta_j z - gamma_j z^2 / (next level); the
    truncation stops at level ``depth`` with its tail dropped.  The first
    2*depth coefficients agree with the moment sequence.
    """
    order = count - 1
    alpha_v, q_v, t_v = at
    beta = [jp.beta(j).evaluate(alpha_v, q_v, t_v) for j in range(depth + 1)]
    gamma = [jp.gamma(j).evaluate(alpha_v, q_v, t_v) for j in range(depth + 1)]
    # build from the innermost level outward as num/den rational functions
    num: Series = [Fraction(1)]
    den: Series = [Fraction(1), -beta[depth]]
    for j in range(depth - 1, -1, -1):
        # 1/(1 - beta_j z - gamma_j z^2 * num/den)
        new_den = [Fraction(1), -beta[j]]
        term = _poly_mul_z([Fraction(0), Fraction(0), -gamma[j]], num, order + 2)
        base = _poly_mul_z(new_den, den, order + 2)
        den_next = [x + y for x, y in zip(base, term + [Fraction(0)] * (len(base) - len(term)))]
        num, den = den, den_next
    return _series_div(num, den, order)[:count]


# -- identities against the operator model -------------------------------------


def _line_model(which: str, upto: int, sign: str) -> tuple[SpaceSpec, OpSpec]:
    """The line (d = 1) truncated at upto + 1 and its operator with x = 1, T = Id.

    which: 'alphaq' is the type-B operator with the ±1 involution of sign;
    'qt' is the (q,t) operator Y (sign must be '+').
    """
    unit = (Fraction(1),)
    identity = ((Fraction(1),),)
    if which == "alphaq":
        return SpaceSpec.diagonal(sign, truncation=upto + 1), type_b(unit, identity)
    if which == "qt":
        if sign != "+":
            raise ValueError("the (q,t) model has the trivial involution")
        return QtSpec.make(1, truncation=upto + 1).space, qt_y(unit, identity)
    raise ValueError(f"unknown model {which!r}")


def vacuum_polynomial_identity(which: str, upto: int, sign: str = "+") -> VerifyReport:
    """Check P_n(operator) Ω = x^{⊗n} symbolically for n <= upto (see ``_line_model``)."""
    if upto > MAX_VACUUM_IDENTITY_N:
        raise ResourceLimitError(f"guarded at n <= {MAX_VACUUM_IDENTITY_N}")
    space, op = _line_model(which, upto, sign)
    jp = alphaq_poisson_b(negate_alpha=(sign == "-")) if which == "alphaq" else qt_poisson()
    name = f"vacuum-polynomial-{which}-{sign}"
    prev = FockVector(space)  # P_{-1} = 0
    current = FockVector.vacuum(space)  # P_0 = 1
    for n in range(upto):
        nxt = apply_operator(op, current) - jp.beta(n) * current
        if n >= 1:
            nxt = nxt - jp.gamma(n - 1) * prev
        prev, current = current, nxt
        report = compare(f"{name} P_{n + 1}", current, FockVector.basis(space, (0,) * (n + 1)))
        if not report.equal:
            return report
    return VerifyReport(name, True, "", "", None)


def operator_moments(which: str, upto: int, sign: str = "+") -> list[Poly]:
    """phi(B^n) (or the (q,t) analogue) for n <= upto, symbolically.

    Each step passes the number of steps still to go as its horizon, so words
    that can no longer return to Ω are never formed.
    """
    space, op = _line_model(which, upto, sign)
    v = FockVector.vacuum(space)
    out = [v.coeff(())]
    for remaining in range(upto - 1, -1, -1):
        v = apply_operator(op, v, remaining)
        out.append(v.coeff(()))
    return out


def substitution_check(upto: int) -> VerifyReport:
    """U_n(y t, -1, t^2) is divisible by t^n with quotient the (0,t) family.

    The coefficient of y^k in U_n(yt) is u_{n,k}(t) t^k; each is divided by
    t^n symbolically and compared with the (0,t) entry, so a failure names
    its n and k and the first differing monomial.
    """
    if upto > MAX_SUBSTITUTION_N:
        raise ResourceLimitError(f"guarded at n <= {MAX_SUBSTITUTION_N}")
    asi = al_salam_ismail(a=Fraction(-1), b=T * T)
    u_table = polys(asi, upto)
    qt = qt_poisson()
    target = polys(JacobiParams(
        qt.name, lambda n: qt.beta(n).subs(q=0), lambda n: qt.gamma(n).subs(q=0)
    ), upto)
    name = "al-salam-ismail-substitution"
    for n, (u_row, p_row) in enumerate(zip(u_table, target)):
        for k in range(n + 1):
            instance = f"{name} n={n} y^{k}"
            terms = u_row[k].terms
            if any(et + k < n for _, _, et in terms):
                multiple = f"a multiple of t^{n - k}"
                return VerifyReport(instance, False, str(u_row[k]), multiple, "not divisible")
            quotient = Poly({(ea, eq, et + k - n): coeff for (ea, eq, et), coeff in terms.items()})
            report = compare(instance, quotient, p_row[k])
            if not report.equal:
                return report
    return VerifyReport(name, True, "", "", None)
