"""Monic three-term recurrences, Jacobi parameters, and moment extraction.

Families:

* ``alphaq_poisson_b`` - beta_n = gamma_{n-1} = [n]_q (1 + a q^(n-1)), beta_0 = 0
* ``qt_poisson``       - beta_n = gamma_{n-1} = [n]_{q,t}, beta_0 = 0
* ``al_salam_ismail``  - y U_n = U_{n+1} - a t^n U_n + b t^(n-1) U_{n-1} at
  a = -1, b = t^2, with the monic start U_1 = y (so beta_0 = 0)

Moments come from powers of the truncated monic tridiagonal operator
(superdiagonal 1, diagonal beta, subdiagonal gamma), whose (0,0) entries are
the weighted Motzkin path sums.  The classical J-fraction carries the same
data; the tests solve it level by level as a power series
(``tests/oracles.py``), a second route to the moments at rational parameters.

The identities against the operator model return ``moments.VerifyReport``s:
the first failing comparison, which names its level and first difference,
or a passing report under the identity's own name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ResourceLimitError
from .fock import FockVector, OpSpec, SpaceSpec, apply_operator, type_b
from .moments import VerifyReport, compare
from .scalars import ALPHA, ONE, Poly, ZERO, qint, qtint

MAX_VACUUM_IDENTITY_N = 6
MAX_SUBSTITUTION_N = 10
MAX_POLYS_N = 19  # the largest N whose tables take under about 10 s


@dataclass(frozen=True)
class JacobiParams:
    """Monic recurrence data: y P_n = P_{n+1} + beta_n P_n + gamma_{n-1} P_{n-1}.
    It carries no name: a family is named by its key in ``family``."""

    beta: Callable[[int], Poly]
    gamma: Callable[[int], Poly]


def alphaq_poisson_b(negate_alpha: bool = False) -> JacobiParams:
    """Type-B deformed Poisson family; negate_alpha serves the x̄ = -x variant."""
    a = -ALPHA if negate_alpha else ALPHA

    def coefficient(n: int) -> Poly:
        return qint(n) * (ONE + a * Poly.monomial(1, eq=n - 1)) if n >= 1 else ZERO

    return JacobiParams(beta=coefficient, gamma=lambda n: coefficient(n + 1))


def qt_poisson() -> JacobiParams:
    return JacobiParams(beta=qtint, gamma=lambda n: qtint(n + 1))


def al_salam_ismail() -> JacobiParams:
    """The displayed recurrence at a = -1, b = t^2 with the monic start U_0 = 1,
    U_1 = y: beta_n = -a t^n = t^n for n >= 1 and gamma_n = b t^n = t^(n+2)."""
    return JacobiParams(
        beta=lambda n: Poly.monomial(1, et=n) if n >= 1 else ZERO,
        gamma=lambda n: Poly.monomial(1, et=n + 2),
    )


def family(which: str) -> JacobiParams:
    if which == "alphaq-poisson-B":
        return alphaq_poisson_b()
    if which == "qt-poisson":
        return qt_poisson()
    if which == "alsalam-ismail":
        return al_salam_ismail()
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
    for n in range(1, upto):  # P_{n+1} = y P_n - beta_n P_n - gamma_{n-1} P_{n-1}
        beta, gamma = -jp.beta(n), -jp.gamma(n - 1)
        rows = zip([ZERO, *table[n]], [*table[n], ZERO], [*table[n - 1], ZERO, ZERO])
        table.append([Poly.sum((shifted, beta * current, gamma * previous))
                      for shifted, current, previous in rows])
    return table[: upto + 1]


def moments_from_jacobi(jp: JacobiParams, upto: int) -> list[Poly]:
    """m_0 ... m_upto as (0,0) entries of powers of the truncated tridiagonal."""
    size = (upto + 1) // 2 + 1  # paths cannot climb above level ceil(n/2)
    beta = [jp.beta(k) for k in range(size)]
    gamma = [jp.gamma(k) for k in range(size)]
    # state: current row vector e_0^T J^k, truncated
    row = [ONE] + [ZERO] * (size - 1)
    moments = [ONE]
    for _ in range(upto):  # entry i of row·J: row[i] beta_i + row[i-1] + row[i+1] gamma_i
        row = [
            Poly.sum((value * b, before, after * g))
            for before, value, after, b, g in zip([ZERO, *row], row, [*row[1:], ZERO], beta, gamma)
        ]
        moments.append(row[0])
    return moments


# -- identities against the operator model -------------------------------------


def _line_model(which: str, upto: int, sign: str) -> tuple[SpaceSpec, OpSpec]:
    """The line (d = 1) with the ±1 involution of sign, truncated at upto + 1,
    and its field operator with x = 1, T = Id: 'alphaq' on the type-B space,
    'qt' on the (q,t) space (Y, whose space refuses the sign '-')."""
    model = {"alphaq": "alpha-q"}.get(which, which)
    return SpaceSpec.diagonal(sign, upto + 1, model), type_b((1,), ((1,),))


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
    """U_n(y t) (a = -1, b = t^2) is divisible by t^n with quotient the (0,t) family.

    The coefficient of y^k in U_n(yt) is u_{n,k}(t) t^k; each is divided by
    t^n symbolically and compared with the (0,t) entry, so a failure names
    its n and k and the first differing monomial.
    """
    if upto > MAX_SUBSTITUTION_N:
        raise ResourceLimitError(f"guarded at n <= {MAX_SUBSTITUTION_N}")
    u_table = polys(al_salam_ismail(), upto)
    qt = qt_poisson()
    zero_q = JacobiParams(lambda n: qt.beta(n).subs(q=0), lambda n: qt.gamma(n).subs(q=0))
    target = polys(zero_q, upto)
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
