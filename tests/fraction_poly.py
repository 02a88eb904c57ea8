"""Reference scalar ring for the tests: ``Poly`` with one ``Fraction`` per term.

``bfock.scalars.Poly`` keeps integer numerators over one denominator under
packed exponent keys.  This class is the plain representation it replaced,
{(e_a, e_q, e_t): Fraction} with no exponent bound, kept as the oracle the
differential test in ``test_scalars.py`` holds ``Poly`` to.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponent = tuple[int, int, int]
RationalLike = Union[Fraction, int]

_VARS = ("a", "q", "t")


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def _sort_key(exp: Exponent) -> tuple[int, int, int, int]:
    # ascending sort with this key == descending graded-lex term order
    return (-(exp[0] + exp[1] + exp[2]), -exp[0], -exp[1], -exp[2])


class FractionPoly:
    """Immutable sparse polynomial in (a, q, t) with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, RationalLike] | None = None):
        canonical: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _as_fraction(coeff)
                if c != 0:
                    canonical[exp] = c
        self.terms = canonical

    @classmethod
    def const(cls, value: RationalLike) -> FractionPoly:
        return cls({(0, 0, 0): _as_fraction(value)})

    @classmethod
    def monomial(cls, coeff: RationalLike, ea: int = 0, eq: int = 0, et: int = 0) -> FractionPoly:
        if min(ea, eq, et) < 0:
            raise ValueError("negative exponents are not representable")
        return cls({(ea, eq, et): _as_fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def _coerce(value) -> FractionPoly:
        if isinstance(value, FractionPoly):
            return value
        return FractionPoly.const(value)

    def __add__(self, other) -> FractionPoly:
        if not isinstance(other, (FractionPoly, Fraction, int)):
            return NotImplemented
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coeff
        return FractionPoly(out)

    __radd__ = __add__

    @staticmethod
    def sum(values: Iterable) -> FractionPoly:
        out: dict[Exponent, Fraction] = {}
        for value in values:
            for exp, coeff in FractionPoly._coerce(value).terms.items():
                out[exp] = out.get(exp, 0) + coeff
        return FractionPoly(out)

    def __sub__(self, other) -> FractionPoly:
        if not isinstance(other, (FractionPoly, Fraction, int)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> FractionPoly:
        if not isinstance(other, (FractionPoly, Fraction, int)):
            return NotImplemented
        return self._coerce(other) + (-self)

    def __neg__(self) -> FractionPoly:
        return FractionPoly({exp: -c for exp, c in self.terms.items()})

    def __mul__(self, other) -> FractionPoly:
        if not isinstance(other, (FractionPoly, Fraction, int)):
            return NotImplemented
        other = self._coerce(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[exp] = out.get(exp, Fraction(0)) + ca * cb
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> FractionPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = FractionPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FractionPoly.const(other)
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def evaluate(self, alpha: RationalLike, q: RationalLike, t: RationalLike = 0) -> Fraction:
        av, qv, tv = _as_fraction(alpha), _as_fraction(q), _as_fraction(t)
        total = Fraction(0)
        for (ea, eq, et), coeff in self.terms.items():
            total += coeff * av**ea * qv**eq * tv**et
        return total

    def eval_float(self, alpha: float, q: float, t: float = 0.0) -> float:
        total = 0.0
        for (ea, eq, et), coeff in self.terms.items():
            total += float(coeff) * alpha**ea * q**eq * t**et
        return total

    def subs(self, alpha=None, q=None, t=None) -> FractionPoly:
        values = (alpha, q, t)
        terms = []
        for exp, coeff in self.terms.items():
            term = FractionPoly.monomial(
                coeff,
                *(e if values[i] is None else 0 for i, e in enumerate(exp)),
            )
            for i, value in enumerate(values):
                if value is not None and exp[i]:
                    term = term * self._coerce(value) ** exp[i]
            terms.append(term)
        return FractionPoly.sum(terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _sort_key(item[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(_VARS, exp)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)
