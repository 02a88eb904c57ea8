"""Exact scalar ring: polynomials in the deformation parameters over the rationals.

Every scalar produced by this package is a ``Poly``: a sparse trivariate
polynomial in the variables ``a`` (the sign-flip weight), ``q`` and ``t``
with rational coefficients.  Plain rationals embed as constant polynomials,
so there is exactly one equality notion everywhere and all identity checks
are bit-exact.

Representation: integer numerators over one denominator, with packed
exponents (after Monagan & Pearce, *Polynomial division using dynamic
arrays, heaps, and packed exponent vectors*, CASC 2007).  A ``Poly`` holds

    _num : dict mapping packed exponent -> nonzero int numerator
    _den : one positive int denominator

and stands for sum(_num[k] * monomial(k)) / _den.  The exponents (e_a, e_q,
e_t) pack into one int with a 21-bit field each, e_a highest, so a monomial
product is one integer add and the arithmetic runs on ints, not on
``Fraction``s.  Each exponent must be below 2^20: the sum of two such fields
stays below 2^21, so a product never carries into the next field, and one
mask test on the top bit of every field of each product key catches an
exponent that left the range; it raises ``ValueError`` rather than wrap.
Every result is kept in normal form: no zero numerator is stored, the gcd of
the numerators and the denominator is 1, and zero is the empty dict over 1.
So equal values have equal representations, which ``==`` and ``hash`` use.
``terms`` builds the familiar dict ``{(e_a, e_q, e_t): Fraction}``.

The canonical textual form sorts monomials in descending graded-lexicographic
order (``a`` before ``q`` before ``t``), e.g. ``t^2 + 2*t + 3``.

A small amount of dense linear algebra over ``Poly`` (and over bare
``Fraction`` entries) lives here as well.  Evaluation at a rational point
has one algorithm: ``mat_to_int`` clears a matrix to integers over one
denominator, and ``Poly.evaluate`` is its 1x1 case.  Spectral facts are
certified exactly: ``is_semidefinite`` runs fraction-free elimination on the
cleared matrix.  How a value is shown (symbolic, rational or float) is the
CLI's concern, not this module's.
Nothing in the library, the CLI or the tests calls the float view
``mat_to_float``: only ``fock``'s float spectral helpers, which the benchmark
traces as ``fock.spectral``, use it, and it is deleted with them.  It imports
numpy when called, so importing this module does not.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

Exponent = tuple[int, int, int]
RationalLike = Union[Fraction, int]
PolyLike = Union["Poly", Fraction, int]

_VARS = ("a", "q", "t")

_FIELD = 21  # bits per packed exponent
_LIMIT = 1 << (_FIELD - 1)  # every exponent is below 2^20
_MASK = (1 << _FIELD) - 1
# the top bit of each field: set in a product key iff that exponent reached 2^20
_OVERFLOW = (_LIMIT << 2 * _FIELD) | (_LIMIT << _FIELD) | _LIMIT


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"not a rational value: {value!r}")


def _pack(ea: int, eq: int, et: int) -> int:
    if not (0 <= ea < _LIMIT and 0 <= eq < _LIMIT and 0 <= et < _LIMIT):
        raise ValueError(f"exponents {(ea, eq, et)} outside [0, 2^20)")
    return (ea << 2 * _FIELD) | (eq << _FIELD) | et


def _unpack(key: int) -> Exponent:
    return (key >> 2 * _FIELD, (key >> _FIELD) & _MASK, key & _MASK)


def _normal(num: dict[int, int], den: int) -> Poly:
    """The Poly num / den in normal form: zeros dropped, gcd 1, zero over 1."""
    if 0 in num.values():
        num = {key: c for key, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())  # den itself when num is empty
        if g != 1:
            num = {key: c // g for key, c in num.items()}
            den //= g
    poly = object.__new__(Poly)
    poly._num = num
    poly._den = den
    return poly


class Poly:
    """Immutable sparse polynomial in (a, q, t) over the rationals."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Exponent, RationalLike] | None = None):
        # reduced fractions over the lcm of their denominators need no gcd pass
        ratios = []
        den = 1
        if terms:
            for exp, coeff in terms.items():
                n, d = _ratio(coeff)
                if n:
                    ratios.append((_pack(*exp), n, d))
                    if d != 1:
                        den = lcm(den, d)
        self._num = {key: n * (den // d) for key, n, d in ratios}
        self._den = den

    @classmethod
    def const(cls, value: RationalLike) -> Poly:
        return cls({(0, 0, 0): value})

    @classmethod
    def monomial(cls, coeff: RationalLike, ea: int = 0, eq: int = 0, et: int = 0) -> Poly:
        if min(ea, eq, et) < 0:
            raise ValueError("negative exponents are not representable")
        return cls({(ea, eq, et): coeff})

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """A new {(e_a, e_q, e_t): Fraction} dict of the nonzero terms."""
        den = self._den
        return {_unpack(key): Fraction(c, den) for key, c in self._num.items()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: PolyLike) -> Poly:
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    def __add__(self, other: PolyLike) -> Poly:
        if not isinstance(other, Poly):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = Poly.const(other)
        if not other._num:
            return self
        if not self._num:
            return other
        return Poly.sum((self, other))

    __radd__ = __add__

    @staticmethod
    def sum(values: Iterable[PolyLike]) -> Poly:
        """Sum of many polynomials over the lcm of their denominators, normalised once."""
        out: dict[int, int] = {}
        den = 1
        for value in values:
            p = Poly._coerce(value)
            if den % p._den:  # widen the running denominator to the lcm
                widen = p._den // gcd(den, p._den)
                out = {key: c * widen for key, c in out.items()}
                den *= widen
            scale = den // p._den
            get = out.get
            if scale == 1:
                for key, c in p._num.items():
                    out[key] = get(key, 0) + c
            else:
                for key, c in p._num.items():
                    out[key] = get(key, 0) + c * scale
        return _normal(out, den)

    def __sub__(self, other: PolyLike) -> Poly:
        if not isinstance(other, (Poly, Fraction, int)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other: PolyLike) -> Poly:
        if not isinstance(other, (Poly, Fraction, int)):
            return NotImplemented
        return self._coerce(other) + (-self)

    def __neg__(self) -> Poly:
        return _normal({key: -c for key, c in self._num.items()}, self._den)

    def __mul__(self, other: PolyLike) -> Poly:
        if not isinstance(other, Poly):
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            n, d = _ratio(other)
            return _normal({key: c * n for key, c in self._num.items()}, self._den * d)
        out: dict[int, int] = {}
        get = out.get
        right = other._num.items()
        for ka, ca in self._num.items():
            for kb, cb in right:
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        overflow = next(filter(_OVERFLOW.__and__, out), None)
        if overflow is not None:
            raise ValueError(f"product exponent {_unpack(overflow)} reaches 2^20")
        return _normal(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no squaring after the last bit: it could overflow for nothing
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den))

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, alpha: RationalLike, q: RationalLike, t: RationalLike = 0) -> Fraction:
        """Exact evaluation; a ring homomorphism Poly -> Fraction (``mat_to_int`` on [[self]])."""
        m, den = mat_to_int([[self]], alpha, q, t)
        return Fraction(m[0][0], den)

    def eval_float(self, alpha: float, q: float, t: float = 0.0) -> float:
        den = self._den
        total = 0.0
        for key, c in self._num.items():
            ea, eq, et = _unpack(key)
            # int / int is correctly rounded, so c / den == float(Fraction(c, den))
            total += c / den * alpha**ea * q**eq * t**et
        return total

    def subs(
        self,
        alpha: PolyLike | None = None,
        q: PolyLike | None = None,
        t: PolyLike | None = None,
    ) -> Poly:
        """Substitute polynomials (or rationals) for chosen variables."""
        values = (alpha, q, t)
        terms = []
        for exp, coeff in self.terms.items():
            term = Poly.monomial(
                coeff,
                *(e if values[i] is None else 0 for i, e in enumerate(exp)),
            )
            for i, value in enumerate(values):
                if value is not None and exp[i]:
                    term = term * self._coerce(value) ** exp[i]
            terms.append(term)
        return Poly.sum(terms)

    # -- canonical form ------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """The terms in descending graded-lex order: by degree, then by packed key."""
        keys = sorted(self._num, key=lambda key: (sum(_unpack(key)), key), reverse=True)
        return [(_unpack(key), Fraction(self._num[key], self._den)) for key in keys]

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(_VARS, exp) if e]
            mag = str(coeff).lstrip("-")
            body = "*".join(factors if factors and mag == "1" else [mag, *factors])
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        text = " ".join(parts)  # the first term takes its sign without the space
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Poly({self})"


ZERO = Poly()
ONE = Poly.const(1)
ALPHA = Poly.monomial(1, ea=1)
Q = Poly.monomial(1, eq=1)
T = Poly.monomial(1, et=1)


def qint(n: int) -> Poly:
    """[n]_q = 1 + q + ... + q^(n-1); qint(0) = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Poly({(0, i, 0): 1 for i in range(n)})


def qtint(n: int) -> Poly:
    """[n]_{q,t} = sum_{i=1..n} q^(i-1) t^(n-i), homogeneous of degree n-1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Poly({(0, i - 1, n - i): 1 for i in range(1, n + 1)})


# -- dense matrices over Poly -------------------------------------------------

Matrix = list[list[Poly]]


def identity_matrix(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def _shape(m: Matrix) -> tuple[int, int]:
    """(rows, columns) of a matrix with at least one row, all of one length."""
    if not m or any(len(row) != len(m[0]) for row in m):
        raise ValueError("a matrix needs at least one row and rows of one length")
    return len(m), len(m[0])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a·b, each entry one ``Poly.sum`` over its nonzero products."""
    if _shape(a)[1] != _shape(b)[0]:
        raise ValueError(f"cannot multiply a {_shape(a)} matrix by a {_shape(b)} one")
    columns = [[(k, x) for k, x in enumerate(col) if not x.is_zero] for col in zip(*b)]
    return [[Poly.sum(row[k] * x for k, x in col if not row[k].is_zero) for col in columns]
            for row in a]


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    (ra, ca), (rb, cb) = _shape(a), _shape(b)
    out = zero_matrix(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            if a[i][j].is_zero:
                continue
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a[i][j] * b[k][l]
    return out


def mat_transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def mat_to_float(a: Matrix, alpha: float, q: float, t: float = 0.0) -> np.ndarray:
    """Float view of a at a point, for ``fock``'s float spectral helpers only; imports numpy on call."""
    import numpy as np

    return np.array(
        [[x.eval_float(alpha, q, t) for x in row] for row in a], dtype=np.float64
    )


# -- exact spectral certificates ------------------------------------------------

IntMatrix = list[list[int]]


def mat_to_int(
    a: Matrix, alpha: RationalLike, q: RationalLike, t: RationalLike = 0
) -> tuple[IntMatrix, int]:
    """(m, den): the integer matrix m and the positive int den with a(alpha, q, t) = m / den.

    With each value n/d and e_top the variable's top exponent over the whole
    matrix, a term's power n^e becomes the integer n^e d^(e_top - e) over the
    common d^e_top, so one power table per variable serves every entry and the
    sums run on ints.  The numerators go over the lcm of the entries' ``_den``,
    then one gcd pass makes den the lcm of the reduced entry denominators.
    ``Poly.evaluate`` is the 1x1 case.
    """
    keys = {key for row in a for x in row for key in x._num}
    value, scale = dict.fromkeys(keys, 1), 1
    for (n, d), shift in zip((_ratio(alpha), _ratio(q), _ratio(t)), (2 * _FIELD, _FIELD, 0)):
        top = max(((key >> shift) & _MASK for key in keys), default=0)
        power = [n**e * d ** (top - e) for e in range(top + 1)]
        for key in keys:
            value[key] *= power[(key >> shift) & _MASK]
        scale *= d**top
    common = lcm(*(x._den for row in a for x in row))
    m = [[sum(c * value[key] for key, c in x._num.items()) * (common // x._den) for x in row]
         for row in a]
    g = gcd(common * scale, *(v for row in m for v in row))
    return [[v // g for v in row] for row in m], common * scale // g


def is_semidefinite(m: IntMatrix, definite: bool = False) -> bool:
    """Whether the symmetric integer matrix m is positive semidefinite (definite).

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) with symmetric
    pivoting on the largest remaining diagonal entry (Golub & Van Loan,
    *Matrix Computations*, section 4.2).  After a step with pivot p, the
    remaining block is p times the Schur complement of the leading block, and
    the division by the previous pivot is exact.  A Schur complement is
    semidefinite iff the matrix is (given a definite leading block), so: a
    negative diagonal entry refutes, and a zero top diagonal entry is accepted
    only when the whole remaining block is zero, and only for semidefinite.
    """
    size = len(m)
    if any(len(row) != size for row in m) or not is_symmetric(m):
        raise ValueError("a semidefinite test needs a symmetric matrix")
    a = [list(row) for row in m]
    previous = 1
    for s in range(size):
        diagonal = [a[i][i] for i in range(s, size)]
        if min(diagonal) < 0:
            return False
        top = max(diagonal)
        if top == 0:
            return not definite and not any(any(row[s:]) for row in a[s:])
        p = s + diagonal.index(top)
        a[s], a[p] = a[p], a[s]
        for row in a:
            row[s], row[p] = row[p], row[s]
        pivot_row = a[s]
        for row in a[s + 1 :]:
            lead = row[s]
            for j in range(s + 1, size):
                row[j] = (row[j] * top - lead * pivot_row[j]) // previous
        previous = top
    return True


def norm_at_most(
    a: Matrix, bound: RationalLike, alpha: RationalLike, q: RationalLike, t: RationalLike = 0
) -> bool:
    """Whether the spectral norm of a(alpha, q, t) is at most bound, exactly.

    With a = m / den and bound * den = nb / db, this is nb^2 I - db^2 m^T m >= 0.
    """
    if bound < 0:
        return False
    m, den = mat_to_int(a, alpha, q, t)
    nb, db = _ratio(_as_fraction(bound) * den)
    cols = list(zip(*m))
    return is_semidefinite([
        [(nb * nb if i == j else 0) - db * db * sum(x * y for x, y in zip(u, v))
         for j, v in enumerate(cols)]
        for i, u in enumerate(cols)
    ])


# -- rational vectors and matrices (coordinates of H and operators on it) ----

FracVector = tuple[Fraction, ...]
FracMatrix = tuple[FracVector, ...]


def frac_vector(entries: Sequence[RationalLike]) -> FracVector:
    return tuple(_as_fraction(x) for x in entries)


def frac_matrix(rows: Sequence[Sequence[RationalLike]]) -> FracMatrix:
    mat = tuple(frac_vector(row) for row in rows)
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square")
    return mat


def frac_identity(d: int) -> FracMatrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)
    )


def frac_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def frac_mat_vec(m: FracMatrix, v: Sequence[Fraction]) -> FracVector:
    return tuple(frac_dot(row, v) for row in m)


def frac_mat_mul(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    bt = tuple(zip(*b))
    return tuple(tuple(frac_dot(row, col) for col in bt) for row in a)


def is_symmetric(m: Sequence[Sequence[RationalLike]]) -> bool:
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))
