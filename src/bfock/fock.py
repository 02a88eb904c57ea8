"""Truncated algebraic Fock space over a rational coefficient space.

The base space H is a d-dimensional rational vector space carrying a
symmetric involution J with J^2 = I (default: a diagonal ±1 signature).
``SpaceSpec.model`` is the one switch between the two deformed spaces:
``"alpha-q"``, the type-B (α,q)-Fock space, and ``"qt"``, Blitvić's
(q,t)-Fock space, which has no involution term and so exists only for J = I.
Every symmetrizer, inner product and operator reads the model from the space
it acts on, so an operator of one model cannot meet a space of the other.
A :class:`FockVector` stores a finite linear combination of basis words
(tuples over ``range(d)``, length at most the truncation) with ``Poly``
coefficients, so every operator identity can be asserted exactly.

Every ``Poly``-level map is a word map (a basis word's weighted images) with
one gather: ``_images`` applies it to a vector, ``_level_matrix`` assembles its
level matrix, and each output word or entry is summed once.  A signed
permutation w in B_n moves slot k of a level-n word to slot |w(k)|, through J
when w(k) < 0; a level's slot table holds each element's slot sources, mask of
slots sent through J, and exponent.  A basis word is spread through J once per
mask and each element only permutes the spreads, for every symmetrizer (matrix,
vector action, both models).  The generators replay a word letter by letter
and read J through ``SpaceSpec.involve_basis``, never the slot table:
``r_operator`` replays its generator words on (word, coefficient) pairs
through them, so the factorization P(n) = (P(n-1) ⊗ I) R(n) holds two
independent paths against each other.  ``tests/oracles.py`` keeps the
generators' action on whole vectors (``act_generator``, ``act_word``) as the
oracle of that replay.  ``r_operator``, like the vector formulas and the
corollaries of ``moments``, is a type-B result and refuses a (q,t) space
through ``_require_type_b``.

Operators follow the right-creator convention: creation appends at the
right end of a word, the free right annihilator removes the rightmost slot,
and products apply their rightmost factor first.  An ``OpSpec`` refuses at
construction what no space can apply, through ``_check_point`` for one point's
x, T and λ (as ``moments.MomentProblem`` does); ``check_dimensions`` adds only
the fit to a space.

One kernel applies every operator, on Python ints: a vector is a dict
{word: {packed exponent: int numerator}} over one denominator, as in
``scalars``.  Each factor clears its own denominators once: x, T and lambda
by their lcm L, J by its integer form delta J, and every term the factor
makes carries L delta, so the product of factors divides out once, when each
word's ``Poly`` is built at the end.  ``_operator_walk`` takes one step of
it per edge of ``_sweep``'s walk over the prefixes of the products of one
operator per point, without leaving ints: ``apply_operator`` walks one
operator, ``vacuum_expectation`` and ``moments.eps_word_vector`` one product,
and ``moments.eps_word_vectors`` every eps operator at every point.  The
annihilator (the row x, appending nothing) and the gauge (the rows T_m,
appending m) share the slot loop; the space's model sets only the weight
of the slot-k term of a length-n word, read off a row and J·row (J is
symmetric, so (TJ)[m] = J T_m):

* type B:  q^(n-k) on x plus a q^(n+k-2) on Jx (on T_m and J T_m for the gauge);
* (q,t):   q^(n-k) t^(k-1) on x (on T_m), with no involution term.

Each factor computes its integer rows and J·rows once, and each slot adds a
packed exponent.  The Poly-level path, a ``Poly`` weight per (word, slot,
row) term, stays as the tests' oracle in ``tests/oracles.py``; it clears no
denominators, so a wrong scale here cannot cancel out of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .coxeter import Window, enumerate_group
from .errors import ResourceLimitError, TruncationError
from .scalars import (
    ONE,
    Exponent,
    Poly,
    PolyLike,
    RationalLike,
    FracMatrix,
    FracVector,
    Matrix,
    ZERO,
    _OVERFLOW,
    _as_fraction,
    _normal,
    _pack,
    _unpack,
    frac_identity,
    frac_mat_mul,
    frac_mat_vec,
    frac_matrix,
    frac_vector,
    is_symmetric,
    mat_to_float,
    mat_transpose,
    zero_matrix,
)

MAX_MATRIX_DIM = 4096

Word = tuple[int, ...]
# a level's elements: (take, flipped mask, exponent), see _slot_entry
Weights = list[tuple[Callable[[Word], Word], int, Exponent]]


@dataclass(frozen=True)
class SpaceSpec:
    """Dimension, involution, truncation and model ("alpha-q", or "qt" with J = I) of the space."""

    d: int
    involution: FracMatrix
    truncation: int
    model: str = "alpha-q"

    def __post_init__(self) -> None:
        if self.model not in ("alpha-q", "qt"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.d < 1 or self.truncation < 1:
            raise ValueError("dimension and truncation must be positive")
        if len(self.involution) != self.d or any(len(row) != self.d for row in self.involution):
            raise ValueError("involution dimension mismatch")
        j = frac_matrix(self.involution)  # a float raises TypeError here
        if not is_symmetric(j):
            raise ValueError("involution must be symmetric")
        if frac_mat_mul(j, j) != frac_identity(self.d):
            raise ValueError("involution must square to the identity")
        if self.model == "qt" and j != frac_identity(self.d):
            raise ValueError("(q,t) model requires the trivial involution")

    @classmethod
    def diagonal(cls, signature: str, truncation: int, model: str = "alpha-q") -> SpaceSpec:
        """Signature string over '+'/'-', e.g. '+-' for diag(1, -1)."""
        signs = []
        for ch in signature:
            if ch not in "+-":
                raise ValueError(f"bad signature character {ch!r}")
            signs.append(Fraction(1 if ch == "+" else -1))
        d = len(signs)
        j = tuple(
            tuple(signs[i] if i == k else Fraction(0) for k in range(d))
            for i in range(d)
        )
        return cls(d=d, involution=j, truncation=truncation, model=model)

    def involve_basis(self, letter: int) -> FracVector:
        """J e_letter as a coordinate vector (column of J)."""
        return tuple(row[letter] for row in self.involution)

    def involve(self, vec: Sequence[Fraction]) -> FracVector:
        return frac_mat_vec(self.involution, vec)


class FockVector:
    """Sparse graded vector: basis words with Poly coefficients."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: SpaceSpec, coeffs: dict[Word, PolyLike] | None = None):
        self.space = space
        canonical: dict[Word, Poly] = {}
        if coeffs:
            for word, value in coeffs.items():
                poly = value if isinstance(value, Poly) else Poly.const(value)
                if poly.is_zero:
                    continue
                if len(word) > space.truncation:
                    raise TruncationError(
                        f"word of length {len(word)} exceeds truncation {space.truncation}"
                    )
                if any(not 0 <= letter < space.d for letter in word):
                    raise ValueError(f"letter out of range in word {word}")
                canonical[word] = poly
        self.coeffs = canonical

    @classmethod
    def vacuum(cls, space: SpaceSpec) -> FockVector:
        return cls(space, {(): ONE})

    @classmethod
    def basis(cls, space: SpaceSpec, word: Word) -> FockVector:
        return cls(space, {tuple(word): ONE})

    def coeff(self, word: Word) -> Poly:
        return self.coeffs.get(tuple(word), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def levels(self) -> set[int]:
        return {len(word) for word in self.coeffs}

    def __add__(self, other: FockVector) -> FockVector:
        self._check_space(other)
        return _collect(self.space, chain(self.coeffs.items(), other.coeffs.items()))

    def __sub__(self, other: FockVector) -> FockVector:
        return self + (-1) * other

    def __mul__(self, scalar: PolyLike) -> FockVector:
        return FockVector(
            self.space, {word: coeff * scalar for word, coeff in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def _check_space(self, other: FockVector) -> None:
        if self.space != other.space:
            raise ValueError("FockVectors live on different spaces")

    def __repr__(self) -> str:
        if not self.coeffs:
            return "FockVector(0)"
        parts = [
            f"({coeff})|{''.join(str(letter + 1) for letter in word) or 'Ω'}⟩"
            for word, coeff in sorted(self.coeffs.items())
        ]
        return "FockVector(" + " + ".join(parts) + ")"


# -- generator and group actions ----------------------------------------------


def _collect(space: SpaceSpec, terms: Iterable[tuple[Word, Poly]]) -> FockVector:
    """Gather the terms by word and sum each word's terms once."""
    grouped: dict[Word, list[Poly]] = {}
    for word, value in terms:
        grouped.setdefault(word, []).append(value)
    return FockVector(space, {word: Poly.sum(values) for word, values in grouped.items()})


# a word-level linear map: a basis word's images, each image word once
Column = Callable[[Word], Iterable[tuple[Word, PolyLike]]]


def _images(column: Column, v: FockVector) -> FockVector:
    """The word map applied to v: every word's images times its coefficient, gathered once."""
    return _collect(v.space, (
        (image, coeff * value) for word, coeff in v.coeffs.items() for image, value in column(word)
    ))


def _generator_images(i: int, word: Word, space: SpaceSpec) -> list[tuple[Word, RationalLike]]:
    """pi_i on a basis word of length > i: J on slot 1 for i = 0 (read through
    ``involve_basis``), the swap of slots i and i + 1 otherwise."""
    if i == 0:
        return [((letter,) + word[1:], entry)
                for letter, entry in enumerate(space.involve_basis(word[0])) if entry]
    return [(word[: i - 1] + (word[i], word[i - 1]) + word[i + 1 :], 1)]


def _slot_entry(window: Window) -> tuple[Callable[[Word], Word], int]:
    """(take, flipped) of a signed permutation: take(word)[s] is the letter of
    the source slot that moves to slot s, and bit k of flipped marks a source
    slot k that goes through J (w(k) < 0)."""
    sources, flipped = [0] * len(window), 0
    for k, target in enumerate(window):
        sources[abs(target) - 1] = k
        flipped |= (target < 0) << k
    return (itemgetter(*sources) if len(window) > 1 else tuple), flipped  # n <= 1: identity


def _involution_columns(space: SpaceSpec) -> list[list[tuple[int, RationalLike]]]:
    """Nonzero entries of J e_letter (J's symmetric row) per letter; integral ones as ints."""
    return [[(m, e.numerator if e.denominator == 1 else e) for m, e in enumerate(row) if e]
            for row in space.involution]


def _spread(word: Word, flipped: int, columns: list) -> list[tuple[Word, RationalLike]]:
    """The word with every flipped slot sent through J, before any slot moves: one
    word with ±1 for a signature, several for a non-diagonal J."""
    choices = [columns[c] if flipped >> k & 1 else ((c, 1),) for k, c in enumerate(word)]
    return [(tuple(letter for letter, _ in picks), prod(entry for _, entry in picks))
            for picks in product(*choices)]


def _level_weights(n: int, model: str) -> Weights:
    """(take, flipped, exponent) of every element in the model's level-n
    symmetrizer, in ``enumerate_group`` order.

    alpha-q: a^l1 q^l2 over B_n.  qt: t^C(n,2) P^(n)_{0, q/t}, the l1 = 0 part
    as q^l2 t^(C(n,2) - l2), a polynomial since l2 <= C(n,2).
    """
    elements = [(r.window, r.l1, r.l2) for r in enumerate_group(n)]
    if model == "qt":
        top = n * (n - 1) // 2
        return [(*_slot_entry(window), (0, l2, top - l2))
                for window, l1, l2 in elements if l1 == 0]
    return [(*_slot_entry(window), (l1, l2, 0)) for window, l1, l2 in elements]


def _symmetrized_word(word: Word, weights: Weights, columns: list) -> list[tuple[Word, Poly]]:
    """Weighted images of a basis word, each image's Poly built once.
    The word is spread once per flipped mask; each element permutes the spreads."""
    spreads: dict[int, list[tuple[Word, RationalLike]]] = {}
    gathered: dict[Word, dict[Exponent, RationalLike]] = {}
    for take, flipped, key in weights:
        spread = spreads.get(flipped)
        if spread is None:
            spread = spreads[flipped] = _spread(word, flipped, columns)
        for source, coeff in spread:
            entry = gathered.setdefault(take(source), {})
            entry[key] = entry.get(key, 0) + coeff
    return [(image, Poly(entry)) for image, entry in gathered.items()]


def basis_words(d: int, n: int) -> list[Word]:
    return list(product(range(d), repeat=n))


def _require_type_b(space: SpaceSpec, name: str) -> None:
    """name is a type-B result (the recursion factor, the vector formulas, the
    corollaries): raise ValueError on a (q,t) space."""
    if space.model != "alpha-q":
        raise ValueError(f"{name} is defined on the type-B (alpha-q) space only")


def _guard_matrix_dim(d: int, n: int) -> None:
    if d**n > MAX_MATRIX_DIM:
        raise ResourceLimitError(f"matrix dimension d^n = {d**n} exceeds {MAX_MATRIX_DIM}")


def _level_matrix(column: Column, d: int, n_in: int, n_out: int) -> Matrix:
    """Matrix (rows: level-n_out words, cols: level-n_in words) of a word map."""
    _guard_matrix_dim(d, max(n_in, n_out))
    rows = {word: k for k, word in enumerate(basis_words(d, n_out))}
    cols = basis_words(d, n_in)
    out = zero_matrix(len(rows), len(cols))
    for j, word in enumerate(cols):
        for image, value in column(word):
            out[rows[image]][j] = value
    return out


def matrix_of_level_map(
    fn: Callable[[FockVector], FockVector], space: SpaceSpec, n_in: int, n_out: int
) -> Matrix:
    """Matrix (rows: level-n_out words, cols: level-n_in words) of a level map."""
    return _level_matrix(
        lambda word: fn(FockVector.basis(space, word)).coeffs.items(), space.d, n_in, n_out
    )


def symmetrizer(n: int, space: SpaceSpec) -> Matrix:
    """The space's level-n symmetrizer as a d^n matrix: sum_sigma a^l1 q^l2 sigma
    for alpha-q, t^C(n,2) P^(n)_{0, q/t} for qt (see _level_weights)."""
    if n < 0:
        raise ValueError(f"level {n} is negative")
    if n > space.truncation:
        raise ValueError(f"level {n} exceeds truncation {space.truncation}")
    _guard_matrix_dim(space.d, n)  # before B_n is enumerated
    weights, columns = _level_weights(n, space.model), _involution_columns(space)
    return _level_matrix(lambda word: _symmetrized_word(word, weights, columns), space.d, n, n)


def r_operator(n: int, space: SpaceSpec) -> Matrix:
    """The recursion factor as displayed, 2n weighted generator words: the
    q-weighted cycle words and the sign-flip branch.

    R = 1 + sum_{k=1..n-1} q^k pi_{n-1}···pi_{n-k}
        + a q^(n-1) pi_{n-1}···pi_1 pi_0 (1 + sum_{k=1..n-1} q^k pi_1···pi_k)

    Each basis word is replayed through every generator word as (word,
    coefficient) pairs, rightmost generator first, by ``_generator_images``
    (every index is below n, so no word is too short for its generator);
    each image gathers its exponents and builds its Poly once, as in
    ``_symmetrized_word``.
    """
    _require_type_b(space, "r_operator")
    if not 1 <= n <= space.truncation:
        raise ValueError(f"level {n} out of range")
    flip = [*range(n - 1, 0, -1), 0]
    words = [((0, k, 0), [*range(n - 1, n - k - 1, -1)]) for k in range(n)]
    words += [((1, n - 1 + k, 0), [*flip, *range(1, k + 1)]) for k in range(n)]

    def column(word: Word) -> list[tuple[Word, Poly]]:
        gathered: dict[Word, dict[Exponent, RationalLike]] = {}
        for key, gens in words:
            terms: list[tuple[Word, RationalLike]] = [(word, 1)]
            for g in reversed(gens):
                terms = [(image, c * e) for source, c in terms
                         for image, e in _generator_images(g, source, space)]
            for image, c in terms:
                entry = gathered.setdefault(image, {})
                entry[key] = entry.get(key, 0) + c
        return [(image, Poly(entry)) for image, entry in gathered.items()]

    return _level_matrix(column, space.d, n, n)


# -- operators -----------------------------------------------------------------


@dataclass(frozen=True)
class OpSpec:
    """An operator on the Fock space by kind and parameters, refused at construction if no space can apply it.

    Kinds: create, annihilate, gauge, b (= annihilate + create + gauge + λ·I).  The model
    of the space the operator acts on sets its slot weight: on a (q,t) space, b with
    λ = 0 is the (q,t) field operator Y.  ``check_dimensions`` checks the fit to a space's d.
    """

    kind: str
    x: FracVector | None = None
    t: FracMatrix | None = None
    lam: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.kind not in ("create", "annihilate", "gauge", "b"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.x is None and self.kind != "gauge":
            raise ValueError(f"{self.kind}: the vector x is missing")
        if self.t is None and self.kind in ("gauge", "b"):
            raise ValueError(f"{self.kind}: the coefficient operator T is missing")
        if self.x is not None and self.kind == "gauge":
            raise ValueError(f"{self.kind}: reads no vector x")
        if self.t is not None and self.kind in ("create", "annihilate"):
            raise ValueError(f"{self.kind}: reads no coefficient operator T")
        if self.lam and self.kind != "b":
            raise ValueError(f"{self.kind}: reads no shift lambda, got {self.lam}")
        _check_point(self.x or (), self.t or (), self.lam)


def _check_point(x: Sequence, t: Sequence[Sequence], lam: RationalLike) -> None:
    """TypeError unless each entry is an int or a Fraction, ValueError unless T is square, then symmetric."""
    frac_vector(x)
    _as_fraction(lam)
    if not is_symmetric(frac_matrix(t)):
        raise ValueError("gauge coefficient operator must be symmetric")


def create(x: Sequence[Fraction]) -> OpSpec:
    return OpSpec("create", x=frac_vector(x))


def annihilate(x: Sequence[Fraction]) -> OpSpec:
    return OpSpec("annihilate", x=frac_vector(x))


def gauge(t: Sequence[Sequence[Fraction]]) -> OpSpec:
    return OpSpec("gauge", t=frac_matrix(t))


def type_b(
    x: Sequence[Fraction], t: Sequence[Sequence[Fraction]], lam: Fraction | int = 0
) -> OpSpec:
    return OpSpec("b", x=frac_vector(x), t=frac_matrix(t), lam=_as_fraction(lam))


def check_dimensions(op: OpSpec, space: SpaceSpec) -> None:
    """Raise ValueError unless x and T (square, as ``OpSpec`` checked) fit the space's d."""
    if op.x is not None and len(op.x) != space.d:
        raise ValueError(f"{op.kind}: vector has {len(op.x)} coordinates, the space has d = {space.d}")
    if op.t is not None and len(op.t) != space.d:
        raise ValueError(f"{op.kind}: coefficient operator is not {space.d}x{space.d}")


# a vector on the operator kernel: word -> {packed exponent: int numerator},
# over one denominator kept beside it
_IntVector = dict[Word, dict[int, int]]

_A, _Q, _T = _pack(1, 0, 0), _pack(0, 1, 0), _pack(0, 0, 1)


def _scaled(values: Iterable[Fraction], common: int) -> list[int]:
    """The values times common, a multiple of each denominator, as ints."""
    return [v.numerator * (common // v.denominator) for v in values]


def _int_step(
    op: OpSpec, vec: _IntVector, space: SpaceSpec, j_int: list[list[int]], delta: int,
    horizon: int | None,
) -> tuple[_IntVector, int]:
    """(op·vec scaled, scale): op applied to vec with every term times L·delta.

    L clears x, T and lambda, delta J is the integer form of J, and each term
    carries both: L delta x for a creation, L delta lambda, and at slot k of a
    length-n word L delta row (q^(n-k), times t^(k-1) on a (q,t) space) and
    (delta J)(L row) (a q^(n+k-2), type B only).  Words longer than the
    horizon (if given) are never formed.
    """
    qt = space.model == "qt"
    x, t = op.x or (), op.t or ()
    scale = lcm(*(v.denominator for v in chain(x, *t)), op.lam.denominator)
    x_int = _scaled(x, scale)
    rows = [((), x_int)] if op.kind in ("annihilate", "b") else []  # the annihilator appends nothing
    if op.kind in ("gauge", "b"):
        rows += [((m,), _scaled(row, scale)) for m, row in enumerate(t)]  # the gauge appends m
    # per slot weight (the row: 0, J·row: 1), the (suffix, weights by letter) pairs
    slots: list[list[tuple[Word, list[int]]]] = [
        [(suffix, [delta * v for v in row]) for suffix, row in rows],
        [] if qt else [(suffix, [sum(a * b for a, b in zip(j_row, row)) for j_row in j_int])
                       for suffix, row in rows],
    ]
    shortening = [[(suffix, weights) for suffix, weights in weighted if not suffix]
                  for weighted in slots]
    creating = op.kind in ("create", "b")
    creates = [(letter, delta * v) for letter, v in enumerate(x_int) if v] if creating else []
    lam = op.lam.numerator * (scale // op.lam.denominator) * delta

    out: _IntVector = {}

    def scatter(word: Word, terms, w: int) -> None:
        target = out.get(word)
        if target is None:
            out[word] = {key: c * w for key, c in terms}
            return
        get = target.get
        for key, c in terms:
            target[key] = get(key, 0) + c * w

    for word, num in vec.items():
        n = len(word)
        items = num.items()
        if creating and (horizon is None or n < horizon):
            if n == space.truncation:
                raise TruncationError("creation at the truncation level")
            for letter, w in creates:
                scatter(word + (letter,), items, w)
        if lam and (horizon is None or n <= horizon):
            scatter(word, items, lam)
        # an annihilator term (no suffix) is one letter shorter, a gauge term is not
        if horizon is None or n <= horizon:
            live = slots
        else:
            live = shortening if n == horizon + 1 else ()
        for k in range(1, n + 1):
            letter, reduced = word[k - 1], word[: k - 1] + word[k:]
            shifts = ((n - k) * _Q + (k - 1) * _T if qt else (n - k) * _Q, _A + (n + k - 2) * _Q)
            for shift, weighted in zip(shifts, live):
                moved = None
                for suffix, weights in weighted:
                    w = weights[letter]
                    if w:
                        if moved is None:
                            moved = [(key + shift, c) for key, c in items]
                        scatter(reduced + suffix, moved, w)
    for num in out.values():
        overflow = next(filter(_OVERFLOW.__and__, num), None)
        if overflow is not None:
            raise ValueError(f"exponent {_unpack(overflow)} reaches 2^20")
    return out, scale * delta


def _int_involution(space: SpaceSpec) -> tuple[list[list[int]], int]:
    """(delta J, delta): J over the lcm delta of its denominators, as ints."""
    delta = lcm(*(e.denominator for row in space.involution for e in row))
    return [_scaled(row, delta) for row in space.involution], delta


def _poly_vector(space: SpaceSpec, vec: _IntVector, den: int) -> FockVector:
    """The kernel's int vector over den as a FockVector, each word's Poly built once."""
    return FockVector(space, {word: _normal(num, den) for word, num in vec.items()})


_State = TypeVar("_State")
_Letter = TypeVar("_Letter")
_Leaf = TypeVar("_Leaf")


def _sweep(
    alphabets: Sequence[Sequence[_Letter]],
    state: _State | None,
    step: Callable[[int, _Letter, _State], _State | None],
    leaf: Callable[[_State | None], _Leaf],
    j: int = 0,
) -> Iterator[_Leaf]:
    """leaf(state) for every word over the alphabets (alphabets[j - 1] holds the letters
    at point j), in ``product(*alphabets)`` order, from one depth-first walk over the word
    prefixes: a prefix's state is step(j, letter, state) of its parent's, so words that
    share a prefix share its steps.  A step that returns None (a zero state) ends the walk
    below it: each of the ∏ len(alphabets[j:]) words there yields leaf(None).  Below a
    prefix of length j the walk calls itself, so no closure makes a reference cycle.
    """
    if state is None:
        for _ in range(prod(map(len, alphabets[j:]))):
            yield leaf(None)
    elif j == len(alphabets):
        yield leaf(state)
    else:
        *letters, last = alphabets[j]
        for letter in letters:
            yield from _sweep(alphabets, step(j + 1, letter, state), step, leaf, j + 1)
        subtree = _sweep(alphabets, step(j + 1, last, state), step, leaf, j + 1)
        del state  # so a fold over one word keeps one state alive, not n
        yield from subtree


def _operator_walk(
    alphabets: Sequence[Sequence[OpSpec]], v: FockVector, horizon: int | None = None
) -> Iterator[FockVector]:
    """The product of one operator per point applied to v, point 1 first, for
    every word over the alphabets in ``product`` order: one ``_int_step`` per
    edge of ``_sweep``'s walk.  Each operator is checked once, v's numerators
    are brought over their lcm once, every step multiplies the denominator by
    its L·delta, and each leaf builds its words' Polys once.  With a horizon
    h, the step at point j of n forms no word longer than h + n - j.
    """
    space, n = v.space, len(alphabets)
    for op in chain(*alphabets):
        check_dimensions(op, space)
    den = lcm(*(p._den for p in v.coeffs.values()))
    vec = {word: {key: c * (den // p._den) for key, c in p._num.items()}
           for word, p in v.coeffs.items()}
    j_int, delta = _int_involution(space)

    def step(j: int, op: OpSpec, state: tuple[_IntVector, int]) -> tuple[_IntVector, int] | None:
        out, scale = _int_step(op, state[0], space, j_int, delta,
                               None if horizon is None else horizon + n - j)
        return (out, state[1] * scale) if out else None

    return _sweep(alphabets, (vec, den), step,
                  lambda state: FockVector(space) if state is None else _poly_vector(space, *state))


def apply_operator(op: OpSpec, v: FockVector, horizon: int | None = None) -> FockVector:
    """op applied to v; words longer than the horizon (if given) are never formed."""
    return next(_operator_walk([(op,)], v, horizon))


# -- inner products and the vacuum state --------------------------------------


def apply_symmetrizer(v: FockVector) -> FockVector:
    """Level-wise application of the symmetrizer of v's space."""
    weights = {n: _level_weights(n, v.space.model) for n in {0, *v.levels()}}
    columns = _involution_columns(v.space)
    return _images(lambda word: _symmetrized_word(word, weights[len(word)], columns), v)


def inner(u: FockVector, v: FockVector) -> Poly:
    """The deformed inner product of the vectors' space: the word-orthonormal
    pairing of u with the space's symmetrizer applied to v."""
    u._check_space(v)
    v = apply_symmetrizer(v)
    return Poly.sum(coeff * v.coeffs[word] for word, coeff in u.coeffs.items() if word in v.coeffs)


def vacuum_expectation(ops: Sequence[OpSpec], space: SpaceSpec) -> Poly:
    """Vacuum coefficient of ops[0]···ops[-1] Ω (rightmost factor applied first).

    Every factor changes a word's length by at most one, so a word longer than
    the number of factors still to apply can never return to Ω: each factor
    runs with that number as its horizon.
    """
    if len(ops) > space.truncation:
        raise TruncationError("more operator factors than the truncation allows")
    return next(_operator_walk([(op,) for op in reversed(ops)], FockVector.vacuum(space), 0)).coeff(())


# -- float spectral values ------------------------------------------------------
#
# verify and the tests certify Gram positivity and the norm bounds of R and of
# the gauge exactly (through scalars.is_semidefinite).  These floats stay only
# because the benchmark's tracer wraps them as its fock.spectral metric.


def gram_min_eigenvalue(space: SpaceSpec, n: int, alpha: float, q: float) -> float:
    """Smallest eigenvalue of the level-n Gram matrix at float parameters.

    Nothing in the library, the CLI or the tests calls it; the benchmark traces
    it as ``fock.spectral``, and it is deleted with that metric.  Imports numpy
    on call.
    """
    import numpy as np

    p = symmetrizer(n, space)
    if p != mat_transpose(p):  # exact symmetry, so eigvalsh is safe
        raise AssertionError("symmetrizer matrix is not symmetric")
    return float(np.linalg.eigvalsh(mat_to_float(p, alpha, q)).min())


def r_operator_norm(space: SpaceSpec, n: int, alpha: float, q: float) -> float:
    """Spectral norm of R at level n, w.r.t. the undeformed inner product.

    Nothing in the library, the CLI or the tests calls it; the benchmark traces
    it as ``fock.spectral``, and it is deleted with that metric.  Imports numpy
    on call.
    """
    import numpy as np

    return float(np.linalg.norm(mat_to_float(r_operator(n, space), alpha, q), ord=2))


def gauge_norm_deformed(
    space: SpaceSpec, t: FracMatrix, n: int, alpha: float, q: float
) -> float:
    """Operator norm of gauge(T) on level n w.r.t. the deformed inner product.

    T must be symmetric (as for every gauge OpSpec).  Nothing in the library,
    the CLI or the tests calls it; the benchmark traces it as
    ``fock.spectral``, and it is deleted with that metric.  Imports numpy on
    call.
    """
    import numpy as np

    gram = mat_to_float(symmetrizer(n, space), alpha, q)
    op = OpSpec("gauge", t=t)
    mat = mat_to_float(matrix_of_level_map(
        lambda v: apply_operator(op, v), space, n, n
    ), alpha, q)
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals.min() <= 0:
        raise ValueError("Gram matrix is not positive definite at these parameters")
    root = eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T
    inv_root = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    return float(np.linalg.norm(root @ mat @ inv_root, ord=2))
