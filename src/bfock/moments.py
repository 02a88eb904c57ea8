"""Combinatorial side of the moment formulas, and the dual-path harness.

The central identity expresses a vacuum moment of deformed field operators
as a sum over colored partitions:

    phi(B(x_n) ··· B(x_1))
        = sum over colored partitions of a^narc q^(rc + 2 rnarc) K_partition

where the block cumulant K threads the block's interior through the
coefficient operators T and the involution (one insertion per -1 arc), and
singleton blocks contribute their lambda.

``wick_moment`` evaluates this sum color-summed.  rc does not depend on the
colors, and a -1 arc contributes a, q^(2 cover) and one involution
insertion, where cover counts the arcs of other blocks strictly covering it.
So the 2^#arcs colorings of an uncolored partition fold into one chain per
block with (I + a q^(2 cover) J) at every arc, and the sum runs over the
Bell(n) uncolored partitions only.  The vector-level theorem resolves a word
of creators / annihilators / gauge factors applied to the vacuum as a sum
over eps-compatible extended partitions with the weight
a^narc q^(rc + max_c + 2 rnarc + 2 max_l); its open blocks (the marked ones
and the singletons) each give one tensor letter.  Color-summed, an arc of
cover c with f_left open-block maxima left of it and f_in inside it carries
q^f_in (I + a q^(2(c + f_left)) J).

One kernel, ``_color_summed_kernel`` over the moves of ``_open_arc_steps``,
evaluates every partition-side sum: it scans the points left to right with
the active blocks ordered by last element, so a point that joins the r-th
oldest of h active blocks makes an arc of cover r and h-1-r crossings, and
every prefix that leaves the same active blocks and frozen count merges into
one int dict (930 states at n=8 in place of 10,576 prefixes).  Its
parameters are the choices at an arc and one alphabet of letters per point.
``wick_moment`` reads them off its space's model: on a type-B space the
choices above, which ``vector_formula`` shares (f = 0 under the letter None),
and on a (q,t) space the one choice (I, t^c), the q^rc t^nest weight of
Blitvić's moment formula.  The vector formulas and the corollaries are
type-B results and refuse a (q,t) space.

One walk per side, ``fock._sweep`` over the prefixes of the words over the
per-point alphabets, runs every entry point: it yields one result per word
in ``product`` order, words with a common prefix share all the work up to
its end, and a prefix whose level or vector is zero yields zero for its
whole subtree.  ``_partition_walk`` takes one level step of the kernel per
edge: ``wick_moment`` walks the one word of None letters,
``vector_formula`` one eps word, and ``vector_formulas`` the eps alphabet at
every point.  ``fock._operator_walk`` takes one ``fock._int_step`` per edge
in the same way for ``eps_word_vector`` and ``eps_word_vectors``.
``verify_vector_identities`` zips the two sweeps to check the vector-level
theorem on all 3^n eps words.  Each side walks only its own prefixes, so the
two stay independent.

``tests/oracles.py`` keeps both colored sums term by term, the moment one
colored partition at a time and the vector formula one colored extended
partition at a time: the small-n oracles the tests hold both walks to.
``set_partitions`` with ``arc_covers``, and ``enumerate_extended_eps``, are
the oracles for the moves.

The corollary evaluators are the paper's three specialisations, summed
term by term as independent oracles for ``wick_moment``.  They read the
partition layer and the Fraction chain only: ``set_partitions`` with
``arc_covers`` for q^rc at alpha = 0 and, at q = 0, for the noncrossing
partitions (rc == 0) and their outer arcs (cover 0);
``enumerate_colored(n, "pairs-only")`` with ``statistics`` for the Gaussian
case; ``closed_chain_value`` for every block, computed once per (block,
colors) in a ``functools.cache`` local to the call.  None of them goes through
``_open_arc_steps`` or the kernel, so a fault in the kernel's moves, state
merges or integer sums cannot cancel out of the comparison.

The operator side of every comparison, ``vacuum_expectation``,
``eps_word_vector`` and ``eps_word_vectors``, runs on ``fock``'s operator
kernel: integer numerators over one denominator, cleared factor by factor
with its own exact code.  It shares no scaling with the partition kernel, so
a wrong scale on either side shows as a difference instead of cancelling out.

Every comparison of the harness, here, in ``orthopoly`` and in ``bfock
verify``, is a ``VerifyReport`` from ``compare``, which renders failures only.

Index convention: xs[0] is x_1, the factor applied first (the rightmost
factor of the operator product).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ResourceLimitError
from .fock import (
    FockVector,
    OpSpec,
    SpaceSpec,
    Word,
    _check_point,
    _operator_walk,
    _require_type_b,
    _sweep,
    type_b,
    vacuum_expectation,
)
from .partitions import (
    EPS_ALPHABET,
    ONE_SYM,
    PRIME,
    STAR,
    ColoredPartition,
    arc_covers,
    check_eps,
    enumerate_colored,
    set_partitions,
    statistics,
)
from .scalars import (
    ALPHA,
    ONE,
    Poly,
    ZERO,
    Exponent,
    FracMatrix,
    FracVector,
    RationalLike,
    _FIELD,
    _normal,
    _pack,
    frac_dot,
    frac_identity,
    frac_mat_vec,
)

MAX_WICK_N = 10  # the kernel's 4-bit arc fields (_ARC_BITS) need n < 16
MAX_VECTOR_N = 6


@dataclass(frozen=True)
class MomentProblem:
    """Vectors, coefficient operators and shift constants of a mixed moment,
    stored per point as ``fock._check_point`` returns them (tuples of Fractions)."""

    xs: tuple[FracVector, ...]
    ts: tuple[FracMatrix, ...]
    lams: tuple[Fraction, ...]
    space: SpaceSpec

    def __post_init__(self) -> None:
        if not len(self.xs) == len(self.ts) == len(self.lams):
            raise ValueError("xs, ts and lams must have equal lengths")
        d, points = self.space.d, []
        for x, t, lam in zip(self.xs, self.ts, self.lams):
            if len(x) != d or len(t) != d or any(len(row) != d for row in t):
                raise ValueError("vector/operator dimensions must match the space")
            points.append(_check_point(x, t, lam))  # what the point's operators would refuse
        xs, ts, lams = tuple(zip(*points)) or ((), (), ())
        self.__dict__.update(xs=xs, ts=ts, lams=lams)

    @classmethod
    def build(
        cls,
        xs: Sequence[Sequence[RationalLike]],
        ts: Sequence[Sequence[Sequence[RationalLike]]],
        lams: Sequence[RationalLike],
        space: SpaceSpec,
    ) -> MomentProblem:
        return cls(xs=xs, ts=ts, lams=lams, space=space)

    @property
    def n(self) -> int:
        return len(self.xs)

    def x(self, point: int) -> FracVector:
        """Vector at the 1-based point label."""
        return self.xs[point - 1]

    def t(self, point: int) -> FracMatrix:
        return self.ts[point - 1]

    def operators(self) -> list[OpSpec]:
        """The product B(x_n)···B(x_1) in product order (rightmost last)."""
        return [
            type_b(self.x(point), self.t(point), self.lams[point - 1])
            for point in range(self.n, 0, -1)
        ]


def _color_apply(color: int, vec: FracVector, space: SpaceSpec) -> FracVector:
    return vec if color == 1 else space.involve(vec)


def closed_chain_value(block: Sequence[int], colors: Sequence[int], prob: MomentProblem) -> Fraction:
    """<x_max, f_{m-1} T_{x_{i_{m-1}}} ··· f_2 T_{x_{i_2}} f_1 x_min> for m >= 2."""
    vec = open_chain_vector(block[:-1], colors[:-1], prob)
    return frac_dot(prob.x(block[-1]), _color_apply(colors[-1], vec, prob.space))


def open_chain_vector(block: Sequence[int], colors: Sequence[int], prob: MomentProblem) -> FracVector:
    """T_{x_{i_m}} f_{m-1} ··· f_1 x_min; the identity chain for singletons."""
    vec = prob.x(block[0])
    for j, color in enumerate(colors, start=1):
        vec = frac_mat_vec(prob.t(block[j]), _color_apply(color, vec, prob.space))
    return vec


def cumulant_block(block: Sequence[int], colors: Sequence[int], prob: MomentProblem) -> Poly:
    """Deformed block cumulant: lambda for singletons, the chain otherwise."""
    if len(block) == 1:
        return Poly.const(prob.lams[block[0] - 1])
    return Poly.const(closed_chain_value(block, colors, prob))


def cumulant_partition(p: ColoredPartition, prob: MomentProblem) -> Poly:
    value = ONE
    for block, colors in zip(p.blocks, p.colors):
        value = value * cumulant_block(block, colors, prob)
        if value.is_zero:
            break
    return value


# one term of the factor at an arc: the matrix inserted there, and the
# exponents (e_a, e_q, e_t) of its monomial weight at the arc's cover count c
# and frozen counts f_left and f_in
_ArcChoice = tuple[FracMatrix, Callable[[int, int, int], Exponent]]

# A block as the scan keeps it: the bitmask of its points (bit j-1 for point
# j) and one code per arc, c, f_left and the frozen count at its right end in
# 4 bits each (all below n <= MAX_WICK_N < 16): the bare cover if nothing is
# frozen.  An active block also keeps the frozen count at its last point.
_Block = tuple[int, tuple[int, ...]]
_Active = tuple[int, tuple[int, ...], int]
# the scan's partial sums after a point: per frozen count, the int dict of
# each state of active blocks
_Level = list[dict[tuple[_Active, ...], dict[int, int]]]
_ARC_BITS = 4
_WORD_BIT = 3 * _FIELD  # the letters of a word ride above a packed key's exponents


def _arc_fields(code: int) -> tuple[int, int, int]:
    """(c, f_left, f_in) of an arc's code."""
    low = (1 << _ARC_BITS) - 1
    f_left = code >> _ARC_BITS & low
    return code & low, f_left, (code >> 2 * _ARC_BITS) - f_left


def _open_arc_steps(
    j: int, room: int, opened: tuple[_Active, ...], frozen: int, symbol: str | None
) -> Iterator[tuple[tuple[_Active, ...], _Block | None, int]]:
    """The moves at point j of a left-to-right scan of the partitions of [n].

    ``opened`` holds the active blocks (begun, not yet at their maximum)
    ordered by their last element, oldest first; ``frozen`` counts the frozen
    ones.  With no symbol, point j joins the r-th oldest (r from 0) of the h
    active blocks, which it closes or keeps active, or is a singleton, or
    opens a block.  An eps symbol allows the moves of the eps-compatible
    extended partitions, whose open blocks (marked or singletons) freeze at
    their maximum: ``*`` opens a block or is a frozen singleton, ``'`` joins
    the r-th oldest, which stays active or freezes, and ``1`` joins and
    closes it.  The new arc (l, j) is covered by the next arcs (l', j') of
    the r older active blocks (l' < l) and crossed by those of the h-1-r newer
    ones (l < l' < j < j'); an arc that ends before j was classified against
    it when its own right end was scanned.  So it gets cover r and adds h-1-r
    restricted crossings, and every pair of arcs is classified once: the path
    encoding of Flajolet, *Combinatorial aspects of continued fractions*,
    Discrete Math. 32 (1980).  Its f_left counts the frozen maxima below l,
    which the block kept at l, and f_in those inside (l, j).

    Yields (the next active blocks, the block ended at j or None, the new
    restricted crossings); the ended block is frozen under ``*`` and ``'``,
    closed otherwise.  ``room`` bounds the later points that can end a block
    (all of them, or an eps word's later non-``*`` points), and no move leaves
    more active blocks than that.  With the exact count every move sequence
    ends with none active, blocks ended in the order of their maxima; with a
    looser bound some end with blocks still active, and a sum keeps only the
    sequences that end with none.
    """
    # h <= room + 1 holds on entry, so ending a block leaves enough points
    h = len(opened)
    bit = 1 << (j - 1)
    now = frozen << 2 * _ARC_BITS
    if symbol != STAR:
        for r, (mask, arcs, f_left) in enumerate(opened):
            rest = opened[:r] + opened[r + 1 :]
            block = (mask | bit, arcs + (r | f_left << _ARC_BITS | now,))
            yield rest, block, h - 1 - r
            if symbol != ONE_SYM and h <= room:
                yield rest + (block + (frozen,),), None, h - 1 - r
    if symbol is None or symbol == STAR:
        if h <= room:
            yield opened, (bit, ()), 0
        if h < room:
            yield opened + ((bit, (), frozen),), None, 0


def _color_summed_kernel(
    prob: MomentProblem, choices: Sequence[_ArcChoice], alphabets: Sequence[Sequence[str | None]]
) -> tuple[Callable[[_Level, int, str | None, int], _Level], Callable[[_Level], dict[Word, Poly]]]:
    """The level step and the final gather of the partition sum on prob.

    The sum runs over the partitions of [n] of q^rc times the block factors,
    per word.  A singleton contributes its lambda, a block
    {i_1 < ... < i_m} the chain

        <x_max, F_{m-1} T_{x_{i_{m-1}}} ··· T_{x_{i_2}} F_1 x_min>

    where F_k, the factor at the block's k-th arc, is the sum over
    ``choices`` of M monomial(weight(c, f_left, f_in)), each choice a pair
    (M, weight).  Under the letter None nothing freezes and the one word is
    ().  Under an eps word the sum runs over the eps-compatible extended
    partitions, and each open block's vector T_max F ··· F x_min (x_j for a
    singleton) is one more letter of the word.  The sum runs on Python ints:

    * Each point i enters every term through one factor: x_i at a block end,
      T_i inside a block or at an open block's maximum, lambda_i as a
      singleton.  So they are scaled by L_i, the lcm of their denominators,
      and every M by delta, the lcm of the M's denominators; with one more
      delta per block, every term is ∏ L_i · delta^n times its value, which
      ``_normal`` divides out once at the end.
    * Expanding the F_k gives one value per choice at each arc, none of which
      depends on the arcs' counts.  The colour table of a block, keyed by its
      point bitmask, holds them, and the block's factor puts each at the
      packed sum of its choices' weights, one key list per tuple of arc
      codes.  An active block's vectors, one per choice at each arc so far,
      extend those of its mask without its last point.
    * After point j, what the rest of a partition contributes depends only on
      the active blocks and the frozen count: they fix every later factor,
      cover, crossing and frozen count.  So the prefixes with one state merge
      into one int dict, and each move of ``_open_arc_steps`` multiplies it
      once: by the closed block's chain (lambda_j for a singleton) or the
      frozen block's vector, whose letter each key carries in the word's
      next field above the exponents, and by q^crossings.  A zero factor adds
      nothing, so a state that no move reaches with a nonzero factor is never
      made.  One level step takes the states after point j - 1 to those
      after point j.

    ``step(level, j, symbol, room)`` makes the moves of ``_open_arc_steps`` at
    point j and returns the next level; ``words(level)`` divides the states
    with no active block out, per word.  A point's tables are built only if
    a letter of its alphabet can read them (the letter None: any), and the
    block caches hold values of a block's points only, so any walk over the
    alphabets can share them.
    """
    n = prob.n
    scales = [
        lcm(*(v.denominator for v in x), *(v.denominator for row in t for v in row), lam.denominator)
        for x, t, lam in zip(prob.xs, prob.ts, prob.lams)
    ]
    delta = lcm(*(v.denominator for m, _ in choices for row in m for v in row))
    xs = [_cleared(x, s) for x, s in zip(prob.xs, scales)]
    ts = [[_cleared(row, s) for row in t] for t, s in zip(prob.ts, scales)]
    lams = [lam.numerator * (s // lam.denominator) * delta for lam, s in zip(prob.lams, scales)]
    # per point p and choice M: T_p M, which extends a block through p, and
    # x_p^T M, which closes one at p; among the eps letters only a prime does
    # the one and only a one the other
    transposed = [[_cleared(col, delta) for col in zip(*m)] for m, _ in choices]
    steps = [[[_int_mat_vec(mt, row) for row in t] for mt in transposed]
             if None in alphabet or PRIME in alphabet else [] for t, alphabet in zip(ts, alphabets)]
    ends = [[_int_mat_vec(mt, x) for mt in transposed]
            if None in alphabet or ONE_SYM in alphabet else [] for x, alphabet in zip(xs, alphabets)]
    width = prob.space.d.bit_length()  # bits per letter
    keyed: dict[tuple[int, ...], list[int]] = {(): [0]}
    vectors: dict[int, list[list[int]]] = {}
    tables: dict[int, list[int]] = {}

    # each cache fills in a loop, since a self-calling closure would be a reference cycle
    def open_vectors(mask: int) -> list[list[int]]:
        """T_last F ··· F x_min of a block, one vector per choice at each arc."""
        if mask not in vectors:
            seen = mask & -mask  # the block's least point, which carries its one more delta
            vecs = vectors[seen] = [[delta * v for v in xs[seen.bit_length() - 1]]]
            for p in range(seen.bit_length(), mask.bit_length()):
                if mask >> p & 1:
                    seen |= 1 << p
                    vecs = vectors[seen] = vectors.get(seen) or [
                        _int_mat_vec(tm, v) for tm in steps[p] for v in vecs]
        return vectors[mask]

    def arc_keys(arcs: tuple[int, ...]) -> list[int]:
        """The packed weight of each choice at each arc, the last arc's choice outermost."""
        if arcs not in keyed:
            keys = [0]
            for end, code in enumerate(arcs, 1):
                if arcs[:end] not in keyed:
                    weights = [_pack(*weight(*_arc_fields(code))) for _, weight in choices]
                    keyed[arcs[:end]] = [key + w for w in weights for key in keys]
                keys = keyed[arcs[:end]]
        return keyed[arcs]

    def weighted(arcs: tuple[int, ...], values: Iterable[int]) -> dict[int, int]:
        """The values, one per choice at each arc, summed at their packed weights."""
        out: dict[int, int] = {}
        for key, value in zip(arc_keys(arcs), values):
            out[key] = out.get(key, 0) + value
        return {key: c for key, c in out.items() if c}

    def closing(mask: int, arcs: tuple[int, ...]) -> dict[int, int]:
        last = mask.bit_length() - 1
        if not arcs:
            return {0: lams[last]} if lams[last] else {}
        if mask not in tables:
            vecs = open_vectors(mask ^ 1 << last)
            tables[mask] = [sum(map(mul, row, v)) for row in ends[last] for v in vecs]
        return weighted(arcs, tables[mask])

    def freezing(field: int, mask: int, arcs: tuple[int, ...]) -> dict[int, int]:
        columns = enumerate(zip(*open_vectors(mask)))
        return {key + (e << field): c for e, column in columns for key, c in weighted(arcs, column).items()}

    def step(level: _Level, j: int, symbol: str | None, room: int) -> _Level:
        unit = {0: 1}
        q_step = _pack(0, 1, 0)
        freezes = symbol in (STAR, PRIME)
        nxt: _Level = [{} for _ in range(len(level) + freezes)]
        tables.clear()  # a block ends at its maximum, so its factor is needed in one step only
        for frozen, states in enumerate(level):
            ended: dict[_Block, dict[int, int]] = {}  # a block frozen here fills the word's next letter
            for opened, running in states.items():
                for state, block, crossed in _open_arc_steps(j, room, opened, frozen, symbol):
                    if block is None:
                        factor, into = unit, nxt[frozen]
                    else:
                        if block not in ended:
                            field = _WORD_BIT + frozen * width
                            ended[block] = freezing(field, *block) if freezes else closing(*block)
                        factor, into = ended[block], nxt[frozen + freezes]
                        if not factor:
                            continue
                    shift = crossed * q_step
                    out = into.get(state)
                    if out is None:
                        out = into[state] = {}
                    get = out.get
                    for kb, cb in factor.items():
                        kb += shift
                        for ka, ca in running.items():
                            k = ka + kb
                            out[k] = get(k, 0) + ca * cb
        return nxt

    def words(level: _Level) -> dict[Word, Poly]:
        den = prod(scales) * delta**n
        out: dict[Word, Poly] = {}
        for frozen, states in enumerate(level):
            by_letters: dict[int, dict[int, int]] = {}  # the word's fields, unpacked once per word
            for key, c in states.get((), {}).items():
                by_letters.setdefault(key >> _WORD_BIT, {})[key & (1 << _WORD_BIT) - 1] = c
            for letters, num in by_letters.items():
                word = tuple(letters >> k * width & (1 << width) - 1 for k in range(frozen))
                out[word] = _normal(num, den)
        return out

    return step, words


def _partition_walk(
    prob: MomentProblem, choices: Sequence[_ArcChoice], alphabets: Sequence[Sequence[str | None]]
) -> Iterator[dict[Word, Poly]]:
    """The kernel's sum per word of every word over the alphabets, in
    ``product`` order: one level step per edge of ``fock._sweep``'s walk.
    ``room`` at point j counts the later points whose alphabet holds a letter
    other than ``*``: exact for one letter per point, all of them for the eps
    alphabet, where a state that can no longer close lives on until the final
    gather drops it.
    """
    n = prob.n
    if n > MAX_WICK_N:
        raise ResourceLimitError(f"the color-summed partition sum is guarded at n <= {MAX_WICK_N}")
    level_step, words = _color_summed_kernel(prob, choices, alphabets)
    rooms = [sum(any(s != STAR for s in alphabet) for alphabet in alphabets[j:]) for j in range(1, n + 1)]

    def step(j: int, symbol: str | None, level: _Level) -> _Level | None:
        level = level_step(level, j, symbol, rooms[j - 1])
        return level if any(level) else None

    return _sweep(alphabets, [{(): {0: 1}}], step, lambda level: {} if level is None else words(level))


def _cleared(values: Sequence[Fraction], scale: int) -> list[int]:
    """scale times each value, for a scale that each denominator divides; the
    operator side clears with its own ``fock._scaled``, so no scaling is shared."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _int_mat_vec(m: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(map(mul, row, vec)) for row in m]


def _type_b_choices(space: SpaceSpec, name: str) -> tuple[_ArcChoice, ...]:
    """q^f_in (I + a q^(2(c + f_left)) J), both colors of an arc, for name on a type-B space."""
    _require_type_b(space, name)
    return (
        (frac_identity(space.d), lambda c, f_left, f_in: (0, f_in, 0)),
        (space.involution, lambda c, f_left, f_in: (1, 2 * (c + f_left) + f_in, 0)),
    )


def wick_moment(prob: MomentProblem) -> Poly:
    """Exact color-summed partition sum for phi(B(x_n)···B(x_1)) in prob's model.

    At an arc of cover count c: (I + a q^(2c) J), both colors, on a type-B
    space, which equals the term-by-term colored sum (``tests/oracles.py``);
    t^c on a (q,t) space, the q^rc t^nest sum.  Singletons give their lambda.
    """
    space = prob.space
    if space.model == "qt":
        choices = ((frac_identity(space.d), lambda c, f_left, f_in: (0, 0, c)),)
    else:
        choices = _type_b_choices(space, "wick_moment")
    return next(_partition_walk(prob, choices, ((None,),) * prob.n)).get((), ZERO)


def vector_formula(eps: Sequence[str], prob: MomentProblem) -> FockVector:
    """Extended-partition expansion of b^eps(n)···b^eps(1) Ω: the partition
    sum with q^f_in (I + a q^(2(c + f_left)) J) at every arc."""
    check_eps(eps, prob.n)
    _guard_vector_n(prob, "vector_formula")
    choices = _type_b_choices(prob.space, "vector_formula")
    walk = _partition_walk(prob, choices, [(symbol,) for symbol in eps])
    return FockVector(prob.space, next(walk))


def _guard_vector_n(prob: MomentProblem, name: str) -> None:
    if prob.n > MAX_VECTOR_N:
        raise ResourceLimitError(f"{name} is guarded at n <= {MAX_VECTOR_N}")


def eps_operator(symbol: str, point: int, prob: MomentProblem) -> OpSpec:
    """The factor a symbol stands for: creator, annihilator, or gauge."""
    if symbol == STAR:
        return OpSpec("create", x=prob.x(point))
    if symbol == ONE_SYM:
        return OpSpec("annihilate", x=prob.x(point))
    if symbol == PRIME:
        return OpSpec("gauge", t=prob.t(point))
    raise ValueError(f"unknown symbol {symbol!r}")


def eps_word_vector(eps: Sequence[str], prob: MomentProblem) -> FockVector:
    """Operator side: apply the symbol word to the vacuum, first symbol first."""
    check_eps(eps, prob.n)
    alphabets = [(eps_operator(symbol, point, prob),) for point, symbol in enumerate(eps, start=1)]
    return next(_operator_walk(alphabets, FockVector.vacuum(prob.space)))


# -- shared-prefix sweeps over all eps words ------------------------------------


def eps_word_vectors(prob: MomentProblem) -> Iterator[FockVector]:
    """``eps_word_vector`` of every eps word of length n, in product order:
    one operator walk over every point's creator, annihilator and gauge."""
    _guard_vector_n(prob, "eps_word_vectors")
    alphabets = [[eps_operator(symbol, point, prob) for symbol in EPS_ALPHABET]
                 for point in range(1, prob.n + 1)]
    return _operator_walk(alphabets, FockVector.vacuum(prob.space))


def vector_formulas(prob: MomentProblem) -> Iterator[FockVector]:
    """``vector_formula`` of every eps word of length n, in product order:
    one partition walk over the eps alphabet at every point."""
    _guard_vector_n(prob, "vector_formulas")
    choices = _type_b_choices(prob.space, "vector_formulas")
    walk = _partition_walk(prob, choices, (EPS_ALPHABET,) * prob.n)
    return (FockVector(prob.space, sums) for sums in walk)


# -- independent corollary evaluators -------------------------------------------


def _singleton_free(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The uncolored partitions of [n] with no singleton block."""
    return (blocks for blocks in set_partitions(n) if all(len(block) >= 2 for block in blocks))


def _chain_values(prob: MomentProblem) -> Callable[[tuple[int, ...], tuple[int, ...]], Fraction]:
    """``closed_chain_value`` on prob, computed once per (block, colors).

    A block's chain does not depend on the rest of the partition.  Each
    evaluator call makes its own cache, so no values are shared between calls
    or with the kernel.
    """
    return cache(lambda block, colors: closed_chain_value(block, colors, prob))


def _plain_chains(blocks: Sequence[tuple[int, ...]], chain: Callable[..., Fraction]) -> Fraction:
    """The product of the blocks' chains with every color +1."""
    return prod(chain(block, (1,) * (len(block) - 1)) for block in blocks)


def corollary_q_case(prob: MomentProblem) -> Poly:
    """Specialized sum at alpha = 0, lambda = 0: q^rc over singleton-free partitions."""
    _require_corollary_case(prob, "corollary_q_case")
    chain = _chain_values(prob)
    return Poly.sum(
        Poly.monomial(_plain_chains(blocks, chain), eq=arc_covers(blocks)[0])
        for blocks in _singleton_free(prob.n)
    )


def corollary_gaussian(prob: MomentProblem) -> Poly:
    """Specialized sum at T = 0, lambda = 0: colored pair partitions only."""
    _require_corollary_case(prob, "corollary_gaussian")
    chain = _chain_values(prob)
    terms = []
    for p in enumerate_colored(prob.n, "pairs-only"):
        value = prod(chain(block, colors) for block, colors in zip(p.blocks, p.colors))
        if value:
            stats = statistics(p)
            terms.append(Poly.monomial(value, ea=stats.narc, eq=stats.rc + 2 * stats.rnarc))
    return Poly.sum(terms)


def corollary_free_alpha(prob: MomentProblem) -> Poly:
    """Specialized sum at q = 0, lambda = 0: (1+a)^out_arc over noncrossing partitions.

    A partition is noncrossing exactly when rc == 0, and its outer arcs are
    the arcs of cover 0.  Requires involution-fixed vectors (x̄ = x);
    otherwise the collapsed form does not represent the colored sum.
    """
    _require_corollary_case(prob, "corollary_free_alpha")
    for x in prob.xs:
        if prob.space.involve(x) != x:
            raise ValueError("free-alpha case requires involution-fixed vectors")
    chain = _chain_values(prob)
    terms = []
    for blocks in _singleton_free(prob.n):
        rc, covers = arc_covers(blocks)
        if rc == 0:
            out_arc = sum(cover == 0 for block_covers in covers for cover in block_covers)
            terms.append(_plain_chains(blocks, chain) * (ONE + ALPHA) ** out_arc)
    return Poly.sum(terms)


def _require_corollary_case(prob: MomentProblem, name: str) -> None:
    _require_type_b(prob.space, name)
    if any(prob.lams):
        raise ValueError("corollary cases require lambda = 0")


# -- verification harness --------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    """One comparison; a passing one has empty sides and no first difference."""

    name: str
    equal: bool
    lhs: str
    rhs: str
    first_difference: str | None


def compare(name: str, lhs: object, rhs: object) -> VerifyReport:
    """lhs == rhs; a disagreement renders both sides and, for two Polys, two
    FockVectors or two matrices, the first differing monomial, word or entry."""
    if lhs == rhs:
        return VerifyReport(name, True, "", "", None)
    if isinstance(lhs, FockVector) and isinstance(rhs, FockVector):
        words = sorted(set(lhs.coeffs) | set(rhs.coeffs))
        word = next((w for w in words if lhs.coeff(w) != rhs.coeff(w)), None)
        first = None if word is None else f"word {word}: {lhs.coeff(word)} vs {rhs.coeff(word)}"
        return VerifyReport(name, False, _vector_str(lhs), _vector_str(rhs), first)
    if isinstance(lhs, list) and isinstance(rhs, list):  # two matrices, entry by entry
        cells = ((i, j, x, y) for i, pair in enumerate(zip(lhs, rhs))
                 for j, (x, y) in enumerate(zip(*pair)))
        first = next((f"entry ({i}, {j}): {x} vs {y}" for i, j, x, y in cells if x != y), None)
        return VerifyReport(name, False, _matrix_str(lhs), _matrix_str(rhs), first)
    first = None
    if isinstance(lhs, Poly) and isinstance(rhs, Poly):
        exp, coeff = (lhs - rhs).sorted_terms()[0]
        first = f"monomial {Poly.monomial(1, *exp)} differs by {coeff}"
    return VerifyReport(name, False, str(lhs), str(rhs), first)


def _matrix_str(m: list) -> str:
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in m) + "]"


def _vector_str(v: FockVector) -> str:
    if v.is_zero:
        return "0"
    parts = [
        f"[{' '.join(str(letter + 1) for letter in word)}]({coeff})"
        for word, coeff in sorted(v.coeffs.items())
    ]
    return " + ".join(parts)


def verify_moment_identity(prob: MomentProblem) -> VerifyReport:
    """Operator vacuum expectation vs the color-summed partition sum."""
    lhs = vacuum_expectation(prob.operators(), prob.space)
    rhs = wick_moment(prob)
    return compare(f"moment-identity-n{prob.n}", lhs, rhs)


def verify_vector_identities(prob: MomentProblem) -> Iterator[VerifyReport]:
    """The vector-level theorem on every eps word of length n, in product
    order: the report ``vector-identity-<word>`` compares the operator side
    with the extended-partition expansion.  Each side is one sweep, and the
    two advance one word at a time."""
    words = product(EPS_ALPHABET, repeat=prob.n)
    for eps, lhs, rhs in zip(words, eps_word_vectors(prob), vector_formulas(prob), strict=True):
        yield compare(f"vector-identity-{''.join(eps)}", lhs, rhs)


def random_problem(
    rng: random.Random,
    n: int,
    space: SpaceSpec,
    zero_lams: bool = False,
) -> MomentProblem:
    """Seeded random instance over small rationals (|num| <= 5, den <= 5)."""

    def rational() -> Fraction:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 5))

    d = space.d
    xs = [[rational() for _ in range(d)] for _ in range(n)]
    ts = []
    for _ in range(n):
        upper = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                upper[i][j] = rational()
                upper[j][i] = upper[i][j]
        ts.append(upper)
    lams = [0 if zero_lams else rational() for _ in range(n)]
    return MomentProblem.build(xs, ts, lams, space)
