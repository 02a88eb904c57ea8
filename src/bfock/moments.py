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
Bell(n) uncolored partitions only.  The kernel of that sum takes the list of
choices at an arc of cover count c as its one parameter: (I, 1) and
(J, a q^(2c)) here, and (I, t^c) for ``qt.qt_wick``.  It runs on Python
ints:

* one factor per point: every term takes point i through exactly one of
  x_i (a block end), T_i (inside a block) or lambda_i (a singleton), so each
  point's data is cleared by the lcm of its own denominators, J by its
  integer form delta J, and one denominator, ∏ L_i delta^n, is divided out
  once at the end;
* one colour table per block: the chain values with a given choice at each
  arc do not depend on the covers, so each block's values are computed once
  and the chain for any covers is exponent arithmetic on them;
* a sum per open-block state in place of enumerating the partitions:
  scanning the points left to right with the open blocks ordered by last
  element, a point that joins the r-th oldest of h open blocks makes an arc
  that the r older blocks' next arcs cover and the h-1-r newer ones' cross,
  so each move knows its arc's cover and crossings.  What the rest of a
  partition contributes depends only on the open blocks, their point masks
  and covers, so every prefix that leaves the same open blocks merges into
  one partial sum: 930 states at n=8 in place of 10,576 prefixes.

``colored_wick_moment`` keeps the colored sum itself, term by term; it is
the small-n oracle the tests hold ``wick_moment`` to, and ``set_partitions``
with ``arc_covers`` is the oracle for the moves, expanded one partition at a
time.  The vector-level refinement resolves a word of creators /
annihilators / gauge factors applied to the vacuum as a sum over
eps-compatible extended partitions with the enriched weight
q^(rc + max_c + 2 rnarc + 2 max_l).

The corollary evaluators are the paper's three specialisations, summed
term by term as independent oracles for ``wick_moment``.  They read the
partition layer and the Fraction chain only: ``set_partitions`` with
``arc_covers`` for q^rc at alpha = 0 and, at q = 0, for the noncrossing
partitions (rc == 0) and their outer arcs (cover 0);
``enumerate_colored(n, "pairs-only")`` with ``statistics`` for the Gaussian
case; ``closed_chain_value`` for every block.  None of them goes through
``_open_arc_steps`` or ``_color_summed_sum``, so a fault in the kernel's
moves, state merges or integer sums cannot cancel out of the comparison.

The operator side of every comparison, ``vacuum_expectation`` and
``eps_word_vector``, runs on ``fock``'s operator kernel: integer numerators
over one denominator, cleared factor by factor with its own exact code.  It
shares no scaling with ``_color_summed_sum``, so a wrong scale on either side
shows as a difference instead of cancelling out.

Every comparison of the harness, here, in ``orthopoly`` and in ``bfock
verify``, is a ``VerifyReport`` from ``compare``, which renders failures only.

Index convention: xs[0] is x_1, the factor applied first (the rightmost
factor of the operator product).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterator, Sequence

from .errors import ResourceLimitError
from .fock import FockVector, OpSpec, SpaceSpec, Word, _apply_product, type_b, vacuum_expectation
from .partitions import (
    ONE_SYM,
    PRIME,
    STAR,
    ColoredPartition,
    arc_covers,
    enumerate_colored,
    enumerate_extended_eps,
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
    _normal,
    _pack,
    frac_dot,
    frac_identity,
    frac_mat_vec,
    frac_matrix,
    frac_vector,
)

MAX_WICK_N = 10
MAX_VECTOR_N = 6
_MAX_COLORED_WICK_N = 8


@dataclass(frozen=True)
class MomentProblem:
    """Vectors, coefficient operators and shift constants of a mixed moment."""

    xs: tuple[FracVector, ...]
    ts: tuple[FracMatrix, ...]
    lams: tuple[Fraction, ...]
    space: SpaceSpec

    def __post_init__(self) -> None:
        if not len(self.xs) == len(self.ts) == len(self.lams):
            raise ValueError("xs, ts and lams must have equal lengths")
        d = self.space.d
        if any(len(x) != d for x in self.xs) or any(
            len(t) != d or any(len(row) != d for row in t) for t in self.ts
        ):
            raise ValueError("vector/operator dimensions must match the space")

    @classmethod
    def build(
        cls,
        xs: Sequence[Sequence[Fraction]],
        ts: Sequence[Sequence[Sequence[Fraction]]],
        lams: Sequence[Fraction | int],
        space: SpaceSpec,
    ) -> MomentProblem:
        return cls(
            xs=tuple(frac_vector(x) for x in xs),
            ts=tuple(frac_matrix(t) for t in ts),
            lams=tuple(Fraction(lam) for lam in lams),
            space=space,
        )

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
# exponents (e_a, e_q, e_t) of its monomial weight at each cover count
_ArcChoice = tuple[FracMatrix, Callable[[int], Exponent]]


# one open block as the scan keeps it: the bitmask of its points (bit j-1 for
# point j) and the cover count of each of its arcs so far
_Block = tuple[int, tuple[int, ...]]


def _open_arc_steps(
    j: int, n: int, opened: tuple[_Block, ...]
) -> Iterator[tuple[tuple[_Block, ...], _Block | None, int]]:
    """The moves at point j of a left-to-right scan of the set partitions of [n].

    ``opened`` holds the open blocks (begun, not yet at their maximum) ordered
    by their last element, oldest first.  Point j either joins the r-th oldest
    (r from 0) of the h open blocks, which it closes or keeps open, or is a
    singleton, or opens a block.  Let the new arc be (l, j).  An arc that
    ends after j is the next arc (l', j') of another open block, so l' < l
    for the r older blocks, whose arcs cover (l, j), and l < l' < j < j' for
    the h-1-r newer ones, whose arcs cross it.  An arc that ends before j was
    classified against (l, j) when its own right end was scanned.  So the new
    arc gets cover r and adds h-1-r restricted crossings, and every pair of
    arcs is classified exactly once: the path encoding of Flajolet,
    *Combinatorial aspects of continued fractions*, Discrete Math. 32 (1980).

    Yields (the next open blocks, the block closed at j or None, the new
    restricted crossings).  A singleton is closed with no covers.  A move that
    leaves more open blocks than points to close them is not yielded, so
    every sequence of moves from point 1 to point n ends with none open, and
    the sequences are the set partitions of [n], blocks closed in the order
    of their maxima.
    """
    # points after j, each of which can close one open block; h <= room + 1
    # holds on entry, so closing a block always leaves enough of them
    room = n - j
    h = len(opened)
    bit = 1 << (j - 1)
    for r, (mask, covers) in enumerate(opened):
        rest = opened[:r] + opened[r + 1 :]
        block = (mask | bit, covers + (r,))
        yield rest, block, h - 1 - r
        if h <= room:
            yield rest + (block,), None, h - 1 - r
    if h <= room:
        yield opened, (bit, ()), 0
    if h < room:
        yield opened + ((bit, ()),), None, 0


def _color_summed_sum(prob: MomentProblem, choices: Sequence[_ArcChoice]) -> Poly:
    """Sum over the Bell(n) uncolored partitions of q^rc times the block factors.

    A singleton contributes its lambda, a block {i_1 < ... < i_m} the chain

        <x_max, F_{m-1} T_{x_{i_{m-1}}} ··· T_{x_{i_2}} F_1 x_min>

    where F_k, the factor at the block's k-th arc of cover count c_k, is the
    sum over ``choices`` of M monomial(weight(c_k)), each choice a pair
    (M, weight).  The sum runs on Python ints and is normalised once:

    * Each point i enters every term through exactly one factor: x_i at a
      block end, T_i inside a block, lambda_i as a singleton.  So x_i, T_i
      and lambda_i are scaled by L_i, the lcm of their denominators, and
      every M by delta, the lcm of all the M's denominators.  A block of m
      points has m-1 arcs, so one more delta per block makes every term
      ∏ L_i · delta^n times its value: the numerators are int dicts over
      packed exponents, and ``_normal`` divides once at the end.
    * Expanding the product of the F_k gives one chain value per choice at
      each arc, none of which depends on the covers.  The colour table of a
      block, keyed by its point bitmask, holds them; the chain for given
      covers puts the value of the choices (s_1, ..., s_{m-1}) at the packed
      exponent sum of weight_{s_k}(c_k), which is exponent arithmetic only.
      An open block's vectors, one per choice at each arc so far, extend
      those of its mask without its last point.
    * The sum runs level by level over the moves of ``_open_arc_steps``.
      After point j, what the rest of a partition contributes depends only
      on the open blocks: their masks and covers fix their chains, and their
      order fixes every later cover and crossing.  So the partial sums of
      all prefixes with the same open blocks merge into one int dict per
      state, and each move from a state multiplies that dict once: by the
      closed block's chain (lambda_j for a singleton) and q^crossings.  The
      answer is the dict of the empty state after point n.  A singleton
      whose lambda is 0 and a zero chain add nothing, so a state that no
      move reaches with a nonzero factor is never made.
    """
    n = prob.n
    if n > MAX_WICK_N:
        raise ResourceLimitError(f"the color-summed partition sum is guarded at n <= {MAX_WICK_N}")
    scales = [
        lcm(*(v.denominator for v in x), *(v.denominator for row in t for v in row), lam.denominator)
        for x, t, lam in zip(prob.xs, prob.ts, prob.lams)
    ]
    delta = lcm(*(v.denominator for m, _ in choices for row in m for v in row))
    xs = [[int(v * s) for v in x] for x, s in zip(prob.xs, scales)]
    ts = [[[int(v * s) for v in row] for row in t] for t, s in zip(prob.ts, scales)]
    lams = [int(lam * s * delta) for lam, s in zip(prob.lams, scales)]
    mats = [[[int(v * delta) for v in row] for row in m] for m, _ in choices]
    weights = [[_pack(*weight(c)) for c in range(n)] for _, weight in choices]
    # per point p and choice M: T_p M, which extends an open block through p
    # (never the first or the last point), and x_p^T M, which closes a block
    # at p (never the first point)
    transposed = [[list(col) for col in zip(*m)] for m in mats]
    steps = [
        [[_int_mat_vec(mt, row) for row in t] for mt in transposed] if 0 < p < n - 1 else []
        for p, t in enumerate(ts)
    ]
    ends = [[_int_mat_vec(mt, x) for mt in transposed] if p else [] for p, x in enumerate(xs)]
    vectors: dict[int, list[list[int]]] = {}
    tables: dict[int, list[int]] = {}
    chains: dict[_Block, dict[int, int]] = {}

    def open_vectors(mask: int) -> list[list[int]]:
        """T_last F ··· F x_min of an open block, one vector per choice at each arc."""
        if mask not in vectors:
            last = mask.bit_length() - 1
            rest = mask ^ 1 << last
            if rest:
                vectors[mask] = [_int_mat_vec(tm, v) for tm in steps[last] for v in open_vectors(rest)]
            else:
                vectors[mask] = [[delta * v for v in xs[last]]]  # the one more delta of the block
        return vectors[mask]

    def chain(mask: int, covers: tuple[int, ...]) -> dict[int, int]:
        last = mask.bit_length() - 1
        if not covers:
            return {0: lams[last]} if lams[last] else {}
        if mask not in tables:
            vecs = open_vectors(mask ^ 1 << last)
            tables[mask] = [sum(a * b for a, b in zip(row, v)) for row in ends[last] for v in vecs]
        keys = [0]
        for c in covers:
            keys = [key + w[c] for w in weights for key in keys]
        out: dict[int, int] = {}
        for key, value in zip(keys, tables[mask]):
            out[key] = out.get(key, 0) + value
        return {key: c for key, c in out.items() if c}

    unit = {0: 1}
    q_step = _pack(0, 1, 0)
    level: dict[tuple[_Block, ...], dict[int, int]] = {(): unit}
    for j in range(1, n + 1):
        nxt: dict[tuple[_Block, ...], dict[int, int]] = {}
        # a block closes at its maximum, so its chain is needed at one level only
        tables.clear()
        chains.clear()
        for opened, running in level.items():
            for state, block, crossed in _open_arc_steps(j, n, opened):
                if block is None:
                    factor = unit
                else:
                    if block not in chains:
                        chains[block] = chain(*block)
                    factor = chains[block]
                    if not factor:
                        continue
                shift = crossed * q_step
                out = nxt.get(state)
                if out is None:
                    out = nxt[state] = {}
                get = out.get
                for kb, cb in factor.items():
                    kb += shift
                    for ka, ca in running.items():
                        k = ka + kb
                        out[k] = get(k, 0) + ca * cb
        level = nxt
    return _normal(level.get((), {}), prod(scales) * delta**n)


def _int_mat_vec(m: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) for row in m]


def wick_moment(prob: MomentProblem) -> Poly:
    """Exact color-summed partition sum for phi(B(x_n)···B(x_1)).

    The partition sum with (I + a q^(2c) J), both colors of an arc of cover
    count c, at every arc.  Equals ``colored_wick_moment``.
    """
    choices = (
        (frac_identity(prob.space.d), lambda c: (0, 0, 0)),
        (prob.space.involution, lambda c: (1, 2 * c, 0)),
    )
    return _color_summed_sum(prob, choices)


def colored_wick_moment(prob: MomentProblem) -> Poly:
    """The colored-partition sum for phi(B(x_n)···B(x_1)), term by term.

    Visits every colored partition; the small-n oracle for ``wick_moment``.
    """
    if prob.n > _MAX_COLORED_WICK_N:
        raise ResourceLimitError(f"colored_wick_moment is guarded at n <= {_MAX_COLORED_WICK_N}")
    total = ZERO
    for p in enumerate_colored(prob.n):
        value = cumulant_partition(p, prob)
        if value.is_zero:
            continue
        stats = statistics(p)
        weight = Poly.monomial(1, ea=stats.narc, eq=stats.rc + 2 * stats.rnarc)
        total = total + weight * value
    return total


def vector_formula(eps: Sequence[str], prob: MomentProblem) -> FockVector:
    """Extended-partition expansion of b^eps(n)···b^eps(1) Ω."""
    if prob.n != len(eps):
        raise ValueError("eps length must match the number of points")
    if prob.n > MAX_VECTOR_N:
        raise ResourceLimitError(f"vector_formula is guarded at n <= {MAX_VECTOR_N}")
    gathered: dict[Word, list[Poly]] = {}  # summed once per word at the end
    for p in enumerate_extended_eps(eps):
        base = p.base
        scalar = ONE
        for b, (block, colors) in enumerate(zip(base.blocks, base.colors)):
            if len(block) >= 2 and b not in p.marked:
                scalar = scalar * closed_chain_value(block, colors, prob)
                if scalar.is_zero:
                    break
        if scalar.is_zero:
            continue
        stats = statistics(p)
        weight = Poly.monomial(
            1,
            ea=stats.narc,
            eq=stats.rc + stats.max_c + 2 * stats.rnarc + 2 * stats.max_l,
        )
        factors = [  # singleton chains are empty, so this is T-hat applied to x_min
            open_chain_vector(base.blocks[b], base.colors[b], prob)
            for b in p.open_block_indices()  # already ordered by block maxima
        ]
        coeff = weight * scalar
        for word, entry in FockVector.from_tensor(prob.space, factors).coeffs.items():
            gathered.setdefault(word, []).append(coeff * entry)
    return FockVector(prob.space, {word: Poly.sum(terms) for word, terms in gathered.items()})


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
    ops = [eps_operator(symbol, point, prob) for point, symbol in enumerate(eps, start=1)]
    return _apply_product(ops[::-1], FockVector.vacuum(prob.space), None)


# -- independent corollary evaluators -------------------------------------------


def _singleton_free(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The uncolored partitions of [n] with no singleton block."""
    return (blocks for blocks in set_partitions(n) if all(len(block) >= 2 for block in blocks))


def _plain_chains(blocks: Sequence[Sequence[int]], prob: MomentProblem) -> Fraction:
    """The product of the blocks' chains with every color +1."""
    return prod(closed_chain_value(block, (1,) * (len(block) - 1), prob) for block in blocks)


def corollary_q_case(prob: MomentProblem) -> Poly:
    """Specialized sum at alpha = 0, lambda = 0: q^rc over singleton-free partitions."""
    _require_zero_lams(prob)
    return Poly.sum(
        Poly.monomial(_plain_chains(blocks, prob), eq=arc_covers(blocks)[0])
        for blocks in _singleton_free(prob.n)
    )


def corollary_gaussian(prob: MomentProblem) -> Poly:
    """Specialized sum at T = 0, lambda = 0: colored pair partitions only."""
    _require_zero_lams(prob)
    total = ZERO
    for p in enumerate_colored(prob.n, "pairs-only"):
        value = prod(closed_chain_value(block, colors, prob) for block, colors in zip(p.blocks, p.colors))
        if value:
            stats = statistics(p)
            total = total + Poly.monomial(value, ea=stats.narc, eq=stats.rc + 2 * stats.rnarc)
    return total


def corollary_free_alpha(prob: MomentProblem) -> Poly:
    """Specialized sum at q = 0, lambda = 0: (1+a)^out_arc over noncrossing partitions.

    A partition is noncrossing exactly when rc == 0, and its outer arcs are
    the arcs of cover 0.  Requires involution-fixed vectors (x̄ = x);
    otherwise the collapsed form does not represent the colored sum.
    """
    _require_zero_lams(prob)
    for x in prob.xs:
        if prob.space.involve(x) != x:
            raise ValueError("free-alpha case requires involution-fixed vectors")
    terms = []
    for blocks in _singleton_free(prob.n):
        rc, covers = arc_covers(blocks)
        if rc == 0:
            out_arc = sum(cover == 0 for block_covers in covers for cover in block_covers)
            terms.append(_plain_chains(blocks, prob) * (ONE + ALPHA) ** out_arc)
    return Poly.sum(terms)


def _require_zero_lams(prob: MomentProblem) -> None:
    if any(prob.lams):
        raise ValueError("corollary cases require lambda = 0")


def corollary_cases(which: str, prob: MomentProblem) -> Poly:
    if which == "q-case":
        return corollary_q_case(prob)
    if which == "gaussian":
        return corollary_gaussian(prob)
    if which == "free-alpha":
        return corollary_free_alpha(prob)
    raise ValueError(f"unknown corollary case {which!r}")


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


def verify_vector_identity(eps: Sequence[str], prob: MomentProblem) -> VerifyReport:
    """Operator word on the vacuum vs the extended-partition expansion."""
    lhs = eps_word_vector(eps, prob)
    rhs = vector_formula(eps, prob)
    return compare(f"vector-identity-{''.join(eps)}", lhs, rhs)


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
    xs = [tuple(rational() for _ in range(d)) for _ in range(n)]
    ts = []
    for _ in range(n):
        upper = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                upper[i][j] = rational()
                upper[j][i] = upper[i][j]
        ts.append(tuple(tuple(row) for row in upper))
    lams = [Fraction(0) if zero_lams else rational() for _ in range(n)]
    return MomentProblem.build(xs, ts, lams, space)
