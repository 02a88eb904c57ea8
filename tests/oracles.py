"""Small-n oracles: the Poly-level operator path, the colored-partition sums
one partition at a time, the J-fraction, single group elements and the free
annihilator, the generators on whole vectors, the eps-compatibility test,
reduced words, and the enumeration orders of the partition and group layers.

``bfock.fock`` applies operators on packed int dicts with one denominator.
This module keeps the path it replaced: every (word, slot, row) term is a
``Poly``, the slot weight is a ``Poly`` built per term, and each word's terms
are summed once.  It clears no denominators and shares no scaling code with
the kernel or with ``moments``, so a wrong scale in either cannot cancel out
of a comparison with it.

``colored_wick_moment`` and ``colored_vector_formula`` are the moment and the
vector-level theorem summed one colored partition at a time, the second over
the extended ones (a ``ColoredPartition`` whose marking, ``p.marked``, picks
its open blocks): ``partitions.statistics`` gives each weight and the
``Fraction`` chains of ``moments`` give each block, so they share none of the
moves, frozen counts or integer sums of the partition walk behind
``moments.wick_moment``, ``moments.vector_formula`` and the sweep
``moments.vector_formulas``.

``continued_fraction_moments`` reads the moments off the J-fraction of a
family, a second route to what ``orthopoly.moments_from_jacobi`` computes as
the powers of the tridiagonal operator.  ``act_sigma`` applies one element of
B_n through ``bfock.fock``'s slot table, for comparison with its generator
word replayed, and ``free_annihilator_matrix`` is the free right annihilator,
the left factor of a deformed annihilator's matrix (annihilator = free · R).
``act_generator`` and ``act_word`` replay a generator word on whole vectors
(a word too short for a generator is fixed), the oracle of ``r_operator``'s
replay on (word, coefficient) pairs.  ``eps_compatible`` tests a symbol word
against a partition's blocks and marking block by block, the filter that
``partitions.enumerate_extended_eps`` replaced by direct construction.
``leading_minors`` is plain ``Fraction`` elimination, the test side of
Sylvester's criterion and of the Hankel determinants; it shares nothing with
the pivoted fraction-free elimination of ``scalars.is_semidefinite``.

The enumerators keep the algorithms that ``bfock.partitions`` and
``bfock.coxeter`` replaced, so the tests can hold the faster ones to the same
sequences: ``set_partitions`` runs over restricted growth strings and
regroups each through a dict, ``colorings`` cuts one flat ±1 assignment of
all arcs into blocks, and ``group_words`` is the breadth-first search that
multiplies by every generator, descents included.  An element of B_n is its
window, as in ``bfock.coxeter``: ``word_to_permutation`` replays a word as a
window and ``reduced_words`` reads every reduced word off a window, both
through the same ``times_generator`` step, not through ``bfock.coxeter``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Sequence

from bfock import fock
from bfock.coxeter import GroupElementRecord
from bfock.errors import ResourceLimitError, TruncationError
from bfock.fock import (
    FockVector,
    OpSpec,
    SpaceSpec,
    _collect,
    _generator_images,
    _images,
    _involution_columns,
    _level_matrix,
    _slot_entry,
    _symmetrized_word,
    check_dimensions,
)
from bfock.moments import MomentProblem, closed_chain_value, cumulant_partition, open_chain_vector
from bfock.orthopoly import JacobiParams
from bfock.partitions import (
    ONE_SYM,
    PRIME,
    STAR,
    ColoredPartition,
    _open_blocks,
    check_eps,
    enumerate_colored,
    enumerate_extended_eps,
    statistics,
)
from bfock.scalars import ONE, FracVector, Matrix, Poly, RationalLike

Word = tuple[int, ...]
Terms = Iterator[tuple[Word, Poly]]

def _reach(v: FockVector, horizon: int | None, step: int) -> Iterable[tuple[Word, Poly]]:
    """Terms of v whose words, changed in length by step, stay within the horizon."""
    if horizon is None:
        return v.coeffs.items()
    return [(word, coeff) for word, coeff in v.coeffs.items() if len(word) + step <= horizon]


def _create_terms(x: FracVector, v: FockVector, horizon: int | None) -> Terms:
    for word, coeff in _reach(v, horizon, 1):
        if len(word) == v.space.truncation:
            raise TruncationError("creation at the truncation level")
        for letter, entry in enumerate(x):
            if entry:
                yield word + (letter,), coeff * entry


def _type_b_weight(entry: Fraction, j_entry: Fraction, n: int, k: int) -> Poly:
    """Slot k of a length-n word: q^(n-k) on x plus a q^(n+k-2) on Jx."""
    return Poly({(0, n - k, 0): entry, (1, n + k - 2, 0): j_entry})


def _qt_weight(entry: Fraction, j_entry: Fraction, n: int, k: int) -> Poly:
    """Slot k of a length-n word: q^(n-k) t^(k-1) on x; the involution plays no part."""
    return Poly({(0, n - k, k - 1): entry})


# slot weight(entry of the row, same entry of J·row, word length n, slot k)
SlotWeight = Callable[[Fraction, Fraction, int, int], Poly]


def _slot_terms(
    rows: list[tuple[Word, FracVector]], v: FockVector, horizon: int | None, weight: SlotWeight
) -> Terms:
    """Remove slot k of each word under weight(row[letter], (J·row)[letter], n, k)
    and append the row's suffix, for every (suffix, row) pair; all suffixes
    have one length."""
    with_j = [(suffix, row, v.space.involve(row)) for suffix, row in rows]
    for word, coeff in _reach(v, horizon, len(rows[0][0]) - 1):
        n = len(word)
        for k in range(1, n + 1):
            reduced = word[: k - 1] + word[k:]
            letter = word[k - 1]
            for suffix, row, j_row in with_j:
                w = weight(row[letter], j_row[letter], n, k)
                if not w.is_zero:
                    yield reduced + suffix, coeff * w


def apply_operator(op: OpSpec, v: FockVector, horizon: int | None = None) -> FockVector:
    """op applied to v, term by term in Poly arithmetic, with the slot weight
    of the model of v's space."""
    check_dimensions(op, v.space)
    kind, weight = op.kind, _qt_weight if v.space.model == "qt" else _type_b_weight
    x_row = [((), op.x)]  # the annihilator appends nothing
    t_rows = [((m,), row) for m, row in enumerate(op.t or ())]  # the gauge appends m
    if kind == "create":
        terms = _create_terms(op.x, v, horizon)
    elif kind == "annihilate":
        terms = _slot_terms(x_row, v, horizon, weight)
    elif kind == "gauge":
        terms = _slot_terms(t_rows, v, horizon, weight)
    else:
        terms = chain(
            _slot_terms(x_row, v, horizon, weight),
            _create_terms(op.x, v, horizon),
            _slot_terms(t_rows, v, horizon, weight),
        )
        if op.lam:
            terms = chain(terms, ((word, coeff * op.lam) for word, coeff in _reach(v, horizon, 0)))
    return _collect(v.space, terms)


def apply_product(ops: Sequence[OpSpec], v: FockVector, horizon: int | None = None) -> FockVector:
    """ops[0]···ops[-1] v one factor at a time; ops[i] runs with horizon h + i."""
    for i in range(len(ops) - 1, -1, -1):
        v = apply_operator(ops[i], v, None if horizon is None else horizon + i)
    return v


def vacuum_expectation(ops: Sequence[OpSpec], space: SpaceSpec) -> Poly:
    """Vacuum coefficient of ops[0]···ops[-1] Ω, with the horizon pruning."""
    return apply_product(ops, FockVector.vacuum(space), 0).coeff(())


def vacuum_coefficients(ops: Sequence[OpSpec], space: SpaceSpec) -> list[Poly]:
    """The Ω coefficient of Ω and of each ops[-k]···ops[-1] Ω, one factor at a
    time through ``fock.apply_operator`` with no horizon, so every word is
    formed: the unpruned loop behind ``fock.vacuum_expectation`` (the last
    entry) and ``orthopoly.operator_moments`` (the list, one operator repeated)."""
    v = FockVector.vacuum(space)
    out = [v.coeff(())]
    for op in reversed(ops):
        v = fock.apply_operator(op, v)
        out.append(v.coeff(()))
    return out


def act_sigma(record: GroupElementRecord, v: FockVector) -> FockVector:
    """Action of a group element on a level-n vector.

    Slot k of each word moves to slot |w(k)|, through J when w(k) < 0.
    """
    n = len(record.window)
    if any(level != n for level in v.levels()):
        raise ValueError(f"vector has words of length != {n}")
    weights, columns = [(*_slot_entry(record.window), (0, 0, 0))], _involution_columns(v.space)
    return _images(lambda word: _symmetrized_word(word, weights, columns), v)


def act_generator(i: int, v: FockVector) -> FockVector:
    """Tensor action of pi_i: slot swap for i >= 1, involution on slot 1 for i = 0.

    Words too short to contain the affected slots are left fixed.
    """
    if i < 0 or i >= v.space.truncation:
        raise ValueError(f"generator index {i} out of range")
    return _images(
        lambda word: [(word, 1)] if len(word) <= i else _generator_images(i, word, v.space), v
    )


def act_word(gens: Sequence[int], v: FockVector) -> FockVector:
    """Apply a generator word as an operator product (rightmost letter first)."""
    for g in reversed(gens):
        v = act_generator(g, v)
    return v


def free_annihilator_matrix(x: FracVector, n: int, space: SpaceSpec) -> Matrix:
    """Matrix of the free right annihilator (removes the last slot) at level n."""
    if not 1 <= n <= space.truncation:
        raise ValueError(f"level {n} out of range")
    return _level_matrix(lambda word: [(word[:-1], Poly.const(x[word[-1]]))], space.d, n, n - 1)


_MAX_COLORED_WICK_N = 8


def colored_wick_moment(prob: MomentProblem) -> Poly:
    """The colored-partition sum for phi(B(x_n)···B(x_1)), term by term.

    Visits every colored partition; the small-n oracle for ``wick_moment``.
    """
    if prob.n > _MAX_COLORED_WICK_N:
        raise ResourceLimitError(f"colored_wick_moment is guarded at n <= {_MAX_COLORED_WICK_N}")
    terms = []
    for p in enumerate_colored(prob.n):
        value = cumulant_partition(p, prob)
        if not value.is_zero:
            stats = statistics(p)
            terms.append(Poly.monomial(1, ea=stats.narc, eq=stats.rc + 2 * stats.rnarc) * value)
    return Poly.sum(terms)


def colored_vector_formula(eps: Sequence[str], prob: MomentProblem) -> FockVector:
    """b^eps(n)···b^eps(1) Ω as the sum over the eps-compatible extended partitions
    of a^narc q^(rc + max_c + 2 rnarc + 2 max_l) times the closed blocks' chains
    and the tensor of the open blocks' vectors, one partition at a time."""
    gathered: dict[Word, list[Poly]] = {}
    for p in enumerate_extended_eps(eps):
        scalar = ONE
        for b, (block, colors) in enumerate(zip(p.blocks, p.colors)):
            if len(block) >= 2 and b not in p.marked:
                scalar = scalar * closed_chain_value(block, colors, prob)
        if scalar.is_zero:
            continue
        stats = statistics(p)
        eq = stats.rc + stats.max_c + 2 * stats.rnarc + 2 * stats.max_l
        tensor = {(): Poly.monomial(1, ea=stats.narc, eq=eq)}
        for b in _open_blocks(p.blocks, p.marked):  # ordered by block maxima; a singleton's chain is x_min
            vec = open_chain_vector(p.blocks[b], p.colors[b], prob)
            tensor = {
                word + (letter,): coeff * entry
                for word, coeff in tensor.items()
                for letter, entry in enumerate(vec)
                if entry
            }
        for word, coeff in tensor.items():
            gathered.setdefault(word, []).append(coeff * scalar)
    return FockVector(prob.space, {word: Poly.sum(terms) for word, terms in gathered.items()})


def eps_compatible(p: ColoredPartition, eps: Sequence[str]) -> bool:
    """Whether the extended partition is produced by the symbol word eps.

    Per block {i_1 < ... < i_m}: the minimum is created at a star position;
    marked blocks grow by primes at every later element; unmarked blocks of
    size >= 2 grow by primes and close with a one at the maximum; singletons
    are unmarked star positions.
    """
    check_eps(eps, p.n)
    for b, block in enumerate(p.blocks):
        if eps[block[0] - 1] != STAR:
            return False
        if len(block) == 1:
            continue
        interior = block[1:] if b in p.marked else block[1:-1]
        if any(eps[i - 1] != PRIME for i in interior):
            return False
        if b not in p.marked and eps[block[-1] - 1] != ONE_SYM:
            return False
    return True


def continued_fraction_moments(
    jp: JacobiParams, depth: int, at: tuple[Fraction, Fraction, Fraction], count: int
) -> list[Fraction]:
    """Taylor coefficients of the depth-truncated continued fraction.

    Level j of the J-fraction is S_j = 1 / (1 - beta_j z - gamma_j z^2 S_{j+1}),
    cut at level ``depth`` with S_{depth+1} = 0.  Each level is solved as the
    series S_j = 1 + beta_j z S_j + gamma_j z^2 S_{j+1} S_j, one coefficient at
    a time, from level ``depth`` up to level 0.  The first 2*depth + 2
    coefficients of S_0 agree with the moment sequence (Flajolet 1980).
    """
    beta = [jp.beta(j).evaluate(*at) for j in range(depth + 1)]
    gamma = [jp.gamma(j).evaluate(*at) for j in range(depth + 1)]
    deeper = [Fraction(0)] * count  # S_{depth+1}
    for j in range(depth, -1, -1):
        level = [Fraction(1)]
        for k in range(1, count):
            convolution = sum(deeper[i] * level[k - 2 - i] for i in range(k - 1))
            level.append(beta[j] * level[k - 1] + gamma[j] * convolution)
        deeper = level
    return deeper[:count]


def leading_minors(m: Sequence[Sequence[RationalLike]]) -> list[Fraction]:
    """det of the leading k x k block of m for k = 1, 2, ..., by Fraction
    elimination with no row exchange: minor k is the product of the first k
    pivots.  It stops at the first zero minor, after which a pivot is undefined."""
    a = [[Fraction(x) for x in row] for row in m]
    minors, det = [], Fraction(1)
    for k, pivot_row in enumerate(a):
        det *= pivot_row[k]
        minors.append(det)
        if not det:
            break
        for row in a[k + 1 :]:
            factor = row[k] / pivot_row[k]
            for j in range(k, len(row)):
                row[j] -= factor * pivot_row[j]
    return minors


# -- enumeration orders ----------------------------------------------------------

Block = tuple[int, ...]


def set_partitions(n: int) -> Iterator[tuple[Block, ...]]:
    """Partitions of [n] in restricted-growth-string order, blocks ordered by maxima."""
    rgs = [0] * n

    def recurse(pos: int, top: int) -> Iterator[tuple[Block, ...]]:
        if pos >= n:
            blocks: dict[int, list[int]] = {}
            for point, label in enumerate(rgs, start=1):
                blocks.setdefault(label, []).append(point)
            yield tuple(sorted((tuple(block) for block in blocks.values()), key=max))
            return
        for label in range(top + 2):
            rgs[pos] = label
            yield from recurse(pos + 1, max(top, label))

    yield from recurse(1, 0)


def colorings(blocks: tuple[Block, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every ±1 assignment of all arcs in binary order (+1 first), cut into blocks."""
    counts = [len(block) - 1 for block in blocks]
    for assignment in product((1, -1), repeat=sum(counts)):
        out, pos = [], 0
        for count in counts:
            out.append(assignment[pos : pos + count])
            pos += count
        yield tuple(out)


FILTERS = {
    "all": lambda size: True,
    "no-singletons": lambda size: size >= 2,
    "pairs-only": lambda size: size == 2,
}


def colored_partitions(n: int, which: str = "all") -> Iterator[tuple[tuple[Block, ...], tuple]]:
    """(blocks, colors) of every colored partition that passes the filter, in order."""
    for blocks in set_partitions(n):
        if all(FILTERS[which](len(block)) for block in blocks):
            for colors in colorings(blocks):
                yield blocks, colors


def extended_partitions(n: int) -> Iterator[tuple[tuple[Block, ...], tuple, frozenset[int]]]:
    """(blocks, colors, marked): the markings of blocks of size >= 2 in subset-mask order."""
    for blocks, colors in colored_partitions(n):
        eligible = [b for b, block in enumerate(blocks) if len(block) >= 2]
        for mask in range(1 << len(eligible)):
            yield blocks, colors, frozenset(b for pos, b in enumerate(eligible) if mask >> pos & 1)


def times_generator(window: Word, g: int) -> Word:
    """The window of w·pi_g, w applied to the window of pi_g."""
    n = len(window)
    if not 0 <= g < n:
        raise ValueError(f"generator index {g} out of range for n={n}")
    image = list(range(1, n + 1))  # the window of pi_g
    if g == 0:
        image[0] = -1
    else:
        image[g - 1], image[g] = image[g], image[g - 1]
    return tuple(window[v - 1] if v > 0 else -window[-v - 1] for v in image)


def group_words(n: int) -> dict[Word, Word]:
    """Window -> minimal word of every element of B_n, in breadth-first discovery order.

    Each element is multiplied on the right by every generator, lower index
    first; the first word to reach an element is kept.
    """
    start = tuple(range(1, n + 1))
    words = {start: ()}
    queue = [start]
    for window in queue:  # the list grows while it is read
        for g in range(n):
            neighbor = times_generator(window, g)
            if neighbor not in words:
                words[neighbor] = words[window] + (g,)
                queue.append(neighbor)
    return words


def word_to_permutation(word: Word, n: int) -> Word:
    """The window of pi_{g_1}···pi_{g_k} for the word (g_1, ..., g_k), one
    generator at a time."""
    window = tuple(range(1, n + 1))
    for g in word:
        window = times_generator(window, g)
    return window


def reduced_words(window: Word) -> Iterator[Word]:
    """All reduced words of the element: each ends in a generator that shortens it.

    Exhaustive; the count grows violently with n, so this is guarded at
    n <= 4 and meant for the small well-definedness checks only.
    """
    if len(window) > 4:
        raise ResourceLimitError("reduced-word enumeration is guarded at n <= 4")
    lengths = {w: len(word) for w, word in group_words(len(window)).items()}

    def recurse(window: Word) -> Iterator[Word]:
        length = lengths[window]
        if not length:
            yield ()
            return
        for g in range(len(window)):
            shorter = times_generator(window, g)
            if lengths[shorter] == length - 1:
                for prefix in recurse(shorter):
                    yield prefix + (g,)

    return recurse(window)
