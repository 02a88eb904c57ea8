"""Small-n oracles: the Poly-level operator path, the per-partition vector
formula, and the enumeration orders of the partition and group layers.

``bfock.fock`` applies operators on packed int dicts with one denominator.
This module keeps the path it replaced: every (word, slot, row) term is a
``Poly``, the slot weight is a ``Poly`` built per term, and each word's terms
are summed once.  It clears no denominators and shares no scaling code with
the kernel or with ``moments``, so a wrong scale in either cannot cancel out
of a comparison with it.

``colored_vector_formula`` is the vector-level theorem summed one colored
extended partition at a time: ``partitions.statistics`` gives each weight and
the ``Fraction`` chains of ``moments`` give each block, so it shares none of
the moves, frozen counts or integer sums of ``moments.vector_formula``.

The enumerators keep the algorithms that ``bfock.partitions`` and
``bfock.coxeter`` replaced, so the tests can hold the faster ones to the same
sequences: ``set_partitions`` runs over restricted growth strings and
regroups each through a dict, ``colorings`` cuts one flat ±1 assignment of
all arcs into blocks, and ``group_words`` is the breadth-first search that
multiplies by every generator, descents included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Sequence

from bfock.errors import TruncationError
from bfock.fock import FockVector, OpSpec, SpaceSpec, _collect, check_dimensions
from bfock.moments import MomentProblem, closed_chain_value, open_chain_vector
from bfock.partitions import enumerate_extended_eps, statistics
from bfock.scalars import ONE, FracVector, Poly

Word = tuple[int, ...]
Terms = Iterator[tuple[Word, Poly]]

# the (q,t) kinds run the type-B kernels with the (q,t) slot weight; Y is b with λ = 0
QT_KINDS = {"qt-create": "create", "qt-annihilate": "annihilate", "qt-gauge": "gauge", "qt-y": "b"}


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
    """op applied to v, term by term in Poly arithmetic."""
    check_dimensions(op, v.space)
    kind, weight = op.kind, _type_b_weight
    if kind in QT_KINDS:
        kind, weight = QT_KINDS[kind], _qt_weight
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


def colored_vector_formula(eps: Sequence[str], prob: MomentProblem) -> FockVector:
    """b^eps(n)···b^eps(1) Ω as the sum over the eps-compatible extended partitions
    of a^narc q^(rc + max_c + 2 rnarc + 2 max_l) times the closed blocks' chains
    and the tensor of the open blocks' vectors, one partition at a time."""
    gathered: dict[Word, list[Poly]] = {}
    for p in enumerate_extended_eps(eps):
        base = p.base
        scalar = ONE
        for b, (block, colors) in enumerate(zip(base.blocks, base.colors)):
            if len(block) >= 2 and b not in p.marked:
                scalar = scalar * closed_chain_value(block, colors, prob)
        if scalar.is_zero:
            continue
        stats = statistics(p)
        eq = stats.rc + stats.max_c + 2 * stats.rnarc + 2 * stats.max_l
        tensor = {(): Poly.monomial(1, ea=stats.narc, eq=eq)}
        for b in p.open_block_indices():  # ordered by block maxima; a singleton's chain is x_min
            vec = open_chain_vector(base.blocks[b], base.colors[b], prob)
            tensor = {
                word + (letter,): coeff * entry
                for word, coeff in tensor.items()
                for letter, entry in enumerate(vec)
                if entry
            }
        for word, coeff in tensor.items():
            gathered.setdefault(word, []).append(coeff * scalar)
    return FockVector(prob.space, {word: Poly.sum(terms) for word, terms in gathered.items()})


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


def group_words(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Window -> minimal word of every element of B_n, in breadth-first discovery order.

    Each element is multiplied on the right by every generator, lower index
    first; the first word to reach an element is kept.
    """

    def times_generator(window: tuple[int, ...], g: int) -> tuple[int, ...]:
        image = list(range(1, n + 1))  # the window of pi_g
        if g == 0:
            image[0] = -1
        else:
            image[g - 1], image[g] = image[g], image[g - 1]
        return tuple(window[v - 1] if v > 0 else -window[-v - 1] for v in image)

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
