"""Colored set partitions of type B and their statistics.

A colored partition of [n] = {1, ..., n} assigns a ±1 color to every arc,
where the arcs of a block are the pairs of consecutive elements; singletons
carry no arcs (their implicit color is +1).  Blocks are ordered by their
maxima.  A partition may also mark ("prime") some blocks of size at least
two, which makes it an *extended* partition; marked blocks and singletons
are the *open* blocks.  There is one type, ``ColoredPartition``, and an
unmarked partition is one whose marking is empty.

Statistics (all counted over pairs of arcs from distinct blocks):

* rc      - interleaving pairs i < i' < j < j'
* nest    - pairs where one arc strictly covers the other (color-blind;
            the CSV of ``bfock partitions`` names its column ``rarc``)
* rnarc   - nesting pairs whose inner arc is colored -1
* narc    - number of -1 arcs
* max_c   - (open block V, arc W) pairs with W covering max(V)
* max_l   - (open block V, -1 arc W) pairs with W entirely right of max(V)
* m_left  - like max_l but color-blind
* out_arc - arcs covered by no other arc; only for noncrossing partitions

``arc_covers`` is the one pass over pairs of arcs: it gives the color-blind
part (rc and the per-arc cover counts) of an uncolored partition, for the
sums that fold the colorings away.  ``statistics`` reads rc, nest (the sum
of the covers), rnarc (the covers of the -1 arcs) and out_arc (the arcs of
cover 0) from the same pass, and relates open blocks to its list of arcs.

The enumerators build their partitions through ``_colored``, which skips
``__post_init__``: what they build is valid by construction, and it must be
in the normal form the constructor stores (blocks and colors as tuples, the
marking as a frozenset), so that equal partitions hash equal.  A test
rebuilds every one of them from lists through the public constructor.
Every other construction keeps its full validation.

Enumeration order is deterministic: uncolored partitions in restricted-
growth-string order, colorings in binary order (+1 before -1) from the one
``_colorings`` (one cached table per arc count), markings in subset-mask
order; ``enumerate_extended_eps`` grows only the uncolored blocks its word
allows before coloring them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import ResourceLimitError

MAX_COLORED_N = 10
MAX_EXTENDED_N = 8

STAR, ONE_SYM, PRIME = "*", "1", "'"
EPS_ALPHABET = (STAR, ONE_SYM, PRIME)

Block = tuple[int, ...]
Colors = tuple[int, ...]


@dataclass(frozen=True)
class ColoredPartition:
    """Set partition of [n] with ±1 arc colors and a set of marked (open) blocks
    of size >= 2, by index; blocks ordered by maxima.  Stores blocks and colors
    as tuples and the marking as a frozenset."""

    n: int
    blocks: tuple[Block, ...]
    colors: tuple[Colors, ...]
    marked: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must not be negative")
        seen = sorted(x for block in self.blocks for x in block)
        if seen != list(range(1, self.n + 1)):
            raise ValueError("blocks do not partition [n]")
        if any(list(block) != sorted(block) for block in self.blocks):
            raise ValueError("blocks must be sorted ascending")
        if list(self.blocks) != sorted(self.blocks, key=max):
            raise ValueError("blocks must be ordered by their maxima")
        for block, colors in zip(self.blocks, self.colors, strict=True):
            if len(colors) != len(block) - 1:
                raise ValueError("one color per consecutive-element arc")
            if any(c not in (1, -1) for c in colors):
                raise ValueError("colors must be ±1")
        for b in self.marked:
            if b not in range(len(self.blocks)):
                raise ValueError(f"marked block index {b} is out of range")
            if len(self.blocks[b]) < 2:
                raise ValueError("only blocks of size >= 2 may be marked")
        self.__dict__.update(blocks=tuple(map(tuple, self.blocks)),
                             colors=tuple(map(tuple, self.colors)), marked=frozenset(self.marked))


def _open_blocks(blocks: Sequence[Block], marked: frozenset[int]) -> list[int]:
    """The open blocks, marked ones and singletons, in block (max) order."""
    return [b for b, block in enumerate(blocks) if b in marked or len(block) == 1]


def _colored(
    n: int, blocks: tuple[Block, ...], colors: tuple[Colors, ...], marked: frozenset[int]
) -> ColoredPartition:
    """The enumerators' constructor, without ``__post_init__`` (see the module
    docstring): each field, already in normal form, goes straight into the
    instance dict, which costs far less per object than a keyword call."""
    p = object.__new__(ColoredPartition)
    fields = p.__dict__
    fields["n"] = n
    fields["blocks"] = blocks
    fields["colors"] = colors
    fields["marked"] = marked
    return p


@dataclass(frozen=True)
class PartitionStats:
    rc: int
    nest: int
    rnarc: int
    narc: int
    max_c: int
    max_l: int
    m_left: int
    out_arc: int | None


def statistics(p: ColoredPartition) -> PartitionStats:
    """All partition statistics; the marking decides only max_c, max_l and m_left."""
    rc, covers, arcs = _arc_pass(p.blocks)
    colors = p.colors
    nest = narc = rnarc = out_arc = 0
    for _, _, b, k in arcs:
        cover = covers[b][k]
        nest += cover
        out_arc += not cover
        if colors[b][k] == -1:
            narc += 1
            rnarc += cover

    max_c = max_l = m_left = 0
    for b in _open_blocks(p.blocks, p.marked):
        top = p.blocks[b][-1]
        for i, j, b2, k in arcs:
            if i < top < j:
                max_c += 1
            elif top < i:
                m_left += 1
                if colors[b2][k] == -1:
                    max_l += 1

    return PartitionStats(
        rc=rc,
        nest=nest,
        rnarc=rnarc,
        narc=narc,
        max_c=max_c,
        max_l=max_l,
        m_left=m_left,
        # arcs within one block share endpoints or are disjoint, so rc == 0
        # already means the partition is noncrossing
        out_arc=out_arc if rc == 0 else None,
    )


def arc_covers(blocks: Sequence[Block]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Color-blind arc statistics of an uncolored partition: ``(rc, covers)``.

    ``covers[b][k]`` counts the arcs strictly covering the k-th arc of block b.
    """
    rc, covers, _ = _arc_pass(blocks)
    return rc, tuple(map(tuple, covers))


def _arc_pass(
    blocks: Sequence[Block],
) -> tuple[int, list[list[int]], list[tuple[int, int, int, int]]]:
    """``(rc, covers, arcs)``, with arcs as (left, right, block, k) ordered by left end.

    The one pass over pairs of arcs that classifies them: no point is the
    left (or right) end of two arcs, so with arcs ordered by left end, a later
    arc that starts inside an arc either crosses it or is covered by it.
    Arcs of one block share endpoints or are disjoint, so every crossing or
    covering arc lies in another block.
    """
    covers = [[0] * (len(block) - 1) for block in blocks]
    arcs = sorted(
        (block[k], block[k + 1], b, k)
        for b, block in enumerate(blocks)
        for k in range(len(block) - 1)
    )
    rc = 0
    for idx, (_, j, _, _) in enumerate(arcs):
        for i2, j2, b, k in arcs[idx + 1 :]:
            if i2 >= j:
                break
            if j2 < j:
                covers[b][k] += 1
            else:
                rc += 1
    return rc, covers, arcs


# -- enumeration ---------------------------------------------------------------

_last = itemgetter(-1)


def set_partitions(n: int) -> Iterator[tuple[Block, ...]]:
    """Uncolored partitions of [n] in restricted-growth-string order.

    Blocks grow directly: point k joins each existing block in order of
    minima, then opens a new block, which is the restricted-growth-string
    order with no string to regroup (Knuth, TAOCP 4A, §7.2.1.5).  The blocks
    of each partition are ordered by their last (largest) element.  A lazy
    generator: each partition is built only when it is asked for.
    """
    if n < 0:
        raise ValueError("n must not be negative")
    if n == 0:
        yield ()
        return

    def grow(state: tuple[Block, ...], point: int) -> Iterator[tuple[Block, ...]]:
        # state: the blocks of [point - 1] in order of minima
        if point == n:  # the last point: order the blocks by maxima once for all its moves
            by_max = sorted(state, key=_last)
            for block in state:
                at = by_max.index(block)
                yield (*by_max[:at], *by_max[at + 1 :], block + (n,))
            yield (*by_max, (n,))
            return
        for b, block in enumerate(state):
            yield from grow(state[:b] + (block + (point,),) + state[b + 1 :], point + 1)
        yield from grow(state + ((point,),), point + 1)

    yield from grow((), 1)


def _passes_filter(blocks: tuple[Block, ...], which: str) -> bool:
    if which == "all":
        return True
    if which == "no-singletons":
        return all(len(block) >= 2 for block in blocks)
    if which == "pairs-only":
        return all(len(block) == 2 for block in blocks)
    raise ValueError(f"unknown filter {which!r}")


@cache
def _block_colorings(arcs: int) -> tuple[Colors, ...]:
    """The colorings of one block with ``arcs`` arcs, built the first time a block needs them."""
    return tuple(product((1, -1), repeat=arcs))


def _colorings(blocks: tuple[Block, ...]) -> Iterator[tuple[Colors, ...]]:
    """The colorings of blocks in binary order of their concatenation (+1 before -1).

    A product of per-block lexicographic products is the binary order of the
    concatenated colorings.
    """
    return product(*[_block_colorings(len(block) - 1) for block in blocks])


def enumerate_colored(n: int, which: str = "all") -> Iterator[ColoredPartition]:
    """All colored partitions of [n]; 2^{#arcs} colorings per partition."""
    if n > MAX_COLORED_N or n < 0:
        raise ResourceLimitError(f"colored enumeration supports 0 <= n <= {MAX_COLORED_N}")
    unmarked: frozenset[int] = frozenset()
    for blocks in set_partitions(n):
        if not _passes_filter(blocks, which):
            continue
        for colors in _colorings(blocks):
            yield _colored(n, blocks, colors, unmarked)


def enumerate_extended(n: int) -> Iterator[ColoredPartition]:
    """Every (partition, coloring, marking) triple; markings in mask order."""
    if n > MAX_EXTENDED_N or n < 0:
        raise ResourceLimitError(f"extended enumeration supports 0 <= n <= {MAX_EXTENDED_N}")
    for p in enumerate_colored(n):
        eligible = [b for b, block in enumerate(p.blocks) if len(block) >= 2]
        for mask in range(1 << len(eligible)):
            marked = frozenset(b for pos, b in enumerate(eligible) if mask >> pos & 1)
            yield _colored(n, p.blocks, p.colors, marked)


def check_eps(eps: Sequence[str], n: int) -> None:
    """The one check of a symbol word: one symbol of ``EPS_ALPHABET`` per point of [n]."""
    if len(eps) != n or any(symbol not in EPS_ALPHABET for symbol in eps):
        raise ValueError("eps must be over {*, 1, '} with one symbol per point")


def enumerate_extended_eps(eps: Sequence[str]) -> Iterator[ColoredPartition]:
    """Extended partitions compatible with eps, built by direct construction.

    Point by point, a star opens a block, a prime joins an open block, and a
    one joins an open block and closes it.  The blocks are then ordered by
    their maxima, the ones still open with two or more points are marked,
    and ``_colorings`` colors them.
    """
    n = len(eps)
    if n > MAX_EXTENDED_N or n < 0:
        raise ResourceLimitError(f"extended enumeration supports 0 <= n <= {MAX_EXTENDED_N}")
    check_eps(eps, n)

    # state: (block, still open) pairs in order of minima
    def grow(point: int, state: tuple[tuple[Block, bool], ...]) -> Iterator[ColoredPartition]:
        if point > n:
            ordered = sorted(state, key=lambda entry: entry[0][-1])
            blocks = tuple(block for block, _ in ordered)
            marked = frozenset(b for b, (block, is_open) in enumerate(ordered) if is_open and len(block) > 1)
            for colors in _colorings(blocks):
                yield _colored(n, blocks, colors, marked)
            return
        symbol = eps[point - 1]
        if symbol == STAR:
            yield from grow(point + 1, state + (((point,), True),))
            return
        for b, (block, is_open) in enumerate(state):
            if is_open:
                yield from grow(point + 1, (*state[:b], (block + (point,), symbol == PRIME), *state[b + 1 :]))

    yield from grow(1, ())
