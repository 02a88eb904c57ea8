"""Colored/extended partition enumeration and statistics."""

import tracemalloc
from collections import Counter, defaultdict
from itertools import permutations, product

import pytest

import oracles
from bfock.partitions import (
    EPS_ALPHABET,
    ONE_SYM,
    PRIME,
    STAR,
    ColoredPartition,
    arc_covers,
    enumerate_colored,
    enumerate_extended,
    enumerate_extended_eps,
    set_partitions,
    statistics,
)


def colored(blocks, colors, marked=()):
    n = max(max(block) for block in blocks)
    return ColoredPartition(
        n=n, blocks=tuple(map(tuple, blocks)), colors=tuple(map(tuple, colors)), marked=frozenset(marked)
    )


# the three bulleted 12-point examples; block order follows block maxima:
# {2}, {1,4,6,7}, {3,5,10}, {9,11}, {8,12}
TWELVE_BLOCKS = [(2,), (1, 4, 6, 7), (3, 5, 10), (9, 11), (8, 12)]
TWELVE_COLORS = [(), (-1, 1, -1), (1, -1), (1,), (-1,)]


def test_paper_fixture_marked_3_5_10():
    stats = statistics(colored(TWELVE_BLOCKS, TWELVE_COLORS, marked={2}))
    assert (stats.rc, stats.rnarc, stats.narc) == (5, 1, 4)
    assert (stats.max_c, stats.max_l) == (3, 3)


def test_paper_fixture_unmarked():
    stats = statistics(colored(TWELVE_BLOCKS, TWELVE_COLORS))
    assert (stats.rc, stats.rnarc, stats.narc) == (5, 1, 4)
    assert (stats.max_c, stats.max_l) == (1, 3)


def test_paper_fixture_marked_1_4_6_7():
    stats = statistics(colored(TWELVE_BLOCKS, TWELVE_COLORS, marked={1}))
    assert (stats.rc, stats.rnarc, stats.narc) == (5, 1, 4)
    assert (stats.max_c, stats.max_l) == (2, 4)


def bell_numbers(n):
    # oracle: Bell triangle
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


@pytest.mark.parametrize("n", range(8))
def test_counting_identity(n):
    partitions = list(set_partitions(n))
    assert len(partitions) == bell_numbers(n)
    expected = sum(2 ** (n - len(blocks)) for blocks in partitions)
    assert len(list(enumerate_colored(n))) == expected


@pytest.mark.parametrize("n", range(10))
def test_set_partitions_keep_the_restricted_growth_order(n):
    assert list(set_partitions(n)) == list(oracles.set_partitions(n))


@pytest.mark.parametrize("which", ["all", "no-singletons", "pairs-only"])
@pytest.mark.parametrize("n", range(8))
def test_colored_enumeration_keeps_its_order(n, which):
    got = [(p.n, p.blocks, p.colors) for p in enumerate_colored(n, which)]
    assert got == [(n, blocks, colors) for blocks, colors in oracles.colored_partitions(n, which)]


@pytest.mark.parametrize("n", range(6))
def test_extended_enumeration_keeps_its_order(n):
    got = [(p.blocks, p.colors, p.marked) for p in enumerate_extended(n)]
    assert got == list(oracles.extended_partitions(n))


# The first partition at n = 10 is the one block [10]; its 512 colorings are
# built as one table of about 70 KB.  Building all 115,975 partitions of [10]
# takes about 19 MB.
LAZY_PEAK_BYTES = 128 * 1024


@pytest.mark.parametrize("enumerate_", [set_partitions, enumerate_colored])
def test_enumerators_stay_lazy(enumerate_):
    tracemalloc.start()
    try:
        next(enumerate_(10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LAZY_PEAK_BYTES


def test_small_counts():
    assert len(list(enumerate_colored(3))) == 11
    # pairs-only: the (n-1)!! perfect matchings, 2^(n/2) colorings each
    pairs = [len(list(enumerate_colored(n, "pairs-only"))) for n in range(7)]
    assert pairs == [1, 0, 2, 0, 12, 0, 120]
    # no-singletons at n=3: the 4 colorings of {1,2,3} only
    assert len(list(enumerate_colored(3, "no-singletons"))) == 4


def test_filters():
    for p in enumerate_colored(4, "no-singletons"):
        assert all(len(block) >= 2 for block in p.blocks)
    for p in enumerate_colored(4, "pairs-only"):
        assert all(len(block) == 2 for block in p.blocks)


def test_all_positive_embedding():
    for p in enumerate_colored(4):
        if all(c == 1 for colors in p.colors for c in colors):
            stats = statistics(p)
            assert stats.rnarc == 0 and stats.narc == 0


def arcs(p):
    """All arcs of a colored partition as (left, right, color, block_index)."""
    return [
        (block[k], block[k + 1], colors[k], b)
        for b, (block, colors) in enumerate(zip(p.blocks, p.colors))
        for k in range(len(block) - 1)
    ]


def definitional_counts(p):
    """(rc, nest, rnarc, out_arc) straight from the module docstring.

    Every ordered pair (v, w) of arcs from distinct blocks: v crosses w when
    w starts inside v and ends after it, v covers w when w lies strictly
    inside v; out_arc counts the arcs nothing covers, for noncrossing p only.
    """
    all_arcs = arcs(p)
    pairs = [(v, w) for v, w in permutations(all_arcs, 2) if v[3] != w[3]]
    rc = sum(1 for v, w in pairs if v[0] < w[0] < v[1] < w[1])
    nesting = [(v, w) for v, w in pairs if v[0] < w[0] and w[1] < v[1]]
    rnarc = sum(1 for _, w in nesting if w[2] == -1)
    covered = {w for _, w in nesting}
    out_arc = len(all_arcs) - len(covered) if rc == 0 else None
    return rc, len(nesting), rnarc, out_arc


@pytest.mark.parametrize("n", range(7))
def test_statistics_match_the_definitions(n):
    for p in enumerate_extended(n):
        stats = statistics(p)
        got = (stats.rc, stats.nest, stats.rnarc, stats.out_arc)
        assert got == definitional_counts(p), p


def test_arc_covers_fold_the_colorings():
    # over the colorings of each partition, sum a^narc q^(2 rnarc) equals the
    # product over arcs of (1 + a q^(2 cover))
    from bfock.scalars import ONE, ZERO, Poly

    for n in range(7):
        summed = {}
        for p in enumerate_colored(n):
            stats = statistics(p)
            weight = Poly.monomial(1, ea=stats.narc, eq=2 * stats.rnarc)
            summed[p.blocks] = summed.get(p.blocks, ZERO) + weight
        assert len(summed) == len(list(set_partitions(n)))
        for blocks, value in summed.items():
            folded = ONE
            for cover in (c for block_covers in arc_covers(blocks)[1] for c in block_covers):
                folded = folded * (ONE + Poly.monomial(1, ea=1, eq=2 * cover))
            assert value == folded, blocks


def test_noncrossing_and_nonnesting():
    for p in enumerate_colored(5):
        stats = statistics(p)
        if stats.rc == 0:
            assert stats.out_arc is not None
        else:
            assert stats.out_arc is None
        if stats.nest == 0:
            assert stats.rnarc == 0


def test_noncrossing_counts():
    # rc == 0 selects the noncrossing partitions: the Catalan numbers, and
    # 1, 0, 1, 1, 3, 6, 15, 36 of them without singletons
    noncrossing = [[b for b in set_partitions(n) if arc_covers(b)[0] == 0] for n in range(8)]
    assert [len(found) for found in noncrossing] == [1, 1, 2, 5, 14, 42, 132, 429]
    no_singletons = [sum(all(len(block) >= 2 for block in b) for b in found) for found in noncrossing]
    assert no_singletons == [1, 0, 1, 1, 3, 6, 15, 36]


def test_extended_enumeration_contains_marked_triples():
    found = set()
    for p in enumerate_extended(3):
        if p.blocks == ((1, 2, 3),):
            found.add((p.colors, tuple(sorted(p.marked))))
    colorings = {((c1, c2),) for c1 in (1, -1) for c2 in (1, -1)}
    assert {item[0] for item in found if item[1] == ()} == colorings
    assert {item[0] for item in found if item[1] == (0,)} == colorings


def test_extended_count():
    # each partition contributes 2^{#arcs} colorings x 2^{#big blocks} markings
    total = 0
    for blocks in set_partitions(4):
        arcs = sum(len(block) - 1 for block in blocks)
        big = sum(1 for block in blocks if len(block) >= 2)
        total += 2**arcs * 2**big
    assert len(list(enumerate_extended(4))) == total


def test_eps_single_symbol():
    assert [p.blocks for p in enumerate_extended_eps(["*"])] == [((1,),)]
    assert list(enumerate_extended_eps(["1"])) == []
    assert list(enumerate_extended_eps(["'"])) == []


def test_eps_star_one_and_star_prime():
    closed = list(enumerate_extended_eps(["*", "1"]))
    assert {p.colors for p in closed} == {((1,),), ((-1,),)}
    assert all(p.marked == frozenset() for p in closed)
    marked = list(enumerate_extended_eps(["*", "'"]))
    assert {p.colors for p in marked} == {((1,),), ((-1,),)}
    assert all(p.marked == frozenset({0}) for p in marked)


def test_eps_unbalanced_prefix_is_empty():
    assert list(enumerate_extended_eps(["*", "1", "1"])) == []
    assert list(enumerate_extended_eps(["'", "*"])) == []


def own_word(p):
    """The one eps word p is compatible with: a star at each block minimum,
    a one at each unmarked block's maximum, and a prime elsewhere."""
    symbols = [PRIME] * p.n
    for b, block in enumerate(p.blocks):
        if b not in p.marked:
            symbols[block[-1] - 1] = ONE_SYM
        symbols[block[0] - 1] = STAR
    return tuple(symbols)


@pytest.mark.parametrize("n", range(1, 7))
def test_eps_enumeration_matches_compatibility_filter(n):
    # key every extended partition by its own word, then hold each word's
    # direct enumeration to the multiset of partitions keyed by it
    by_word = defaultdict(Counter)
    for p in enumerate_extended(n):
        eps = own_word(p)
        if n <= 4:  # every extended partition is compatible with exactly one eps word
            assert [w for w in product(EPS_ALPHABET, repeat=n) if oracles.eps_compatible(p, w)] == [eps]
        else:
            assert oracles.eps_compatible(p, eps)
        by_word[eps][p.blocks, p.colors, p.marked] += 1
    for eps in product(EPS_ALPHABET, repeat=n):
        direct = Counter((p.blocks, p.colors, p.marked) for p in enumerate_extended_eps(eps))
        assert direct == by_word.get(eps, Counter())


@pytest.mark.parametrize(
    "blocks,colors,match",
    [
        (((1,),), ((),), "do not partition"),
        (((2, 1),), ((1,),), "sorted ascending"),
        (((1, 2),), ((),), "one color per"),
    ],
    ids=["missing-point", "unsorted-block", "missing-color"],
)
def test_colored_partition_validation(blocks, colors, match):
    with pytest.raises(ValueError, match=match):
        ColoredPartition(n=2, blocks=blocks, colors=colors)


@pytest.mark.parametrize("marked", [5, 2, -1])
def test_marked_index_must_name_a_block(marked):
    with pytest.raises(ValueError, match="out of range"):
        ColoredPartition(n=3, blocks=((2,), (1, 3)), colors=((), (1,)), marked=frozenset({marked}))


@pytest.mark.parametrize("n", range(7))
def test_enumerated_partitions_pass_the_public_validation(n):
    # the enumerators skip __post_init__; rebuilding from lists through the
    # public constructor validates each partition and normalizes it to an
    # equal one with an equal hash
    def same_when_rebuilt(p):
        q = ColoredPartition(p.n, [list(b) for b in p.blocks], [list(c) for c in p.colors], set(p.marked))
        return q == p and hash(q) == hash(p)

    assert all(map(same_when_rebuilt, enumerate_colored(n)))
    extended = list(enumerate_extended(n))
    assert all(map(same_when_rebuilt, extended))
    by_eps = [p for eps in product(EPS_ALPHABET, repeat=n) for p in enumerate_extended_eps(eps)]
    assert all(map(same_when_rebuilt, by_eps))
    assert len(by_eps) == len(extended)  # each extended partition has one eps word
