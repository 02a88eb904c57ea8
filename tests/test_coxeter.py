"""Hyperoctahedral group: BFS enumeration, length statistics, relations."""

from collections import Counter

import pytest

import oracles
from bfock.coxeter import GroupElementRecord, enumerate_group
from bfock.errors import ResourceLimitError
from bfock.scalars import ALPHA, ONE, Q, Poly, qint
from oracles import reduced_words, times_generator, word_to_permutation


def test_group_sizes():
    for n in range(1, 6):
        assert len(enumerate_group(n)) == 2**n * _factorial(n)


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_group_records_keep_the_bfs_words_and_order(n):
    # the table expands right ascents only; the search over every generator
    # must find the same words in the same order
    got = [(r.window, r.l1, r.l2, r.word) for r in enumerate_group(n)]
    expected = [
        (window, word.count(0), len(word) - word.count(0), word)
        for window, word in oracles.group_words(n).items()
    ]
    assert got == expected


def _is_right_descent(window, g):
    # Björner & Brenti, Prop. 8.1.2: w(1) < 0 for g = 0, w(g) > w(g+1) otherwise
    return window[0] < 0 if g == 0 else window[g - 1] > window[g]


@pytest.mark.parametrize("n", range(1, 6))
def test_a_generator_shortens_exactly_the_right_descents(n):
    lengths = {record.window: len(record.word) for record in enumerate_group(n)}
    for record in enumerate_group(n):
        for g in range(n):
            step = lengths[times_generator(record.window, g)] - len(record.word)
            assert step == (-1 if _is_right_descent(record.window, g) else 1)


def test_n1_elements():
    records = enumerate_group(1)
    assert len(records) == 2
    stats = {record.window: (record.l1, record.l2) for record in records}
    assert stats[(1,)] == (0, 0)
    assert stats[(-1,)] == (1, 0)


def test_n2_stat_multiset():
    # oracle: exhaustive BFS over the 8-element group
    oracle = oracles.group_words(2)
    expected = Counter(
        (word.count(0), len(word) - word.count(0)) for word in oracle.values()
    )
    assert expected == Counter(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 2): 1, (2, 2): 1}
    )
    got = Counter((r.l1, r.l2) for r in enumerate_group(2))
    assert got == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stat_generating_product(n):
    # direct group sum vs the product formula prod_k (1 + a q^(k-1)) [k]_q
    lhs = Poly()
    for record in enumerate_group(n):
        lhs = lhs + Poly.monomial(1, ea=record.l1, eq=record.l2)
    rhs = ONE
    for k in range(1, n + 1):
        rhs = rhs * (ONE + ALPHA * Q ** (k - 1)) * qint(k)
    assert lhs == rhs


def test_words_reproduce_elements():
    for n in (2, 3):
        for record in enumerate_group(n):
            assert word_to_permutation(record.word, n) == record.window


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_records_match_the_public_constructors(n):
    # every window is a signed permutation, and the record rebuilt from its
    # word alone (the word replayed as a window, l1 and l2 counted) is equal
    for record in enumerate_group(n):
        assert sorted(abs(v) for v in record.window) == list(range(1, n + 1))
        l1 = record.word.count(0)
        window = word_to_permutation(record.word, n)
        assert GroupElementRecord(window, l1, len(record.word) - l1, record.word) == record


def _length_stats(window):
    """(l1, l2) of the element's record."""
    record = next(record for record in enumerate_group(len(window)) if record.window == window)
    return record.l1, record.l2


def test_length_stats_of_generators():
    assert _length_stats((1, 2, 3)) == (0, 0)
    assert _length_stats((-1, 2, 3)) == (1, 0)
    assert _length_stats((2, 1, 3)) == (0, 1)


def test_longest_element_sigma2():
    assert _length_stats((-1, -2)) == (2, 2)


def test_generator_relations():
    # each relation's word, replayed one generator at a time, is the identity
    n = 4
    e = tuple(range(1, n + 1))
    for i in range(n):
        assert word_to_permutation((i, i), n) == e
    assert word_to_permutation((0, 1) * 4, n) == e
    assert word_to_permutation((0, 1) * 2, n) != e
    for i in (1, 2):
        assert word_to_permutation((i, i + 1) * 3, n) == e
    for i in range(n):
        for j in range(n):
            if abs(i - j) >= 2:
                assert word_to_permutation((i, j) * 2, n) == e


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stats_well_defined_over_all_reduced_words(n):
    for record in enumerate_group(n):
        words = list(reduced_words(record.window))
        assert record.word in words
        for word in words:
            assert len(word) == len(record.word)
            assert word.count(0) == record.l1
            assert len(word) - word.count(0) == record.l2
            assert word_to_permutation(word, n) == record.window


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_l1_equals_negative_entries_empirically(n):
    # spec open question: plausible from type-B theory, verified here, never assumed
    for record in enumerate_group(n):
        assert record.l1 == sum(v < 0 for v in record.window)


def test_inverse_and_compose():
    # every generator is an involution, so the reversed word is the inverse:
    # the word followed by its reverse, either way round, replays to the identity
    e = (1, 2, 3)
    for record in enumerate_group(3):
        assert word_to_permutation(record.word + record.word[::-1], 3) == e
        assert word_to_permutation(record.word[::-1] + record.word, 3) == e


def test_resource_guard():
    for n in (-1, 8):
        with pytest.raises(ResourceLimitError, match="supports 0 <= n <= 7"):
            enumerate_group(n)
    # B_0 is the trivial group: its one element is the empty window
    assert enumerate_group(0) == (GroupElementRecord((), 0, 0, ()),)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: word_to_permutation((2,), 2), "generator index 2 out of range"),
        (lambda: word_to_permutation((-1,), 2), "generator index -1 out of range"),
    ],
    ids=["generator-past-n", "negative-generator"],
)
def test_signed_permutations_reject_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
