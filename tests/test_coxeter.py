"""Hyperoctahedral group: BFS enumeration, length statistics, relations."""

from collections import Counter

import pytest

import oracles
from bfock.coxeter import GroupElementRecord, SignedPermutation, enumerate_group
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
    got = [(r.perm.window, r.l1, r.l2, r.word) for r in enumerate_group(n)]
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
    lengths = {record.perm.window: len(record.word) for record in enumerate_group(n)}
    for record in enumerate_group(n):
        for g in range(n):
            step = lengths[times_generator(record.perm.window, g)] - len(record.word)
            assert step == (-1 if _is_right_descent(record.perm.window, g) else 1)


def test_n1_elements():
    records = enumerate_group(1)
    assert len(records) == 2
    stats = {record.perm.window: (record.l1, record.l2) for record in records}
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
            assert word_to_permutation(record.word, n) == record.perm


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_records_match_the_public_constructors(n):
    # the table skips SignedPermutation's validation; rebuilding each record
    # through the public constructors validates it and must give an equal one
    for record in enumerate_group(n):
        perm = SignedPermutation(record.perm.window)
        assert word_to_permutation(record.word, n) == perm
        l1 = record.word.count(0)
        assert GroupElementRecord(perm, l1, len(record.word) - l1, record.word) == record


def _length_stats(window):
    """(l1, l2) of the element's record."""
    record = next(record for record in enumerate_group(len(window)) if record.perm.window == window)
    return record.l1, record.l2


def test_length_stats_of_generators():
    assert _length_stats((1, 2, 3)) == (0, 0)
    assert _length_stats((-1, 2, 3)) == (1, 0)
    assert _length_stats((2, 1, 3)) == (0, 1)


def test_longest_element_sigma2():
    assert _length_stats((-1, -2)) == (2, 2)


def test_generator_relations():
    n = 4
    e = SignedPermutation.identity(n)
    pi = [word_to_permutation((i,), n) for i in range(n)]
    for g in pi:
        assert g * g == e
    assert _power(pi[0] * pi[1], 4) == e
    for i in (1, 2):
        assert _power(pi[i] * pi[i + 1], 3) == e
    for i in range(n):
        for j in range(n):
            if abs(i - j) >= 2:
                assert _power(pi[i] * pi[j], 2) == e


def _power(perm, k):
    out = SignedPermutation.identity(perm.n)
    for _ in range(k):
        out = out * perm
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stats_well_defined_over_all_reduced_words(n):
    for record in enumerate_group(n):
        words = list(reduced_words(record.perm))
        assert record.word in words
        for word in words:
            assert len(word) == len(record.word)
            assert word.count(0) == record.l1
            assert len(word) - word.count(0) == record.l2
            assert word_to_permutation(word, n) == record.perm


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_l1_equals_negative_entries_empirically(n):
    # spec open question: plausible from type-B theory, verified here, never assumed
    for record in enumerate_group(n):
        assert record.l1 == sum(v < 0 for v in record.perm.window)


def test_inverse_and_compose():
    # every generator is an involution, so the reversed word is the inverse
    for record in enumerate_group(3):
        perm, inverse = record.perm, word_to_permutation(record.word[::-1], 3)
        assert perm * inverse == SignedPermutation.identity(3)
        assert inverse * perm == SignedPermutation.identity(3)


def test_resource_guard():
    for n in (-1, 8):
        with pytest.raises(ResourceLimitError, match="supports 0 <= n <= 7"):
            enumerate_group(n)
    # B_0 is the trivial group: its one element is the empty window
    assert enumerate_group(0) == (GroupElementRecord(SignedPermutation(()), 0, 0, ()),)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        SignedPermutation.identity(2) * SignedPermutation.identity(3)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: SignedPermutation((1, 1)), "not a signed permutation window"),
        (lambda: SignedPermutation((1, 3)), "not a signed permutation window"),
        (lambda: word_to_permutation((2,), 2), "generator index 2 out of range"),
        (lambda: word_to_permutation((-1,), 2), "generator index -1 out of range"),
    ],
    ids=["repeated-entry", "entry-past-n", "generator-past-n", "negative-generator"],
)
def test_signed_permutations_reject_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
