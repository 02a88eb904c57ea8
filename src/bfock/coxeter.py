"""The hyperoctahedral group: signed permutations with length statistics.

An element of B_n is its window, a signed permutation of {±1, ..., ±n}
(window[k-1] = image of k; the image of -k is forced by sigma(-k) = -sigma(k)).
The group is generated by the sign flip pi_0 (1 -> -1) and the adjacent
transpositions pi_i (i <-> i+1).

Enumeration is breadth-first from the identity, which yields one canonical
minimal word per element (generator indices ascending as tie-break).  The
search expands only right ascents: w·pi_g is shorter than w exactly when g
is a right descent of w, that is w(1) < 0 for g = 0 and w(g) > w(g+1)
otherwise (Björner & Brenti, *Combinatorics of Coxeter Groups*,
Prop. 8.1.2), and a shorter neighbour was recorded one level earlier.
Skipping descents leaves every word and the record order unchanged.  The
statistics l1 (count of pi_0 letters) and l2 (count of pi_i, i >= 1, letters)
are read off that word; they are invariants of the element, which the test
suite checks exhaustively for small n rather than assuming, against every
reduced word (``tests/oracles.py`` keeps the reduced words and the replay of
a word as a window).

A word (g_1, ..., g_k) denotes the product pi_{g_1} · pi_{g_2} ··· pi_{g_k},
i.e. the rightmost letter acts first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ResourceLimitError

MAX_GROUP_RANK = 7

Window = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class GroupElementRecord:
    """A group element's window with its canonical minimal word and (l1, l2)."""

    window: Window
    l1: int
    l2: int
    word: tuple[int, ...]


def _right_multiply(window: Window, g: int) -> Window:
    # window of sigma·pi_g: pi_0 flips the first entry, pi_i swaps entries i-1, i
    w = list(window)
    if g == 0:
        w[0] = -w[0]
    else:
        w[g - 1], w[g] = w[g], w[g - 1]
    return tuple(w)


@lru_cache(maxsize=None)
def _group_table(n: int) -> tuple[GroupElementRecord, ...]:
    start = tuple(range(1, n + 1))
    words: dict[Window, tuple[int, ...]] = {start: ()}
    order: list[Window] = [start]
    for window in order:  # the list grows while it is read: a breadth-first queue
        word = words[window]
        for g in range(n):
            if (window[0] < 0) if g == 0 else (window[g - 1] > window[g]):
                continue  # a right descent: the neighbour is shorter, so already recorded
            neighbor = _right_multiply(window, g)
            if neighbor not in words:
                words[neighbor] = word + (g,)
                order.append(neighbor)
    records = []
    for window, word in words.items():  # BFS order
        l1 = word.count(0)
        records.append(GroupElementRecord(window, l1, len(word) - l1, word))
    return tuple(records)


def enumerate_group(n: int) -> tuple[GroupElementRecord, ...]:
    """All 2^n n! elements in BFS discovery order, with minimal words; B_0 is
    the trivial group, its one element the empty window."""
    if not 0 <= n <= MAX_GROUP_RANK:
        raise ResourceLimitError(
            f"group enumeration supports 0 <= n <= {MAX_GROUP_RANK}, got {n}"
        )
    return _group_table(n)
