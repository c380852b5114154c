"""Permutation and word statistics, alternation patterns, bijections, and one walk.

Words are tuples of distinct positive integers; permutations of order n
are words whose letters are exactly 1..n.  The statistics extend to
arbitrary words of distinct letters: a position i is a descent when
w[i] > w[i+1]; a value v lies in the inverse descent set when v+1 occurs
strictly earlier in the word than v.

Alternation is read off the descent word (bit i True when w[i] > w[i+1]):
a word is rising alternating, y1 < y2 > y3 < ..., when its descent word is
``zigzag(len, True)``, descents at the odd bits, and falling alternating
when it is ``zigzag(len, False)``.

``walk`` enumerates S_n, or its alternating permutations, with each
permutation's descent word, inv, ides and imaj carried along the prefix;
``statistics`` and ``descent_word`` stay the definitions it is tested
against, and compute the statistics of words the walk never visits.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from qderiv import ring

Word = Tuple[int, ...]
Row = Tuple[Word, Tuple[bool, ...], int, int, int]  # a permutation, its descent word, inv, ides, imaj


class WordStats(NamedTuple):
    inv: int
    ligne: frozenset
    iligne: frozenset
    des: int
    ides: int
    maj: int
    imaj: int


def inv(word: Sequence[int]) -> int:
    count = 0
    for i in range(len(word)):
        wi = word[i]
        for j in range(i + 1, len(word)):
            if wi > word[j]:
                count += 1
    return count


def ligne(word: Sequence[int]) -> frozenset:
    """Descent positions, 1-based."""
    return frozenset(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def iligne(word: Sequence[int]) -> frozenset:
    """Values v whose successor v+1 occurs earlier in the word."""
    pos = {v: i for i, v in enumerate(word)}
    return frozenset(v for v in word if v + 1 in pos and pos[v + 1] < pos[v])


def statistics(word: Sequence[int]) -> WordStats:
    word = tuple(word)
    lg = ligne(word)
    ilg = iligne(word)
    return WordStats(
        inv=inv(word),
        ligne=lg,
        iligne=ilg,
        des=len(lg),
        ides=len(ilg),
        maj=sum(lg),
        imaj=sum(ilg),
    )


def descent_word(word: Sequence[int]) -> Tuple[bool, ...]:
    """Bit i is True when position i is a descent, word[i] > word[i+1]."""
    return tuple(map(operator.gt, word, word[1:]))


@lru_cache(maxsize=None)
def zigzag(length: int, rising: bool) -> Tuple[bool, ...]:
    """Descent word of an alternating word of ``length`` letters."""
    return tuple(i % 2 == rising for i in range(length - 1))


def _check_permutation(word: Sequence[int]) -> Word:
    word = tuple(word)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError("not a permutation of 1..n: %r" % (word,))
    return word


def inverse(sigma: Sequence[int]) -> Word:
    sigma = _check_permutation(sigma)
    out = [0] * len(sigma)
    for pos, v in enumerate(sigma, start=1):
        out[v - 1] = pos
    return tuple(out)


def mirror_rho(sigma: Sequence[int]) -> Word:
    return tuple(reversed(tuple(sigma)))


def complement_gamma(sigma: Sequence[int]) -> Word:
    sigma = _check_permutation(sigma)
    n = len(sigma)
    return tuple(n + 1 - v for v in sigma)


def foata_phi(word: Sequence[int]) -> Word:
    """Second fundamental transformation.

    Built left to right: after the image v has been formed and the next
    letter a arrives, cut v after every letter <= a when v ends with a
    letter <= a (otherwise after every letter > a), rotate the last
    letter of each factor to its front, then append a.  Sends maj to inv
    and preserves the inverse descent set.
    """
    word = tuple(word)
    if len(word) < 2:
        return word
    image = [word[0]]
    for a in word[1:]:
        small = image[-1] <= a
        rebuilt = []
        block_start = 0
        for i, y in enumerate(image):
            if (y <= a) == small:
                rebuilt.append(image[i])
                rebuilt.extend(image[block_start:i])
                block_start = i + 1
        image = rebuilt
        image.append(a)
    return tuple(image)


def psi(sigma: Sequence[int]) -> Word:
    """Conjugate of the second fundamental transformation by inversion.

    Preserves the descent set and sends the inverse major index to the
    inversion number.
    """
    return inverse(foata_phi(inverse(sigma)))


def walk(n: int, rising: Optional[bool] = None) -> Iterator[Row]:
    """``(word, descent word, inv, ides, imaj)`` for every permutation of
    1..n, in lexicographic order; with ``rising`` set, only those whose
    descent word is ``zigzag(n, rising)``.

    A prefix walk: appending a letter a to a prefix updates each statistic
    from a alone.  The descent word gains ``last > a``; inv gains one for
    each placed letter greater than a; a joins iligne, adding 1 to ides
    and a to imaj, exactly when a + 1 is already placed.  With a pattern,
    a prefix is extended only by letters that keep its descent word on it.
    The stack is explicit, so no order reaches the recursion limit.
    """
    pattern = None if rising is None else zigzag(n, rising)
    rows = [((), (), 0, 0, 0)]
    if n == 0:
        yield rows[0]
    placed = [False] * (n + 2)  # placed[n + 1] stays False
    # stack[d]: the free letters still to try after the prefix rows[d],
    # ascending; deeper levels restore ``placed`` before this one resumes
    stack = [iter(range(1, n + 1))]
    while stack:
        a = next(stack[-1], 0)
        if not a:
            stack.pop()
            word = rows.pop()[0]
            if word:
                placed[word[-1]] = False
            continue
        word, desc, inversions, ides, imaj = rows[-1]
        if word:
            desc += (word[-1] > a,)
        if placed[a + 1]:
            ides += 1
            imaj += a
        row = (word + (a,), desc, inversions + placed[a + 1 :].count(True), ides, imaj)
        if len(row[0]) == n:
            yield row
            continue
        rows.append(row)
        placed[a] = True
        if pattern is None:
            span = range(1, n + 1)
        else:
            span = range(1, a) if pattern[len(word)] else range(a + 1, n + 1)
        stack.append(iter([v for v in span if not placed[v]]))


def alternating_tally(n: int, rising: bool) -> Tuple[List[int], List[int]]:
    """The inv and the imaj generating polynomials of the permutations of
    1..n whose descent word is ``zigzag(n, rising)``, as coefficient lists,
    lowest degree first; without listing the permutations.

    As in ``walk``, appending a letter b to a prefix adds to inv the number
    of placed letters above b, and adds b to imaj when b + 1 is placed; the
    pattern lets b follow the last letter a when b < a at a descent of the
    pattern and b > a at an ascent.  So the prefixes of one length are
    tallied by (set of letters placed, last letter), each state carrying
    both generating polynomials packed in ints (``ring._pack_slots``: the
    q^e coefficient in slot e).  Every coefficient counts at most n!
    permutations, so slots of ``ring._slot_width(n!)`` bytes never carry.
    A pass adds up, for each set, the states whose last letter lies above
    (or below) each free letter b as it goes, so each state of the next
    length is built from one running sum.  There are about n * 2^(n-1)
    states in all, and two lengths are held at a time.
    """
    if n == 0:
        return [1], [1]
    w = ring._slot_width(math.factorial(n))
    bits = 8 * w
    pattern = zigzag(n, rising)
    # a set of placed letters (bit v for the letter v) -> {last letter: (inv, imaj) packed}
    layer = {1 << a: {a: (1, 1)} for a in range(1, n + 1)}
    for down in pattern:
        letters = range(n, 0, -1) if down else range(1, n + 1)
        nxt: dict = {}
        while layer:
            mask, lasts = layer.popitem()
            run_inv = run_imaj = 0  # the states whose last letter was passed
            for b in letters:
                if mask >> b & 1:
                    if b in lasts:
                        inv_b, imaj_b = lasts[b]
                        run_inv += inv_b
                        run_imaj += imaj_b
                    continue
                if not run_inv:
                    continue
                above = mask >> (b + 1)
                inv_b = run_inv << bits * above.bit_count()
                imaj_b = run_imaj << bits * b if above & 1 else run_imaj
                states = nxt.setdefault(mask | 1 << b, {})
                old = states.get(b)
                states[b] = (inv_b, imaj_b) if old is None else (old[0] + inv_b, old[1] + imaj_b)
        layer = nxt
    (lasts,) = layer.values()
    inv_total, imaj_total = map(sum, zip(*lasts.values()))
    return ring._unpack_slots(inv_total, w), ring._unpack_slots(imaj_total, w)
