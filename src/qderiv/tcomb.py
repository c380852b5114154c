"""t-compositions, t-permutations, their statistics and bijections.

A t-composition of n is a composition (c_0, ..., c_m) of n in which only
the end parts may vanish, with the extra parity conditions: a single part
must be odd; with two or more parts the ends are even and the interior
parts odd.  The empty object n = 0 is represented by the distinguished
pair (0, 0).  A t-composition is its parts tuple: ``is_t_composition``
tests one, and ``enumerate_t_compositions`` lists those of n.

A t-permutation of order n is a sequence of words whose concatenation is
a permutation of 1..n, the first word rising alternating, the others
falling alternating, with lengths forming a t-composition.  It is stored
flat, as that permutation ``word`` and the block lengths ``parts``; its
``components`` are sliced from the pair on demand.

Every t-permutation is a cut of the permutation it concatenates to, and
which cuts are valid depends only on that permutation's descent word.
``t_permutation_cuts`` follows ``permstats.walk`` over S_n, which carries
each descent word, and yields each permutation with its t-permutations, so
a sweep can do per-permutation work once for all of its cuts;
``enumerate_t_permutations`` is the same walk, flattened.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Tuple

from qderiv import permstats
from qderiv.permstats import Word
from qderiv.ring import QPoly

BRUTE_FORCE_BOUND = 8
# the largest order whose oracle tallies (``tables.oracle_all``) peak under
# 48 MB RSS: ``qderiv oracle``'s brute-force bound may be raised up to it,
# never past it.  The t-permutation walks hold little as n grows and take any n
BRUTE_FORCE_LIMIT = 10


class BruteForceBoundError(RuntimeError):
    """Raised by ``qderiv oracle`` (``cli.build_oracle``) for an order above
    its brute-force bound or above ``BRUTE_FORCE_LIMIT``."""


def is_t_composition(parts: Tuple[int, ...]) -> bool:
    """True when the parts tuple ``parts`` is a t-composition."""
    if not parts or any(p < 0 for p in parts):
        return False
    if sum(parts) == 0:
        return parts == (0, 0)
    m = len(parts) - 1
    if m == 0:
        return parts[0] % 2 == 1
    if parts[0] % 2 or parts[-1] % 2:
        return False
    return all(p % 2 == 1 for p in parts[1:-1])


@lru_cache(maxsize=None)
def _odd_compositions(total: int) -> Tuple[Tuple[int, ...], ...]:
    if total == 0:
        return ((),)
    out = []
    for first in range(1, total + 1, 2):
        for rest in _odd_compositions(total - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_t_compositions(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All t-compositions of n, ordered by (number of parts, parts)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((0, 0),)
    found = []
    if n % 2:
        found.append((n,))
    for c0 in range(0, n + 1, 2):
        for cm in range(0, n - c0 + 1, 2):
            for interior in _odd_compositions(n - c0 - cm):
                found.append((c0,) + interior + (cm,))
    found.sort(key=lambda p: (len(p), p))
    return tuple(found)


class TPermutation(namedtuple("TPermutation", "word parts")):
    """A permutation ``word`` cut into blocks of lengths ``parts``."""

    __slots__ = ()

    def __new__(cls, components: Sequence[Sequence[int]]) -> "TPermutation":
        comps = tuple(map(tuple, components))
        return cls._flat(tuple(itertools.chain.from_iterable(comps)), tuple(map(len, comps)))

    def __getnewargs__(self):
        # copy and pickle rebuild through the validating constructor
        return (self.components,)

    @classmethod
    def _flat(cls, word: Word, parts: Tuple[int, ...], check: bool = True) -> "TPermutation":
        """Build from the flat pair; ``check=False`` only for cuts known valid."""
        obj = tuple.__new__(cls, (word, parts))
        if check:
            obj.__post_init__()
        return obj

    def __post_init__(self):
        # the one validation hook: both constructors call it, and
        # perfbench/tracer.py counts its calls under this name
        word, parts = self.word, self.parts
        if not parts:
            raise ValueError("a t-permutation has at least one component")
        if sum(parts) != len(word):
            raise ValueError("block lengths %r do not cut a word of length %d" % (parts, len(word)))
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError("concatenation is not a permutation: %r" % (self.components,))
        if not _is_valid_cut(parts, permstats.descent_word(word)):
            raise ValueError("component shapes violate the alternation rules: %r" % (self.components,))

    @property
    def components(self) -> Tuple[Word, ...]:
        edges = tuple(itertools.accumulate(self.parts, initial=0))
        return tuple(self.word[a:b] for a, b in zip(edges, edges[1:]))

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def mu(self) -> int:
        return len(self.parts) - 1

    def min_component(self) -> Optional[int]:
        """Index of the component containing the letter 1; None when n = 0."""
        return _one_at(self.word, self.parts)[0] if self.word else None

    def is_first_kind(self) -> bool:
        """True when 1 occurs as a one-letter component that can be deleted.

        The single-component word (1) counts as second kind: removing its
        only component would not leave a t-permutation, and the insertion
        bijections classify it as a gluing image.
        """
        return self.mu >= 1 and self.n > 0 and self.parts[_one_at(self.word, self.parts)[0]] == 1


# -- enumeration by cutting permutations --------------------------------


def _cut_alternation_ok(desc: Tuple[bool, ...], parts: Tuple[int, ...]) -> bool:
    # Component 0 is rising, the rest falling; each slice of ``desc``
    # inside a component must be that zigzag.  Length parities are
    # already guaranteed by the t-composition.
    p = 0
    for ci, length in enumerate(parts):
        if length and desc[p : p + length - 1] != permstats.zigzag(length, ci == 0):
            return False
        p += length
    return True


@lru_cache(maxsize=1 << 14)
def _is_valid_cut(parts: Tuple[int, ...], desc: Tuple[bool, ...]) -> bool:
    """True when cutting a word with descent word ``desc`` into blocks of
    lengths ``parts`` gives a t-permutation: exactly when ``parts`` is in
    ``_valid_cuts(sum(parts), desc)``.

    A check in O(n) per new pair, so a t-permutation of any order is
    validated without listing the t-compositions of its order.  The cache
    is bounded, for callers that build many large t-permutations.
    """
    return is_t_composition(parts) and _cut_alternation_ok(desc, parts)


@lru_cache(maxsize=None)
def _valid_cuts(n: int, desc: Tuple[bool, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Parts of the t-compositions of n whose cut is alternating on ``desc``.

    Validity of a cut depends on the descent word alone, so permutations
    sharing one (at most 2^(n-1) classes) share this list.  The order is
    that of ``enumerate_t_compositions``.
    """
    return tuple(
        parts
        for parts in enumerate_t_compositions(n)
        if _cut_alternation_ok(desc, parts)
    )


def t_permutation_cuts(n: int) -> Iterator[Tuple[Word, Tuple[TPermutation, ...]]]:
    """Each permutation sigma of 1..n, with the t-permutations cut from it.

    Permutations come in lexicographic order and the cuts of one in the
    order of ``enumerate_t_compositions``, so work that depends on sigma
    alone (its statistics, its image under a word bijection) can be done
    once for all of its cuts.
    """
    for sigma, desc, _, _, _ in permstats.walk(n):
        cuts = _valid_cuts(n, desc)
        yield sigma, tuple(TPermutation._flat(sigma, parts, check=False) for parts in cuts)


def enumerate_t_permutations(n: int) -> Iterator[TPermutation]:
    """Stream all t-permutations of order n in a deterministic order."""
    for _, cuts in t_permutation_cuts(n):
        yield from cuts


def cut_by_lambda(sigma: Word, parts: Tuple[int, ...]) -> TPermutation:
    """Cut a permutation into consecutive blocks of lengths ``parts``."""
    return TPermutation._flat(tuple(sigma), parts)


# -- the two insertion bijections ---------------------------------------
#
# Each step works on the flat pair (word, parts); the public maps wrap it in
# validated TPermutations, and a sweep can call it on pairs it validates itself.


def _insert_one(
    i: int, shifted: Word, parts: Tuple[int, ...]
) -> Tuple[Word, Tuple[int, ...], Tuple[int, ...]]:
    """Put the letter 1 at the start of block i of ``shifted``, a word cut
    by ``parts`` whose letters are all above 1: the image word, then its
    parts with 1 a block of its own (delta*) and with 1 gluing blocks i-1
    and i (*delta).  The word depends only on where 1 lands,
    parts[0] + ... + parts[i-1]."""
    if not 1 <= i < len(parts):
        raise ValueError("index %d out of range 1..%d" % (i, len(parts) - 1))
    p = sum(parts[:i])
    head, left, right, tail = parts[: i - 1], parts[i - 1], parts[i], parts[i + 1 :]
    return (
        shifted[:p] + (1,) + shifted[p:],
        head + (left, 1, right) + tail,
        head + (left + 1 + right,) + tail,
    )


def delta_star(i: int, w: TPermutation) -> TPermutation:
    """Insert the one-letter word 1 before component i of the shifted word."""
    word, parts, _ = _insert_one(i, tuple(y + 1 for y in w.word), w.parts)
    return TPermutation._flat(word, parts)


def star_delta(i: int, w: TPermutation) -> TPermutation:
    """Glue components i-1 and i of the shifted word around the letter 1."""
    word, _, parts = _insert_one(i, tuple(y + 1 for y in w.word), w.parts)
    return TPermutation._flat(word, parts)


def _one_at(word: Word, parts: Tuple[int, ...]) -> Tuple[int, int]:
    """The block of ``word`` cut by ``parts`` that holds the letter 1, and
    its offset there."""
    offset = word.index(1)
    for block, length in enumerate(parts):
        if offset < length:
            return block, offset
        offset -= length


def _remove_one(
    word: Word, parts: Tuple[int, ...], first_kind: bool
) -> Tuple[int, Word, Tuple[int, ...]]:
    """Delete the letter 1 and shift down.  Its block a goes (first kind,
    giving back a) or is split at the 1 (second kind, giving back a + 1):
    that index, then the flat pair left."""
    a, j = _one_at(word, parts) if word else (0, 0)
    # the rule of is_first_kind, on the same lookup
    if not word or (len(parts) >= 2 and parts[a] == 1) != first_kind:
        raise ValueError("not of the %s kind" % ("first" if first_kind else "second"))
    middle = () if first_kind else (j, parts[a] - 1 - j)
    back = tuple([y - 1 for y in word if y != 1])
    return (a if first_kind else a + 1), back, parts[:a] + middle + parts[a + 1 :]


def psi_on_t(w: TPermutation) -> TPermutation:
    """Apply the descent-preserving bijection to the concatenation and re-cut."""
    return TPermutation._flat(permstats.psi(w.word), w.parts)


# -- counting layer ------------------------------------------------------


@lru_cache(maxsize=None)
def alpha(n: int, m: int) -> int:
    """Number of t-compositions of n with m+1 parts."""
    if n < 0 or m < 0:
        return 0
    # alpha(i, j) = alpha(i-1, j-1) + alpha(i-2, j), filled one column j at
    # a time; ``prev`` is column j-1 (all zero for j = 0)
    col = [0] * (n + 1)
    for j in range(m + 1):
        prev, col = col, [0] * (n + 1)
        col[0] = 1 if j == 1 else 0
        if n >= 1:
            col[1] = 1 if j in (0, 2) else 0
        for i in range(2, n + 1):
            col[i] = prev[i - 1] + col[i - 2]
    return col[n]


def beta(n: int, m: int) -> int:
    """Number of s-compositions of n with m+2 parts."""
    if n == 0:
        return 1 if m == 0 else 0
    return alpha(n - 1, m)


@lru_cache(maxsize=None)
def fibonacci_poly(n: int) -> QPoly:
    """Generating polynomial of alpha(n, .) in the outer variable."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # F(0) = x, F(1) = 1 + x^2, F(i) = x F(i-1) + F(i-2)
    poly, following = QPoly((0, 1)), QPoly((1, 0, 1))
    for _ in range(n):
        poly, following = following, following.shift(1) + poly
    return poly
