import math
import sys
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies

from qderiv import permstats
from qderiv.permstats import (
    complement_gamma,
    descent_word,
    foata_phi,
    inv,
    ligne,
    mirror_rho,
    psi,
    statistics,
    walk,
    zigzag,
)

WORKED = (4, 5, 11, 1, 3, 10, 7, 9, 6, 8, 2)


def s_n(n):
    """Reference: the permutations of 1..n in lexicographic order."""
    return permutations(range(1, n + 1))


def is_falling(word):
    return descent_word(word) == zigzag(len(word), False)


def scan_rising_alternating(word):
    """Reference: compare each adjacent pair with y1 < y2 > y3 < ..."""
    for i in range(len(word) - 1):
        if i % 2 == 0:
            if word[i] > word[i + 1]:
                return False
        elif word[i] < word[i + 1]:
            return False
    return True


def scan_falling_alternating(word):
    """Reference: compare each adjacent pair with y1 > y2 < y3 > ..."""
    for i in range(len(word) - 1):
        if i % 2 == 0:
            if word[i] < word[i + 1]:
                return False
        elif word[i] > word[i + 1]:
            return False
    return True


distinct_words = strategies.lists(
    strategies.integers(1, 40), max_size=12, unique=True
).map(tuple)


class TestStatistics:
    def test_worked_example(self):
        st = statistics(WORKED)
        assert st.ides == 6
        assert st.imaj == 38
        assert st.inv == 27
        assert st.iligne == frozenset({3, 10, 9, 6, 8, 2})

    def test_identity(self):
        st = statistics((1, 2, 3, 4))
        assert (st.inv, st.des, st.ides, st.maj, st.imaj) == (0, 0, 0, 0, 0)
        assert st.ligne == frozenset() and st.iligne == frozenset()

    def test_231(self):
        st = statistics((2, 3, 1))
        assert st.iligne == frozenset({1})
        assert st.imaj == 1 and st.ides == 1

    def test_words_of_distinct_letters(self):
        # statistics extend verbatim to words: only present successor
        # pairs count
        st = statistics((9, 5, 7))
        assert st.inv == 2
        assert st.ligne == frozenset({1})
        assert st.iligne == frozenset()

    def test_imaj_is_maj_of_inverse(self):
        for sigma in s_n(5):
            st = statistics(sigma)
            ist = statistics(permstats.inverse(sigma))
            assert st.imaj == ist.maj
            assert st.iligne == frozenset(ist.ligne)


class TestAlternating:
    def test_examples(self):
        assert descent_word((1, 3, 2)) == zigzag(3, True)
        assert not is_falling((1, 3, 2))
        assert descent_word(()) == zigzag(0, True)
        assert is_falling(())
        assert descent_word((1, 2)) == zigzag(2, True)
        assert not is_falling((1, 2))

    def test_counts(self):
        assert len(list(walk(1, True))) == 1
        assert len(list(walk(3, True))) == 2
        assert len(list(walk(4, False))) == 5

    @settings(max_examples=200, deadline=None)
    @given(distinct_words)
    def test_predicates_match_pairwise_scan(self, word):
        assert (descent_word(word) == zigzag(len(word), True)) == scan_rising_alternating(word)
        assert is_falling(word) == scan_falling_alternating(word)

    @settings(max_examples=100, deadline=None)
    @given(distinct_words)
    def test_descent_word_is_ligne(self, word):
        bits = descent_word(word)
        assert len(bits) == max(len(word) - 1, 0)
        assert [i for i, bit in enumerate(bits) if bit] == sorted(i - 1 for i in ligne(word))

    def test_generators_equal_filter_of_s_n(self):
        # same words, same (lexicographic) order as filtering S_n
        for n in range(10):
            rising, falling = [], []
            for sigma in s_n(n):
                if descent_word(sigma) == zigzag(len(sigma), True):
                    rising.append(sigma)
                if is_falling(sigma):
                    falling.append(sigma)
            assert [row[0] for row in walk(n, True)] == rising
            assert [row[0] for row in walk(n, False)] == falling

    def test_generator_needs_no_recursion_depth(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            rising = next(walk(300, True))[0]
            falling = next(walk(301, False))[0]
            identity = next(walk(300))
        finally:
            sys.setrecursionlimit(limit)
        assert rising[:5] == (1, 3, 2, 5, 4) and sorted(rising) == list(range(1, 301))
        assert falling[:5] == (2, 1, 4, 3, 6) and sorted(falling) == list(range(1, 302))
        assert descent_word(rising) == zigzag(len(rising), True) and is_falling(falling)
        assert identity == (tuple(range(1, 301)), (False,) * 299, 0, 0, 0)

    def test_ligne_characterization(self):
        for n in range(7):
            for sigma in s_n(n):
                st = statistics(sigma)
                odds = frozenset(range(1, n, 2))
                evens = frozenset(range(2, n, 2))
                assert is_falling(sigma) == (st.ligne == odds)
                assert (descent_word(sigma) == zigzag(len(sigma), True)) == (st.ligne == evens)


class TestElementaryBijections:
    def test_inverse_example(self):
        assert permstats.inverse((6, 4, 9, 2, 7, 5, 1, 8, 3)) == (7, 4, 9, 2, 6, 1, 5, 8, 3)

    def test_gamma_on_identity(self):
        assert complement_gamma((1, 2, 3, 4)) == (4, 3, 2, 1)

    def test_rho_inv_complement(self):
        for n in range(1, 8):
            total = n * (n - 1) // 2
            for sigma in s_n(n):
                assert inv(sigma) + inv(mirror_rho(sigma)) == total

    def test_inverse_requires_permutation(self):
        with pytest.raises(ValueError):
            permstats.inverse((2, 3))


class TestFoata:
    def test_published_example(self):
        assert foata_phi((7, 4, 9, 2, 6, 1, 5, 8, 3)) == (4, 7, 2, 6, 1, 9, 5, 8, 3)

    def test_single_letter(self):
        assert foata_phi((1,)) == (1,)
        assert foata_phi(()) == ()

    def test_contract_on_s4(self):
        for sigma in s_n(4):
            image = foata_phi(sigma)
            assert statistics(sigma).maj == statistics(image).inv
            assert statistics(sigma).iligne == statistics(image).iligne

    def test_bijectivity(self):
        for n in range(7):
            images = {foata_phi(s) for s in s_n(n)}
            assert len(images) == math.factorial(n)


class TestPsi:
    def test_published_chain(self):
        w = (6, 4, 9, 2, 7, 5, 1, 8, 3)
        assert statistics(w).imaj == 17
        image = psi(w)
        assert image == (5, 3, 9, 1, 7, 4, 2, 8, 6)
        assert statistics(image).inv == 17

    def test_identity_fixed(self):
        assert psi((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)

    def test_contract_on_s5(self):
        for sigma in s_n(5):
            image = psi(sigma)
            assert statistics(sigma).ligne == statistics(image).ligne
            assert statistics(sigma).imaj == statistics(image).inv


class TestEnumeration:
    def test_lexicographic(self):
        assert [row[0] for row in walk(3)] == [tuple(p) for p in permutations((1, 2, 3))]

    def test_empty_order(self):
        assert list(walk(0)) == [((), (), 0, 0, 0)]
        assert list(walk(0, True)) == [((), (), 0, 0, 0)]


class TestWalk:
    """The walk against the definitions: same rows, same order."""

    @pytest.mark.parametrize("n", range(9))
    def test_equals_statistics_over_s_n(self, n):
        reference = []
        for w in s_n(n):
            st = statistics(w)
            reference.append((w, descent_word(w), st.inv, st.ides, st.imaj))
        assert list(walk(n)) == reference
        for rising in (True, False):
            pattern = zigzag(n, rising)
            assert list(walk(n, rising)) == [row for row in reference if row[1] == pattern]


class TestAlternatingTally:
    """The tally against the walk: the same inv and imaj generating
    polynomials, without listing the permutations."""

    @pytest.mark.parametrize("rising", [True, False])
    @pytest.mark.parametrize("n", range(10))
    def test_equals_the_walk(self, n, rising):
        counts = [Counter(), Counter()]
        for _, _, inversions, _, imaj in walk(n, rising):
            counts[0][inversions] += 1
            counts[1][imaj] += 1
        expected = tuple([c[e] for e in range(max(c) + 1)] for c in counts)
        assert tuple(permstats.alternating_tally(n, rising)) == expected

    def test_small_orders(self):
        assert permstats.alternating_tally(0, True) == ([1], [1])
        assert permstats.alternating_tally(1, False) == ([1], [1])
        # 12 rising: inv 0, imaj 0; 21 falling: inv 1, imaj 1
        assert permstats.alternating_tally(2, True) == ([1], [1])
        assert permstats.alternating_tally(2, False) == ([0, 1], [0, 1])
