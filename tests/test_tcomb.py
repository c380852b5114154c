
import itertools
import math

import pytest

from qderiv import permstats, tcomb
from qderiv.permstats import descent_word, zigzag
from qderiv.ring import QPoly
from qderiv.tcomb import (
    TPermutation,
    alpha,
    beta,
    cut_by_lambda,
    delta_star,
    enumerate_t_compositions,
    enumerate_t_permutations,
    fibonacci_poly,
    is_t_composition,
    psi_on_t,
    star_delta,
    t_permutation_cuts,
)


def parts(n):
    return set(enumerate_t_compositions(n))


def naive_t_permutations(n):
    """Every t-composition cut of every permutation, each fully validated."""
    for sigma in itertools.permutations(range(1, n + 1)):
        for lengths in enumerate_t_compositions(n):
            cuts = [0]
            for p in lengths:
                cuts.append(cuts[-1] + p)
            components = tuple(sigma[a:b] for a, b in zip(cuts, cuts[1:]))
            try:
                yield TPermutation(components)
            except ValueError:
                continue


def positive_compositions(total):
    """Every composition of ``total`` into positive parts; () for 0."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in positive_compositions(total - first):
            yield (first,) + rest


def old_rule_accepts(comps):
    """The component rule the constructor used to apply: the first word
    rising alternating, the others falling alternating; a single word of
    odd length, else even end words and odd interior words."""
    if len(comps) == 1:
        return descent_word(comps[0]) == zigzag(len(comps[0]), True) and len(comps[0]) % 2 == 1
    return (
        descent_word(comps[0]) == zigzag(len(comps[0]), True)
        and len(comps[0]) % 2 == 0
        and descent_word(comps[-1]) == zigzag(len(comps[-1]), False)
        and len(comps[-1]) % 2 == 0
        and all(descent_word(w) == zigzag(len(w), False) and len(w) % 2 == 1 for w in comps[1:-1])
    )


def weak_compositions(n, parts):
    """Every tuple of ``parts`` nonnegative integers summing to n."""
    for bars in itertools.combinations(range(n + parts - 1), parts - 1):
        edges = (-1,) + bars + (n + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def alpha_closed(n, m):
    """alpha by counting: c_0, c_m even, the m-1 interior parts odd."""
    if m == 0:
        return n % 2
    free = n - m + 1
    return 0 if free < 0 or free % 2 else math.comb(free // 2 + m, m)


# -- the component-tuple form, kept as the reference for the flat one -----


def reference_cut(word, parts):
    out = []
    p = 0
    for length in parts:
        out.append(word[p : p + length])
        p += length
    return tuple(out)


def reference_t_permutation_cuts(n):
    """The walk of ``t_permutation_cuts``, each cut a tuple of components."""
    for sigma in itertools.permutations(range(1, n + 1)):
        for parts in tcomb._valid_cuts(n, descent_word(sigma)):
            yield reference_cut(sigma, parts)


def reference_incremented(comps):
    return [tuple(y + 1 for y in c) for c in comps]


def reference_decremented(comps):
    return tuple(tuple(y - 1 for y in c) for c in comps)


def reference_delta_star(i, comps):
    inc = reference_incremented(comps)
    return tuple(inc[:i] + [(1,)] + inc[i:])


def reference_star_delta(i, comps):
    inc = reference_incremented(comps)
    return tuple(inc[: i - 1] + [inc[i - 1] + (1,) + inc[i]] + inc[i + 1 :])


def reference_delta_star_inv(comps):
    a = comps.index((1,))
    return a, reference_decremented(comps[:a] + comps[a + 1 :])


def reference_star_delta_inv(comps):
    for a, comp in enumerate(comps):
        if 1 in comp and (len(comp) > 1 or len(comps) == 1):
            j = comp.index(1)
            return a + 1, reference_decremented(comps[:a] + (comp[:j], comp[j + 1 :]) + comps[a + 1 :])
    raise ValueError("not of the second kind")


def reference_min_component(comps):
    return next((a for a, c in enumerate(comps) if 1 in c), None)


def reference_is_first_kind(comps):
    return len(comps) >= 2 and (1,) in comps


class TestTCompositions:
    def test_first_lists(self):
        assert parts(0) == {(0, 0)}
        assert parts(1) == {(1,), (0, 1, 0)}
        assert parts(2) == {(0, 2), (2, 0), (0, 1, 1, 0)}
        assert parts(3) == {(3,), (0, 1, 2), (2, 1, 0), (0, 3, 0), (0, 1, 1, 1, 0)}
        assert parts(4) == {
            (0, 4), (2, 2), (4, 0),
            (0, 3, 1, 0), (0, 1, 3, 0), (0, 1, 1, 2), (2, 1, 1, 0),
            (0, 1, 1, 1, 1, 0),
        }

    def test_validation(self):
        assert not is_t_composition((2,))          # single even part
        assert not is_t_composition((1, 2))        # odd end with two parts
        assert not is_t_composition((0, 2, 0))     # even interior
        assert not is_t_composition((0, 0, 1, 0))  # zero interior
        assert is_t_composition((0, 0))
        assert is_t_composition((5,))

    def test_filters(self):
        three_parts = {p for p in enumerate_t_compositions(3) if len(p) == 3}
        assert three_parts == {(0, 1, 2), (2, 1, 0), (0, 3, 0)}
        s_two = {p for p in enumerate_t_compositions(2) if p[-1] == 0}
        assert s_two == {(2, 0), (0, 1, 1, 0)}
        assert [p for p in enumerate_t_compositions(0) if p[-1] == 0] == [(0, 0)]

    @pytest.mark.parametrize("n", range(11))
    def test_enumeration_is_every_candidate_the_predicate_accepts(self, n):
        # candidates: the one-part (n,) and every (c0, *interior, cm) of sum
        # n with nonnegative ends and positive interior parts
        candidates = [(n,)] + [
            (c0,) + interior + (cm,)
            for c0 in range(n + 1)
            for cm in range(n - c0 + 1)
            for interior in positive_compositions(n - c0 - cm)
        ]
        accepted = sorted(filter(is_t_composition, candidates), key=lambda p: (len(p), p))
        assert list(enumerate_t_compositions(n)) == accepted


class TestTPermutations:
    def test_smallest_orders(self):
        assert [w.components for w in enumerate_t_permutations(0)] == [((), ())]
        t1 = {w.components for w in enumerate_t_permutations(1)}
        assert t1 == {((1,),), ((), (1,), ())}
        t2 = {w.components for w in enumerate_t_permutations(2)}
        assert t2 == {
            ((), (2, 1)), ((1, 2), ()),
            ((), (2,), (1,), ()), ((), (1,), (2,), ()),
        }

    def test_t3_by_mu(self):
        count = {}
        for w in enumerate_t_permutations(3):
            count[w.mu] = count.get(w.mu, 0) + 1
        assert count == {0: 2, 2: 8, 4: 6}

    def test_validation(self):
        with pytest.raises(ValueError):
            TPermutation(((2, 1),))          # falling but single-component
        with pytest.raises(ValueError):
            TPermutation(((1, 2), (3,)))     # last component of odd length
        with pytest.raises(ValueError):
            TPermutation(((1, 3), (2, 2)))   # not a permutation
        TPermutation(((1, 3, 2),))

    def test_stats_worked_example(self):
        w = TPermutation(((4, 5), (11, 1, 3), (10, 7, 9), (6,), (8, 2)))
        st = permstats.statistics(w.word)
        assert (st.ides, st.imaj, st.inv, w.min_component()) == (6, 38, 27, 1)
        assert w.parts == (2, 3, 3, 1, 2)

    def test_stats_small(self):
        w = TPermutation(((), (1,), ()))
        st = permstats.statistics(w.word)
        assert (w.mu, w.min_component(), st.ides, st.imaj, st.inv) == (2, 1, 0, 0, 0)
        w = TPermutation(((1, 3, 2),))
        assert w.parts == (3,) and w.mu == 0 and permstats.statistics(w.word).imaj == 2

    def test_min_component_empty_order(self):
        assert TPermutation(((), ())).min_component() is None

    def test_lambda_with_filter(self):
        found = [w for w in enumerate_t_permutations(2) if w.parts == (0, 1, 1, 0)]
        assert {w.components for w in found} == {
            ((), (2,), (1,), ()), ((), (1,), (2,), ()),
        }

    def test_triple_filter(self):
        # inverse descents k = 1, letter 1 in component a = 1, a + b = 2
        found = {
            w.components
            for w in enumerate_t_permutations(3)
            if (permstats.statistics(w.word).ides, w.min_component(), w.mu) == (1, 1, 2)
        }
        assert len(found) == 4
        for w in found:
            t = TPermutation(w)
            assert (permstats.statistics(t.word).ides, t.min_component(), t.mu) == (1, 1, 2)

    def test_s_permutations(self):
        trailing_empty = {
            w.components for w in enumerate_t_permutations(2) if w.components[-1] == ()
        }
        assert trailing_empty == {
            ((1, 2), ()), ((), (2,), (1,), ()), ((), (1,), (2,), ()),
        }

    @pytest.mark.parametrize("n", range(7))
    def test_matches_naive_filter(self, n):
        fast = list(enumerate_t_permutations(n))
        assert [w.components for w in fast] == [w.components for w in naive_t_permutations(n)]
        for w in fast:
            assert TPermutation(w.components) == w
            assert w.parts == tuple(len(c) for c in w.components)

    @pytest.mark.parametrize("n", [9, 12])
    def test_any_order_yields_its_first_permutation(self, n):
        # no size refusal: the first permutation comes without a full walk
        identity = tuple(range(1, n + 1))
        sigma, cuts = next(t_permutation_cuts(n))
        assert sigma == identity
        assert [w.parts for w in cuts] == list(tcomb._valid_cuts(n, descent_word(identity)))
        assert all(w.word == identity for w in cuts)

    @pytest.mark.parametrize("n", range(7))
    def test_cuts_grouped_by_permutation(self, n):
        walk = list(t_permutation_cuts(n))
        sigmas = [sigma for sigma, _ in walk]
        assert sigmas == list(itertools.permutations(range(1, n + 1)))
        assert sigmas == sorted(set(sigmas))
        with_a_cut = {w.word for w in naive_t_permutations(n)}
        assert set(sigmas) == with_a_cut
        for sigma, cuts in walk:
            assert cuts and all(w.word == sigma for w in cuts)
        flat = [w.components for _, cuts in walk for w in cuts]
        assert flat == [w.components for w in enumerate_t_permutations(n)]


class TestValidationAgainstOldRule:
    @pytest.mark.parametrize("n", range(6))
    def test_every_cut_of_every_permutation(self, n):
        cut_edges = [
            list(itertools.accumulate((0,) + lengths))
            for parts in range(1, n + 3)
            for lengths in weak_compositions(n, parts)
        ]
        for sigma in itertools.permutations(range(1, n + 1)):
            for edges in cut_edges:
                comps = tuple(sigma[a:b] for a, b in zip(edges, edges[1:]))
                try:
                    w = TPermutation(comps)
                except ValueError as exc:
                    assert not old_rule_accepts(comps), exc
                    assert "alternation rules" in str(exc)
                else:
                    assert old_rule_accepts(comps), comps
                    assert w.components == comps

    @pytest.mark.parametrize("comps", [((),), ((), ()), ((), (), ())])
    def test_empty_components(self, comps):
        if old_rule_accepts(comps):
            assert TPermutation(comps).n == 0
        else:
            with pytest.raises(ValueError):
                TPermutation(comps)
        assert old_rule_accepts(comps) == (comps == ((), ()))

    def test_letters_checked_before_shape(self):
        with pytest.raises(ValueError, match="not a permutation"):
            TPermutation(((2, 1), (4,)))
        with pytest.raises(ValueError, match="at least one component"):
            TPermutation(())


W_EXAMPLE = TPermutation(((4, 5), (11, 1, 3), (10, 7, 9), (6,), (8, 2)))


class TestInsertionBijections:
    def test_delta_star_rows(self):
        expected = {
            1: ((5, 6), (1,), (12, 2, 4), (11, 8, 10), (7,), (9, 3)),
            2: ((5, 6), (12, 2, 4), (1,), (11, 8, 10), (7,), (9, 3)),
            3: ((5, 6), (12, 2, 4), (11, 8, 10), (1,), (7,), (9, 3)),
            4: ((5, 6), (12, 2, 4), (11, 8, 10), (7,), (1,), (9, 3)),
        }
        for i, comps in expected.items():
            assert delta_star(i, W_EXAMPLE).components == comps

    def test_star_delta_rows(self):
        expected = {
            1: ((5, 6, 1, 12, 2, 4), (11, 8, 10), (7,), (9, 3)),
            2: ((5, 6), (12, 2, 4, 1, 11, 8, 10), (7,), (9, 3)),
            3: ((5, 6), (12, 2, 4), (11, 8, 10, 1, 7), (9, 3)),
            4: ((5, 6), (12, 2, 4), (11, 8, 10), (7, 1, 9, 3)),
        }
        for i, comps in expected.items():
            assert star_delta(i, W_EXAMPLE).components == comps

    def test_roundtrips(self):
        for i in range(1, W_EXAMPLE.mu + 1):
            for insert, first_kind in ((delta_star, True), (star_delta, False)):
                image = insert(i, W_EXAMPLE)
                assert tcomb._remove_one(image.word, image.parts, first_kind) == (i, *W_EXAMPLE)

    def test_empty_order_edge(self):
        empty = TPermutation(((), ()))
        assert delta_star(1, empty).components == ((), (1,), ())
        single = star_delta(1, empty)
        assert single.components == ((1,),)
        assert not single.is_first_kind()
        assert tcomb._remove_one(single.word, single.parts, False) == (1, *empty)

    def test_index_range(self):
        with pytest.raises(ValueError):
            delta_star(0, W_EXAMPLE)
        with pytest.raises(ValueError):
            star_delta(5, W_EXAMPLE)

    def test_inverse_kind_guards(self):
        with pytest.raises(ValueError):
            tcomb._remove_one(*TPermutation(((1, 2), ())), True)
        with pytest.raises(ValueError):
            tcomb._remove_one(*TPermutation(((), (1,), ())), False)

    def test_min_after_insertion(self):
        for n in range(5):
            for w in enumerate_t_permutations(n):
                for i in range(1, w.mu + 1):
                    assert delta_star(i, w).min_component() == i
                    assert star_delta(i, w).min_component() == i - 1


class TestPsiLift:
    def test_worked_example(self):
        w = TPermutation(((), (6,), (4,), (9, 2, 7), (5, 1, 8, 3)))
        assert psi_on_t(w).components == ((), (5,), (3,), (9, 1, 7), (4, 2, 8, 6))

    def test_preserves_shape_small(self):
        for w in enumerate_t_permutations(5):
            image = psi_on_t(w)
            assert image.parts == w.parts
            assert permstats.statistics(image.word).inv == permstats.statistics(w.word).imaj

    @pytest.mark.parametrize("n", range(7))
    def test_is_the_cut_of_psi_of_the_permutation(self, n):
        for sigma, cuts in t_permutation_cuts(n):
            image = permstats.psi(sigma)
            for w in cuts:
                edges = list(itertools.accumulate((0,) + w.parts))
                expected = tuple(image[a:b] for a, b in zip(edges, edges[1:]))
                assert psi_on_t(w).components == expected

    def test_cut_by_lambda(self):
        w = cut_by_lambda((2, 1, 3), (0, 3, 0))
        assert w.components == ((), (2, 1, 3), ())

    def test_cut_by_lambda_of_another_order(self):
        # a composition of another order neither drops letters nor cuts a
        # t-permutation of the wrong order
        with pytest.raises(ValueError, match="block lengths"):
            cut_by_lambda((1, 2, 3), (1,))
        with pytest.raises(ValueError, match="block lengths"):
            cut_by_lambda((2, 1, 3, 4), (0, 1, 1, 0))
        with pytest.raises(ValueError, match="block lengths"):
            cut_by_lambda((1,), (0, 1, 1, 0))


class TestFlatAgainstComponentReference:
    @pytest.mark.parametrize("n", range(7))
    def test_bijections_and_kinds(self, n):
        for w in enumerate_t_permutations(n):
            comps = w.components
            assert TPermutation(comps) == w and hash(TPermutation(comps)) == hash(w)
            assert w.min_component() == reference_min_component(comps)
            assert w.is_first_kind() == reference_is_first_kind(comps)
            for i in range(1, w.mu + 1):
                for insert, ref_insert, first_kind, ref_invert in (
                    (delta_star, reference_delta_star, True, reference_delta_star_inv),
                    (star_delta, reference_star_delta, False, reference_star_delta_inv),
                ):
                    image = insert(i, w)
                    ref_image = ref_insert(i, comps)
                    assert image.components == ref_image
                    assert image.min_component() == reference_min_component(ref_image)
                    assert image.is_first_kind() == reference_is_first_kind(ref_image)
                    back_i, word, parts = tcomb._remove_one(image.word, image.parts, first_kind)
                    back = TPermutation._flat(word, parts)
                    assert (back_i, back.components) == ref_invert(ref_image) == (i, comps)
                    with pytest.raises(ValueError):
                        tcomb._remove_one(image.word, image.parts, not first_kind)

    def test_walk_of_order_7(self):
        flat = [w.components for w in enumerate_t_permutations(7)]
        assert flat == list(reference_t_permutation_cuts(7))

    def test_flat_pair(self):
        assert W_EXAMPLE.word == (4, 5, 11, 1, 3, 10, 7, 9, 6, 8, 2)
        assert W_EXAMPLE.parts == (2, 3, 3, 1, 2)
        assert len(W_EXAMPLE.word) == W_EXAMPLE.n == 11


class TestCountingLayer:
    def test_alpha_values(self):
        assert alpha(4, 3) == 4
        assert sum(alpha(6, m) for m in range(8)) == 21
        assert alpha(0, 1) == 1 and alpha(1, 0) == 1 and alpha(1, 2) == 1

    def test_alpha_matches_enumeration(self):
        for n in range(11):
            by_mu = {}
            for c in enumerate_t_compositions(n):
                by_mu[len(c) - 1] = by_mu.get(len(c) - 1, 0) + 1
            for m in range(n + 3):
                assert alpha(n, m) == by_mu.get(m, 0)

    def test_beta_shift(self):
        assert beta(0, 0) == 1
        for n in range(1, 11):
            for m in range(n + 2):
                assert beta(n, m) == alpha(n - 1, m)

    def test_fibonacci_polys(self):
        assert fibonacci_poly(0) == QPoly((0, 1))
        assert fibonacci_poly(1) == QPoly((1, 0, 1))
        for n in range(2, 12):
            assert fibonacci_poly(n) == fibonacci_poly(n - 1).shift(1) + fibonacci_poly(n - 2)
        sums = [fibonacci_poly(n).eval_at_one() for n in range(7)]
        assert sums == [1, 2, 3, 5, 8, 13, 21]

    def test_alpha_closed_form(self):
        for n in range(12):
            for m in range(n + 3):
                assert alpha(n, m) == alpha_closed(n, m)

    def test_alpha_deep(self):
        assert alpha(3000, 5) == math.comb(1503, 5)

    def test_fibonacci_poly_deep(self):
        poly = fibonacci_poly(3000)
        assert poly.coeffs == tuple(alpha_closed(3000, m) for m in range(3002))
        low, high = 1, 2
        for _ in range(3000):
            low, high = high, low + high
        assert poly.eval_at_one() == low
