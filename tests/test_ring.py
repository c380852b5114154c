import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qderiv import ring
from qderiv.ring import (
    QPoly,
    XQPoly,
    gauss_binomial,
    poly_str,
    q_bracket,
    q_multinomial,
    q_pochhammer,
)


def P(*coeffs):
    return QPoly(coeffs)


def mul_oracle(a, b):
    """Dict-based convolution, independent of QPoly.__mul__."""
    out = {}
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[(i + j)] = out.get(i + j, 0) + ai * bj
    width = max(out, default=-1) + 1
    return QPoly(out.get(e, 0) for e in range(width))


def div_oracle(num, den):
    """Exact long division; asserts the remainder vanishes."""
    rem = list(num.coeffs)
    lead = den.coeffs[-1]
    d = len(num.coeffs) - len(den.coeffs)
    assert d >= 0
    quo = [0] * (d + 1)
    for i in range(d, -1, -1):
        c = rem[i + len(den.coeffs) - 1]
        assert c % lead == 0
        quo[i] = c // lead
        for j, dj in enumerate(den.coeffs):
            rem[i + j] -= quo[i] * dj
    assert not any(rem)
    return QPoly(quo)


polys = st.lists(st.integers(-9, 9), max_size=6).map(QPoly)


def _sparse(terms):
    return [terms.get(e, 0) for e in range(max(terms, default=-1) + 1)]


# up to 80 coefficients of up to 300 bits: products on both sides of the
# schoolbook/Kronecker cutoff, with zeros, sparse, all-nonpositive and
# length-one operands
wide = st.integers(-(2**300), 2**300)
wide_polys = st.one_of(
    st.lists(st.one_of(st.just(0), st.integers(-9, 9), wide), max_size=80),
    st.lists(st.integers(-(2**300), 0), max_size=80),
    st.dictionaries(st.integers(0, 79), wide, max_size=4).map(_sparse),
    st.lists(wide, min_size=1, max_size=1),
).map(QPoly)


class TestQPolyArithmetic:
    def test_identity_multiplication(self):
        assert P(0, 1, 1) * P(1) == P(0, 1, 1)

    def test_small_product(self):
        # oracle-expanded: (1+q)(1+q+q^2) = 1+2q+2q^2+q^3
        assert mul_oracle(P(1, 1), P(1, 1, 1)) == P(1, 2, 2, 1)
        assert P(1, 1) * P(1, 1, 1) == P(1, 2, 2, 1)

    def test_subtract_to_zero(self):
        assert P(0, 1, 1) - P(0, 1, 1) == QPoly()
        assert not (P(0, 1, 1) - P(0, 1, 1))

    @given(polys, polys)
    def test_mul_matches_oracle(self, a, b):
        assert a * b == mul_oracle(a, b)

    @settings(max_examples=300, deadline=None)
    @given(wide_polys, wide_polys)
    def test_wide_mul_matches_oracle(self, a, b):
        assert a * b == mul_oracle(a, b)

    def test_mul_on_both_sides_of_cutoff(self):
        for la in range(1, 21):
            for lb in tuple(range(1, 21)) + (79, 80):
                a = QPoly((-2) ** i for i in range(la))
                b = QPoly((-1) ** j * (j + 1) << 200 for j in range(lb))
                assert a * b == mul_oracle(a, b)

    @pytest.mark.parametrize("bits", (55, 143))
    @pytest.mark.parametrize("sign", (1, -1))
    @pytest.mark.parametrize("flip", (1, -1))
    def test_coefficient_at_slot_edge(self, bits, sign, flip):
        # 2^bits - 1 = 23 k; a coefficient 23 k in a 23 x 23 product is the
        # largest its slot holds: 2^(8w - 1) - 1 with w = bits // 8 + 1
        assert (2**bits - 1) % 23 == 0 and 8 * (bits // 8 + 1) - 1 == bits
        k = (2**bits - 1) // 23
        a = QPoly(sign * flip**i * k for i in range(23))
        b = QPoly(flip**i for i in range(23))
        product = a * b
        assert product == mul_oracle(a, b)
        assert product.coeffs[22] == sign * (2**bits - 1)
        # with flip = -1, neighbours of opposite sign make the decoding borrow
        assert product.coeffs[21] == sign * flip * 22 * k

    def test_coefficient_just_past_a_narrower_slot(self):
        # a coefficient of 2^63 needs a 9-byte slot: in 8 bytes it would
        # read back as -2^63
        a = QPoly((2**59,) * 16)
        b = QPoly((1,) * 16)
        assert (a * b).coeffs[15] == 2**63
        assert a * b == mul_oracle(a, b)
        assert (-a) * b == mul_oracle(-a, b)

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_int_scalars(self):
        assert 2 * P(1, 1) == P(2, 2)
        assert P(1, 1) + 1 == P(2, 1)

    def test_canonical_zero(self):
        assert QPoly((0, 0, 0)).coeffs == ()
        assert P(1, 0, 0).coeffs == (1,)


class TestPackedSlots:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shifted_packed_sums_decode_to_coefficient_sums(self, data):
        # widths 1-17 bytes, 8 (the array path) often; the largest signed
        # slot value is 2^(8w - 1) - 1 and the largest unsigned 2^(8w) - 1
        w = data.draw(st.one_of(st.just(8), st.integers(1, 17)), label="w")
        signed = data.draw(st.booleans(), label="signed")
        summands = data.draw(st.integers(1, 4), label="summands")
        top = 2 ** (8 * w - 1) - 1 if signed else 2 ** (8 * w) - 1
        cap = top // summands  # so no coefficient sum leaves its slot
        low = -cap if signed else 0
        coeff = st.one_of(st.integers(max(low, -1), 1), st.just(cap), st.just(low), st.integers(low, cap))
        terms = data.draw(
            st.lists(st.tuples(st.lists(coeff, max_size=6), st.integers(0, 4)), min_size=summands, max_size=summands),
            label="terms",
        )
        assert ring._slot_width(2 ** (8 * w - 1) - 1) == w < ring._slot_width(2 ** (8 * w - 1))
        expected = [0] * max(len(coeffs) + shift for coeffs, shift in terms)
        total = 0
        for coeffs, shift in terms:
            for i, c in enumerate(coeffs, shift):
                expected[i] += c
            total += (ring._pack if signed else ring._pack_slots)(coeffs, w) << (8 * w * shift)
        if signed:
            assert ring._unpack(total, len(expected), w) == expected
        else:
            while expected and not expected[-1]:
                expected.pop()
            assert ring._unpack_slots(total, w) == expected


class TestShiftReverseEval:
    def test_shift(self):
        assert P(1, 1).shift(2) == P(0, 0, 1, 1)
        assert QPoly().shift(5) == QPoly()
        assert P(0, 2, 1).shift(1) == P(0, 0, 2, 1)

    def test_reverse_mirror(self):
        assert P(0, 2, 1).reverse(3) == P(0, 1, 2)

    def test_reverse_table_symmetry_instance(self):
        # reversing q^2 in degree 3 gives q
        assert P(0, 0, 1).reverse(3) == P(0, 1)

    def test_reverse_links_secant_families(self):
        a4 = P(0, 1, 2, 1, 1)
        assert a4.reverse(6) == P(0, 0, 1, 1, 2, 1)

    def test_reverse_rejects_low_degree(self):
        with pytest.raises(ValueError):
            P(1, 1, 1).reverse(1)

    @given(polys, st.integers(0, 4))
    def test_reverse_involution(self, p, slack):
        d = p.degree + slack if p else slack
        assert p.reverse(d).reverse(d) == p

    def test_eval_at_one(self):
        assert P(1, 2, 2, 1).eval_at_one() == 6
        assert P(0, 0, 1, 2, 3, 4, 3, 2, 1).eval_at_one() == 16
        assert QPoly().eval_at_one() == 0


class TestQConstants:
    def test_bracket(self):
        assert q_bracket(1) == P(1)
        assert q_bracket(4) == P(1, 1, 1, 1)
        assert q_bracket(0) == QPoly()

    def test_gauss_binomial_by_division(self):
        num = q_pochhammer(4)
        den = q_pochhammer(2) * q_pochhammer(2)
        assert div_oracle(num, den) == gauss_binomial(4, 2)
        assert gauss_binomial(4, 2) == P(1, 1, 2, 1, 1)

    def test_gauss_edges(self):
        assert gauss_binomial(7, 0) == P(1)
        assert gauss_binomial(7, 7) == P(1)
        with pytest.raises(ValueError):
            gauss_binomial(3, 4)

    def test_gauss_symmetry_and_eval(self):
        for n in range(9):
            for m in range(n + 1):
                g = gauss_binomial(n, m)
                assert g == gauss_binomial(n, n - m)
                assert g.eval_at_one() == math.comb(n, m)

    def test_pochhammer_factorization(self):
        for n in range(13):
            for m in range(n + 1):
                lhs = q_pochhammer(n)
                rhs = q_pochhammer(m) * q_pochhammer(n - m) * gauss_binomial(n, m)
                assert lhs == rhs

    def test_gauss_binomial_deep(self):
        # coefficient of q^k: partitions of k into at most 2 parts <= 2998
        g = gauss_binomial(3000, 2)
        assert g.coeffs == tuple(k // 2 - max(0, k - 2998) + 1 for k in range(2 * 2998 + 1))

    def test_gauss_binomial_fills_only_its_band(self):
        # [n, 1] = [n]_q reads columns 0 and 1 of the rows below it, so a
        # request at large n stores O(n) entries, not the whole triangle
        before = len(ring._GAUSS)
        assert gauss_binomial(700, 1) == QPoly((1,) * 700)
        assert len(ring._GAUSS) - before <= 2 * 701
        assert gauss_binomial(701, 1) == QPoly((1,) * 701)

    def test_pochhammer_deep(self):
        # (q;q)_3000 has degree 4.5 million, too large to build here; n = 300
        # under a recursion limit of 200 shows the product is built bottom-up
        q_pochhammer.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            p = q_pochhammer(300)
        finally:
            sys.setrecursionlimit(limit)
        assert p.degree == 300 * 301 // 2 and p.eval_at_one() == 0
        # up to q^300 the coefficients follow Euler's pentagonal number theorem
        pentagonal = {j * (3 * j - 1) // 2: (-1) ** j for j in range(-20, 21)}
        assert p.coeffs[:301] == tuple(pentagonal.get(k, 0) for k in range(301))

    def test_multinomial(self):
        expected = P(1, 1, 1) * P(1, 1, 1, 1)
        assert q_multinomial(4, (2, 1, 1)) == expected
        with pytest.raises(ValueError):
            q_multinomial(4, (2, 1))


class TestJson:
    def test_qpoly_wire_format(self):
        data = P(1, 0, -3).to_json()
        assert data == {"coeffs": ["1", "0", "-3"]}
        assert json.loads(json.dumps(data)) == data

    @given(polys)
    def test_qpoly_roundtrip(self, p):
        data = json.loads(json.dumps(p.to_json()))
        assert data == {"coeffs": [str(c) for c in p.coeffs]}

    def test_xqpoly_roundtrip(self):
        xp = XQPoly((P(1), P(0, 2), QPoly(), P(3)))
        data = json.loads(json.dumps(xp.to_json()))
        assert data == {"coeffs": [{"coeffs": ["1"]}, {"coeffs": ["0", "2"]}, {"coeffs": []}, {"coeffs": ["3"]}]}

    def test_big_integers_survive(self):
        big = 10 ** 40 + 7
        data = json.loads(json.dumps(QPoly((big,)).to_json()))
        assert data == {"coeffs": ["10000000000000000000000000000000000000007"]}


class TestXQPoly:
    def test_scalar_layers(self):
        xp = XQPoly((P(1), P(0, 1)))
        assert xp * P(0, 1) == XQPoly((P(0, 1), P(0, 0, 1)))
        assert 2 * xp == XQPoly((P(2), P(0, 2)))

    def test_outer_product(self):
        x = XQPoly.monomial(1)
        assert x * x == XQPoly.monomial(2)
        assert (x + 1) * (x + 1) == XQPoly((P(1), P(2), P(1)))

    def test_product_of_wide_coefficients(self):
        # inner products of 30 x 40 coefficients take the Kronecker path
        a = XQPoly((QPoly(range(1, 31)), QPoly(), QPoly(-c << 90 for c in range(40))))
        b = XQPoly((QPoly((3,) * 40), QPoly(range(-15, 15))))
        expected = [QPoly()] * 4
        for i, ai in enumerate(a.coeffs):
            for j, bj in enumerate(b.coeffs):
                expected[i + j] = expected[i + j] + mul_oracle(ai, bj)
        assert a * b == XQPoly(expected)

    def test_eval_outer_at_one(self):
        # the outer variable at 1 is the sum of the coefficients
        xp = XQPoly((P(1), P(0, 1), P(3)))
        assert sum(xp.coeffs, QPoly()) == P(4, 1)


xqpolys = st.lists(polys, max_size=4).map(XQPoly)
scalars = st.one_of(st.integers(-9, 9), polys)


def _constant(s):
    return XQPoly((s if isinstance(s, QPoly) else QPoly((s,)),))


class TestXQPolyProperties:
    @given(xqpolys, xqpolys, xqpolys)
    def test_ring_axioms(self, a, b, c):
        zero, one = XQPoly.zero(), XQPoly.one()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and a * zero == zero
        assert a - a == zero and -(-a) == a
        assert (a - b) + b == a

    @given(xqpolys, scalars)
    def test_scalars_on_both_sides(self, a, s):
        const = _constant(s)
        for value in (a + s, s + a, a - s, s - a, a * s, s * a):
            assert type(value) is XQPoly
        assert a + s == s + a == a + const
        assert a - s == a - const
        assert s - a == const - a
        assert a * s == s * a == a * const

    def test_distinct_from_qpoly(self):
        assert QPoly() != XQPoly() and XQPoly() != QPoly()
        assert P(1) != XQPoly((P(1),))
        assert XQPoly() != 0 and QPoly() != 0

    @given(xqpolys, xqpolys)
    def test_equal_values_hash_equal(self, a, b):
        padded = XQPoly(a.coeffs + (QPoly(), QPoly((0, 0))))
        rebuilt = (a + b) - b
        copied = XQPoly(QPoly(list(c.coeffs)) for c in a.coeffs)
        for same in (padded, rebuilt, copied):
            assert same == a and hash(same) == hash(a)


class TestPrinting:
    def test_poly_str(self):
        assert poly_str(QPoly()) == "0"
        assert poly_str(P(1, 2, 0, 1)) == "1 + 2q + q^3"
        assert poly_str(P(0, -1, 3)) == "-q + 3q^2"
        assert poly_str(P(0, 1), var="x") == "x"
