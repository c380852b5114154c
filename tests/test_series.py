import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qderiv import series
from qderiv.ring import QPoly, XQPoly, gauss_binomial
from qderiv.series import (
    CLASSICAL_MODE,
    Q_MODE,
    RING_INT,
    RING_Q,
    RING_XQ,
    Cos_q,
    DividedSeries,
    E_q,
    Sec_q,
    Sin_q,
    Tan_q,
    classical_sec,
    classical_sin,
    classical_tan,
    cos_q,
    e_q,
    one_series,
    q_secant2_number,
    q_secant_number,
    q_tangent_number,
    sec_q,
    sin_q,
    tan_product,
    tan_q,
    zero_series,
)


def P(*coeffs):
    return QPoly(coeffs)


class TestConstructors:
    def test_e_q_all_ones(self):
        assert all(c == P(1) for c in e_q(8).coeffs)

    def test_E_q_exponents(self):
        for n, c in enumerate(E_q(8).coeffs):
            assert c == QPoly.monomial(n * (n - 1) // 2)

    def test_sin_cos_support(self):
        s, c = sin_q(6), cos_q(6)
        assert [x.eval_at_one() for x in s.coeffs] == [0, 1, 0, -1, 0, 1, 0]
        assert [x.eval_at_one() for x in c.coeffs] == [1, 0, -1, 0, 1, 0, -1]

    def test_second_kind_exponents(self):
        # Sin/Cos carry the triangular exponents of the second exponential
        assert Sin_q(5).coefficient(3) == QPoly.monomial(3, -1)
        assert Cos_q(6).coefficient(4) == QPoly.monomial(6)

    def test_tangent_values(self):
        assert q_tangent_number(1) == P(1)
        assert q_tangent_number(3) == P(0, 1, 1)
        assert q_tangent_number(5) == P(0, 0, 1, 2, 3, 4, 3, 2, 1)

    def test_secant_values(self):
        assert q_secant_number(0) == P(1)
        assert q_secant_number(4) == P(0, 1, 2, 1, 1)
        assert q_secant2_number(2) == P(0, 1)
        assert q_secant2_number(4) == P(0, 0, 1, 1, 2, 1)
        assert q_secant2_number(0) == P(1)

    def test_parity_guards(self):
        with pytest.raises(ValueError):
            q_tangent_number(4)
        with pytest.raises(ValueError):
            q_secant_number(3)


class TestArithmetic:
    def test_sin_times_sec_is_tan(self):
        prod = sin_q(6).mul(sec_q(6))
        assert prod.coefficient(3) == P(0, 1, 1)
        assert prod == tan_q(6)

    def test_mul_identity(self):
        f = tan_q(7)
        assert f.mul(one_series(7)) == f

    def test_classical_product_coefficient(self):
        # Divided coefficient 3 of tan*sec with factorial weights:
        # sum_k C(3,k) T_k E_{3-k} = 3*1*1 + 1*2*1 = 5.
        prod = classical_tan(5).mul(classical_sec(5))
        assert prod.coefficient(3) == 5

    def test_invert(self):
        assert cos_q(8).invert() == sec_q(8)
        assert one_series(5).invert() == one_series(5)
        assert Cos_q(4).invert().coefficient(4) == P(0, 0, 1, 1, 2, 1)

    def test_invert_requires_unit(self):
        with pytest.raises(ValueError):
            sin_q(4).invert()

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            tan_q(4).mul(classical_tan(4))

    def test_truncation_to_min_order(self):
        assert tan_q(8).mul(one_series(5)).order == 5


small_polys = st.lists(st.integers(-3, 3), max_size=4).map(QPoly)
_UNIT_RINGS = {
    (CLASSICAL_MODE, RING_INT): st.integers(-5, 5),
    (Q_MODE, RING_Q): small_polys,
    (Q_MODE, RING_XQ): st.lists(small_polys, max_size=3).map(XQPoly),
}


@st.composite
def unit_series(draw):
    mode, ring = draw(st.sampled_from(sorted(_UNIT_RINGS)))
    tail = draw(st.lists(_UNIT_RINGS[mode, ring], max_size=6))
    one = one_series(0, mode, ring).coefficient(0)
    return DividedSeries(mode, ring, (one,) + tuple(tail))


class TestInverseProperty:
    @settings(max_examples=60, deadline=None)
    @given(unit_series())
    def test_mul_by_inverse_is_unit(self, s):
        unit = one_series(s.order, s.mode, s.ring)
        inv = s.invert()
        assert s.mul(inv) == unit
        assert inv.mul(s) == unit
        assert inv.invert() == s


def schoolbook(a, b):
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai * bj
    return QPoly(out)


def reference_term(mode, n, k, fk, gj):
    """weight(n, k) * f_k * g_(n-k), one schoolbook product at a time."""
    weight = gauss_binomial(n, k) if mode == Q_MODE else QPoly((math.comb(n, k),))
    return schoolbook(weight, schoolbook(fk, gj))


def reference_mul(f, g):
    out = []
    for n in range(min(f.order, g.order) + 1):
        acc = QPoly.zero()
        for k in range(n + 1):
            acc = acc + reference_term(f.mode, n, k, f.coeffs[k], g.coeffs[n - k])
        out.append(acc)
    return DividedSeries(f.mode, f.ring, out)


def reference_invert(f):
    inv = [QPoly.one()]
    for n in range(1, f.order + 1):
        acc = QPoly.zero()
        for k in range(1, n + 1):
            acc = acc + reference_term(f.mode, n, k, f.coeffs[k], inv[n - k])
        inv.append(-acc)
    return DividedSeries(f.mode, f.ring, inv)


# signed coefficients at and next to the edges of 1-, 2- and 3-byte slots
_EDGES = [0, 1, 127, 128, 255, 256, 2**15 - 1, 2**15, 2**15 + 1]
edge_ints = st.one_of(st.sampled_from(_EDGES + [-c for c in _EDGES]), st.integers(-300, 300))
# a shift of _PACKED_FROM packs every unit the polynomial enters; units of
# unshifted polynomials take QPoly's own products
edge_polys = st.builds(
    lambda low, coeffs: QPoly([0] * low + coeffs),
    st.sampled_from([0, 0, series._PACKED_FROM]),
    st.lists(edge_ints, max_size=4),
)
q_modes = st.sampled_from([Q_MODE, CLASSICAL_MODE])


@st.composite
def q_ring_series(draw, mode, unit=False):
    coeffs = draw(st.lists(edge_polys, min_size=1, max_size=7))
    if unit:
        coeffs[0] = QPoly.one()
    return DividedSeries(mode, RING_Q, coeffs)


class TestPackedConvolution:
    """q-ring ``mul`` and ``invert`` sum packed products grouped by slot
    width; each must equal the sum of its terms taken one by one."""

    @settings(max_examples=150, deadline=None)
    @given(q_modes.flatmap(lambda mode: st.tuples(q_ring_series(mode), q_ring_series(mode))))
    def test_mul_matches_per_term_reference(self, pair):
        f, g = pair
        assert f.mul(g) == reference_mul(f, g)

    @settings(max_examples=150, deadline=None)
    @given(q_modes.flatmap(lambda mode: q_ring_series(mode, unit=True)))
    def test_invert_matches_per_term_reference(self, f):
        assert f.invert() == reference_invert(f)

    # coefficient 2 of f*g: f_0 g_2 + f_2 g_0 share the weight 1 (bound 5,
    # 1-byte slots), and f_1 g_1 has its own, 1 + q or 2 (bound 2^20 + 1 or
    # 2 (2^20 + 1), 3-byte slots); a shift of f_i packs the units it enters
    @pytest.mark.parametrize(
        "shifted, expected",
        [((0, 1, 2), [1, 3]), ((1,), [3]), ((), [])],
        ids=["both-units-packed", "one-unit-packed", "no-unit-packed"],
    )
    @pytest.mark.parametrize("mode", [Q_MODE, CLASSICAL_MODE])
    def test_a_coefficient_sums_units_by_width(self, mode, shifted, expected, monkeypatch):
        f = [P(1), P(2**20, -1), P(-1, 1)]
        for i in shifted:
            f[i] = f[i].shift(series._PACKED_FROM)
        f = DividedSeries(mode, RING_Q, f)
        g = DividedSeries(mode, RING_Q, (P(-1, 1), P(1), P(1)))
        widths = []
        unpack = series._unpack

        def recording(value, n, w):
            widths.append(w)
            return unpack(value, n, w)

        monkeypatch.setattr(series, "_unpack", recording)
        coefficient = f._convolve(2, 0, series._Operand(f.coeffs), series._Operand(g.coeffs))
        assert sorted(widths) == expected
        assert coefficient == reference_mul(f, g).coefficient(2)
        assert f.mul(g) == reference_mul(f, g)


class TestOperators:
    def test_d_q_is_shift(self):
        assert tan_q(8).d_q().coefficient(0) == P(1)
        assert e_q(6).d_q() == e_q(5)

    def test_d_q_secant_identity(self):
        lhs = sec_q(9).d_q()
        rhs = sec_q(8).scale_arg(1).mul(tan_q(8))
        assert lhs == rhs

    def test_d_q_guards(self):
        with pytest.raises(ValueError):
            one_series(0).d_q()
        with pytest.raises(ValueError):
            classical_tan(4).d_q()

    def test_scale_arg(self):
        scaled = e_q(6).scale_arg(1)
        assert all(c == QPoly.monomial(n) for n, c in enumerate(scaled.coeffs))
        assert tan_q(6).scale_arg(0) == tan_q(6)
        assert tan_q(5).scale_arg(1).coefficient(3) == P(0, 1, 1).shift(3)

    def test_scale_arg_guards(self):
        with pytest.raises(ValueError):
            classical_tan(4).scale_arg(1)
        with pytest.raises(ValueError):
            tan_q(4).scale_arg(-1)


class TestDerivativeIdentities:
    def test_derivative_identities_to_order_12(self):
        order = 12
        t, s, S = tan_q(order - 1), sec_q(order - 1), Sec_q(order - 1)
        assert tan_q(order).d_q() == one_series(order - 1).add(t.mul(t.scale_arg(1)))
        assert sec_q(order).d_q() == s.scale_arg(1).mul(t)
        assert Sec_q(order).d_q() == S.mul(t.scale_arg(1))

    def test_only_one_q_tangent(self):
        assert Tan_q(10) == tan_q(10)

    def test_reciprocity(self):
        for n in (1, 3, 5, 7, 9, 11):
            p = q_tangent_number(n)
            assert p.reverse(n * (n - 1) // 2) == p
        for n in (0, 2, 4, 6, 8, 10):
            assert q_secant_number(n).reverse(n * (n - 1) // 2) == q_secant2_number(n)


class TestClassicalMode:
    def test_tangent_numbers(self):
        t = classical_tan(9)
        assert [t.coefficient(n) for n in (1, 3, 5, 7, 9)] == [1, 2, 16, 272, 7936]

    def test_secant_numbers(self):
        s = classical_sec(10)
        assert [s.coefficient(n) for n in (0, 2, 4, 6, 8, 10)] == [1, 1, 5, 61, 1385, 50521]

    def test_classical_ring_guard(self):
        with pytest.raises(ValueError):
            DividedSeries(Q_MODE, RING_INT, (1, 1))


class TestTanProduct:
    def test_single_part_is_unit(self):
        assert tan_product((3,), 6) == one_series(6)

    def test_two_factor_products(self):
        expected = tan_q(6).mul(tan_q(6).scale_arg(1))
        assert tan_product((0, 1, 0), 6) == expected
        expected = tan_q(6).scale_arg(2).mul(tan_q(6).scale_arg(3))
        assert tan_product((2, 1, 0), 6) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tan_product((), 5)


class TestPromotionAndJson:
    def test_promotions(self):
        s = classical_sin(4)
        q = s.promote(RING_Q)
        assert q.ring == RING_Q and q.coefficient(1) == P(1)
        xq = q.promote(RING_XQ)
        assert xq.ring == RING_XQ
        with pytest.raises(ValueError):
            xq.promote(RING_Q)
        with pytest.raises(ValueError):
            s.promote(RING_XQ)

    @staticmethod
    def decode(data):
        def qpoly(c):
            return QPoly(map(int, c["coeffs"]))

        coeff = {
            RING_INT: int, RING_Q: qpoly, RING_XQ: lambda c: XQPoly(map(qpoly, c["coeffs"])),
        }[data["ring"]]
        return DividedSeries(data["mode"], data["ring"], [coeff(c) for c in data["coeffs"]])

    def test_json_roundtrip_q(self):
        s = tan_q(5)
        data = json.loads(json.dumps(s.to_json()))
        assert self.decode(data) == s
        assert data["mode"] == "q" and data["ring"] == "q" and data["order"] == 5

    def test_json_roundtrip_classical(self):
        s = classical_sec(6)
        assert self.decode(json.loads(json.dumps(s.to_json()))) == s

    def test_json_roundtrip_xq(self):
        s = tan_q(4).promote(RING_XQ)
        assert self.decode(json.loads(json.dumps(s.to_json()))) == s

    def test_zero_series_shape(self):
        z = zero_series(3, CLASSICAL_MODE, RING_INT)
        assert z.coeffs == (0, 0, 0, 0)
