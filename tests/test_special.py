import json

import pytest

from qderiv.cli import build_family
from qderiv.render import render
from qderiv.ring import QPoly, XQPoly
from qderiv.series import Sec_q, sec_q
from qderiv.special import (
    carlitz_refined_table,
    carlitz_refinement,
    carlitz_table,
    classical_springer_numbers,
    diagonal_closed_forms,
    hoffman_polys,
    small_triangles,
    springer_poly_from_series,
    springer_poly_from_tables,
    tq_secant,
    tq_tangent,
)


def P(*coeffs):
    return QPoly(coeffs)


class TestSmallTriangles:
    def test_spot_values(self):
        tri_a, tri_b = small_triangles(6)
        assert len(tri_a) == len(tri_b) == 7
        assert tri_a[0] == {1: 1} and tri_b[0] == {0: 1}
        assert tri_a[4][3] == 40
        assert tri_b[4][2] == 28
        assert tri_a[6][1] == 272
        assert tri_b[6][6] == 720
        # only nonzero entries are stored, in increasing m
        assert list(tri_a[5]) == [0, 2, 4, 6] and list(tri_b[5]) == [1, 3, 5]

    def test_row_sums(self):
        tri_a, tri_b = small_triangles(6)
        assert [sum(row.values()) for row in tri_a] == [1, 2, 4, 16, 80, 512, 3904]
        assert [sum(row.values()) for row in tri_b] == [1, 1, 3, 11, 57, 361, 2763]

    def test_json_roundtrip(self):
        tri_a, _ = small_triangles(4)
        data = json.loads(render(build_family("a_small", 4), "json"))
        assert data["family"] == "a_small" and data["n_max"] == 4
        rows = [tuple(map(int, row)) for row in data["rows"]]
        assert [(n, m, v) for n, row in enumerate(tri_a) for m, v in row.items()] == rows


class TestHoffmanPolys:
    def test_values(self):
        a_polys, b_polys = hoffman_polys(3)
        assert a_polys[0] == P(0, 1)
        assert a_polys[2] == P(0, 2, 0, 2)
        assert a_polys[3] == P(2, 0, 8, 0, 6)
        assert b_polys[0] == P(1)
        assert b_polys[2] == P(1, 0, 2)


class TestTqLayer:
    def test_tangent_values(self):
        assert tq_tangent(1) == XQPoly((QPoly(), P(1)))
        assert tq_tangent(3) == XQPoly((QPoly(), QPoly(), P(0, 1, 1)))

    def test_secant_values(self):
        assert tq_secant(0) == XQPoly((QPoly(), P(1)))
        assert tq_secant(2) == XQPoly((QPoly(), P(1)))
        expected = XQPoly((QPoly(), QPoly(), P(0, 1, 2, 1), QPoly.monomial(4)))
        assert tq_secant(4) == expected

    def test_collapse_to_tangent_number(self):
        # t = q = 1 sums every coefficient
        assert sum(c.eval_at_one() for c in tq_tangent(5).coeffs) == 16

    def test_parity_guard(self):
        with pytest.raises(ValueError):
            tq_tangent(2)
        with pytest.raises(ValueError):
            tq_secant(3)


class TestCarlitz:
    def test_printed_polynomials(self):
        table = carlitz_table(5)
        assert len(table) == 6
        assert table[2] == {0: P(1), 1: P(0, 1)}
        assert table[3] == {0: P(1), 1: P(0, 2, 2), 2: P(0, 0, 0, 1)}
        assert table[4][1] == P(0, 3, 5, 3)
        assert table[5][2] == P(0, 0, 0, 6, 16, 22, 16, 6)
        assert table[0] == {0: P(1)} and table[1] == {0: P(1)}

    def test_refinement_instance(self):
        ref = carlitz_refinement(4)
        total = QPoly()
        for a in range(1, 5):
            total = total + ref[(1, a)]
        assert total == P(0, 3, 5, 3)
        assert ref[(1, 1)] == P(0, 0, 2, 2)

    def test_readoff_equals_recurrence(self):
        rec = carlitz_refined_table(5)
        assert len(rec) == 6
        for n in range(6):
            assert carlitz_refinement(n) == rec[n]


class TestDiagonals:
    def test_n4_values(self):
        forms = diagonal_closed_forms(4)
        assert forms.super_a == P(1, 3, 5, 6, 5, 3, 1)
        assert forms.sub_a == P(1, 5, 9, 10, 9, 5, 1)
        assert forms.sub_b == P(1, 4, 7, 7, 6, 3)

    def test_small_n(self):
        forms = diagonal_closed_forms(1)
        assert forms.super_a == P(1)
        assert forms.sub_a is None and forms.sub_b is None
        with pytest.raises(ValueError):
            diagonal_closed_forms(0)


class TestSpringer:
    def test_polynomials(self):
        assert springer_poly_from_tables(0) == P(1)
        assert springer_poly_from_tables(2) == P(2, 1)
        assert springer_poly_from_tables(3) == P(2, 4, 4, 1)

    def test_variants_agree(self):
        for n in range(7):
            assert springer_poly_from_tables(n) == springer_poly_from_series(sec_q(n))

    def test_values_at_one(self):
        values = [springer_poly_from_tables(n).eval_at_one() for n in range(6)]
        assert values == [1, 1, 3, 11, 57, 361]
        sec_values = [
            springer_poly_from_series(Sec_q(n)).eval_at_one() for n in range(6)
        ]
        assert sec_values == [1, 1, 3, 11, 57, 361]

    def test_classical_generating_function(self):
        assert classical_springer_numbers(6) == (1, 1, 3, 11, 57, 361, 2763)
