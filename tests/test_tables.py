import itertools
import json
import tracemalloc
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from qderiv import permstats, tcomb
from qderiv.cli import TABLE_FAMILIES, build_family, build_oracle
from qderiv.render import Table, render
from qderiv.ring import QPoly, XQPoly, _pack_slots, _unpack_slots, q_pochhammer
from qderiv import tables
from qderiv.tables import (
    _fill_comp_row,
    _fill_triple_row,
    _insertion_tally,
    _slot_bytes,
    a_table,
    ac_table,
    b_table,
    oracle_all,
    product_formula,
    rewrite_comp_sec,
    rewrite_comp_tan,
    rewrite_sec,
    rewrite_tan,
)
from qderiv.tcomb import BruteForceBoundError, enumerate_t_compositions


def P(*coeffs):
    return QPoly(coeffs)


class TestRecurrenceTables:
    def test_a_seed_and_spot_values(self):
        t = a_table(4)
        assert t.get((0, 0, 1, 0)) == P(1)
        assert t.get((2, 1, 2, 1)) == P(0, 1)
        assert t.get((3, 1, 0, 0)) == P(0, 1, 1)
        assert t.get((4, 2, 2, 1)) == P(0, 0, 0, 3, 5, 2)
        assert t.get((4, 9, 9, 9)) == QPoly()

    def test_b_seed_and_spot_values(self):
        t = b_table(4)
        assert t.get((0, -1, 0, 0)) == P(1)
        assert t.get((1, 0, 1, 0)) == P(1)
        assert t.get((2, 1, 2, 0)) == P(0, 1)
        assert t.get((3, 1, 1, 0)) == P(0, 2, 1)
        assert t.get((4, 2, 2, 0)) == P(0, 0, 0, 3, 4, 1)

    def test_ac_spot_values(self):
        t = ac_table(4)
        assert t.get((1, (1,))) == P(1)
        assert t.get((1, (0, 1, 0))) == P(1)
        assert t.get((3, (0, 1, 2))) == P(0, 1, 1, 1)
        assert t.get((4, (0, 1, 1, 1, 1, 0))) == P(1, 1) * P(1, 1, 1) * P(1, 1, 1, 1)

    def test_ac_rows_cover_all_compositions(self):
        t = ac_table(6)
        for n in range(7):
            assert set(t.row(n)) == set(enumerate_t_compositions(n))

    def test_aggregates_match_printed_row(self):
        agg = a_table(3).aggregate_by_m(3)
        assert agg == {0: P(0, 1, 1), 2: P(1, 3, 3, 1), 4: P(1, 2, 2, 1)}

    def test_views_share_rows(self):
        small, large = b_table(3), b_table(6)
        assert small.n_max == 3 and len(small.rows) == 4
        assert all(small.row(n) is large.row(n) for n in range(4))
        with pytest.raises(IndexError):
            small.row(4)
        assert small.get((5, 2, 2, 1)) == QPoly() and large.get((5, 2, 2, 1))
        assert b_table(3) is small


class TestRewriteEngines:
    def test_tan_iteration_row_3(self):
        expected = {
            (1, 0, 0): P(0, 1, 1),
            (0, 0, 2): P(1),
            (1, 0, 2): P(0, 0, 1),
            (1, 1, 1): P(0, 2, 2),
            (1, 2, 0): P(0, 1),
            (2, 2, 0): P(0, 0, 0, 1),
            (0, 1, 3): P(1),
            (1, 1, 3): P(0, 0, 1),
            (1, 2, 2): P(0, 1, 1),
            (1, 3, 1): P(0, 1),
            (2, 3, 1): P(0, 0, 0, 1),
        }
        assert rewrite_tan(3) == expected

    def test_tan_start_symbol(self):
        assert rewrite_tan(0) == {(0, 1, 0): P(1)}
        assert rewrite_tan(2)[(1, 2, 1)] == P(0, 1)

    def test_sec_iteration_row_3(self):
        expected = {
            (0, 0, 1): P(1),
            (1, 0, 1): P(0, 0, 1),
            (1, 1, 0): P(0, 2, 1),
            (0, 1, 2): P(1),
            (1, 1, 2): P(0, 0, 1),
            (1, 2, 1): P(0, 1, 1),
            (1, 3, 0): P(0, 1),
            (2, 3, 0): P(0, 0, 0, 1),
        }
        assert rewrite_sec(3) == expected

    def test_comp_iterations(self):
        assert rewrite_comp_tan(1) == {(1,): P(1), (0, 1, 0): P(1)}
        row2 = rewrite_comp_tan(2)
        assert row2 == {(2, 0): P(1), (0, 2): P(0, 1), (0, 1, 1, 0): P(1, 1)}
        row3 = rewrite_comp_tan(3)
        assert row3[(0, 1, 1, 1, 0)] == P(1, 1) * P(1, 1, 1)
        assert row3[(3,)] == P(0, 1, 1)

    def test_comp_sec_matches_s_restriction(self):
        for n in range(6):
            srow = {c: p for c, p in ac_table(n).row(n).items() if c[-1] == 0}
            assert rewrite_comp_sec(n) == srow

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(("A", "B", "Ac")), st.integers(0, 8))
    def test_recurrence_row_equals_rewrite_row(self, kind, n):
        recurrence, rewrite = {
            "A": (a_table, rewrite_tan),
            "B": (b_table, rewrite_sec),
            "Ac": (ac_table, rewrite_comp_tan),
        }[kind]
        row = recurrence(n).row(n)
        assert rewrite(n) == row
        if kind == "Ac":
            assert rewrite_comp_sec(n) == {c: p for c, p in row.items() if c[-1] == 0}


def reference_triple_row(prev, n, relaxed_first_sum):
    """Row n+1 of A or B, each of the four sums summed term by term."""
    zero = QPoly.zero()
    cur = {}
    for kp in range(0, n + 1):
        for mp in range(0, n + 3):
            for ap in range(0, mp + 1):
                bp = mp - ap
                acc = zero
                if relaxed_first_sum or ap - 1 <= mp - 2:
                    for a in range(0, ap):
                        acc = acc + prev.get((kp - 1, a, mp - 1 - a), zero)
                if ap >= 1:
                    for a in range(ap, mp):
                        acc = acc + prev.get((kp, a, mp - 1 - a), zero)
                for a in range(0, ap + 1):
                    acc = acc + prev.get((kp - 1, a, mp + 1 - a), zero)
                for a in range(ap + 1, mp + 2):
                    acc = acc + prev.get((kp, a, mp + 1 - a), zero)
                if acc:
                    cur[(kp, ap, bp)] = acc.shift(kp)
    return cur


class TestTripleRowStep:
    @pytest.mark.parametrize("table, relaxed", ((a_table, False), (b_table, True)))
    def test_prefix_sums_equal_term_by_term_sums(self, table, relaxed):
        rows = table(12).rows
        for n in range(12):
            expected = reference_triple_row(rows[n], n, relaxed)
            actual = _fill_triple_row(rows[n], n, relaxed)
            assert list(actual.items()) == list(expected.items())
            assert list(rows[n + 1].items()) == list(expected.items())


def qpoly_diagonal_sums(row, k, d, from_end):
    """Partial sums of ``row`` along a + b = d at one k, as QPoly sums."""
    acc = QPoly.zero()
    out = [acc]
    for a in range(d, -1, -1) if from_end else range(0, d + 1):
        term = row.get((k, a, d - a))
        if term:
            acc = acc + term if acc else term
        out.append(acc)
    if from_end:
        out.reverse()
    return out


def qpoly_triple_row(prev, n, relaxed_first_sum):
    """Row n+1 of A or B from diagonal prefix sums added one coefficient
    at a time by ``QPoly.__add__``."""
    cur = {}
    for kp in range(0, n + 1):
        heads = {d: qpoly_diagonal_sums(prev, kp - 1, d, False) for d in range(-1, n + 4)}
        tails = {d: qpoly_diagonal_sums(prev, kp, d, True) for d in range(-1, n + 4)}
        for mp in range(0, n + 3):
            below_head, below_tail = heads[mp - 1], tails[mp - 1]
            above_head, above_tail = heads[mp + 1], tails[mp + 1]
            for ap in range(0, mp + 1):
                parts = [above_head[ap + 1], above_tail[ap + 1]]
                if relaxed_first_sum or ap <= mp - 1:
                    parts.append(below_head[ap])
                if ap >= 1:
                    parts.append(below_tail[ap])
                acc = QPoly.zero()
                for part in parts:
                    if part:
                        acc = acc + part if acc else part
                if acc:
                    cur[(kp, ap, mp - ap)] = acc.shift(kp)
    return cur


def qpoly_comp_row(row, n):
    """Row n+1 of Ac, each source's coefficients added into one int list."""
    width = (n + 1) * n // 2 + 1
    cur = {}
    for cp in enumerate_t_compositions(n + 1):
        mp = len(cp) - 1
        c0, rest = cp[0], cp[1:]
        sources = [((2 * j, c0 - 2 * j - 1) + rest, 2 * j) for j in range(0, (c0 - 1) // 2 + 1)]
        prefix = 0
        for i in range(1, mp + 1):
            prefix += cp[i - 1]
            ci, head, tail = cp[i], cp[:i], cp[i + 1 :]
            for j in range(1, ci // 2 + 1):
                sources.append((head + (2 * j - 1, ci - 2 * j) + tail, prefix + 2 * j - 1))
            if ci == 1 and i <= mp - 1:
                sources.append((head + tail, prefix))
        acc = [0] * width
        for source, shift in sources:
            val = row.get(source)
            if val:
                for d, c in enumerate(val.coeffs, shift):
                    acc[d] += c
        poly = QPoly(acc)
        if poly:
            cur[cp] = poly
    return cur


_PER_COEFFICIENT_STEPS = {
    "A": (a_table, lambda row, n: qpoly_triple_row(row, n, False)),
    "B": (b_table, lambda row, n: qpoly_triple_row(row, n, True)),
    "Ac": (ac_table, qpoly_comp_row),
}

# nonnegative coefficients, small ones and ones that need a slot wider than 64 bits
_COEFF = st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1), st.integers(2**64, 2**200))


class TestPackedRowSteps:
    @pytest.mark.parametrize("kind", ("A", "B", "Ac"))
    def test_rows_equal_per_coefficient_sums(self, kind):
        table, step = _PER_COEFFICIENT_STEPS[kind]
        table(12)
        rows = tables._ROWS[kind]
        for n in range(12):
            assert list(rows[n + 1].items()) == list(step(rows[n], n).items())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(_COEFF, max_size=6), st.integers(0, 5)), min_size=1, max_size=6))
    def test_packed_sum_equals_per_coefficient_sum(self, terms):
        w = _slot_bytes({i: QPoly(coeffs) for i, (coeffs, _) in enumerate(terms)}, len(terms))
        bound = len(terms) * max((c for coeffs, _ in terms for c in coeffs), default=0)
        # the least whole number of 8-byte words with bound < 2^(8w - 1)
        assert w % 8 == 0 and bound < 2 ** (8 * w - 1) and (w == 8 or bound >= 2 ** (8 * w - 65))
        expected = [0] * (max(len(coeffs) + shift for coeffs, shift in terms))
        packed = 0
        for coeffs, shift in terms:
            for d, c in enumerate(coeffs, shift):
                expected[d] += c
            packed += _pack_slots(coeffs, w) << (8 * w * shift)
        assert QPoly(_unpack_slots(packed, w)) == QPoly(expected)

    @pytest.mark.parametrize("kind", ("A", "B", "Ac"))
    def test_wide_slots_give_the_scaled_row(self, kind):
        # both steps are linear in row n, so a row scaled past 2^64 gives
        # the scaled next row, through slots of 16 bytes
        step = _fill_comp_row if kind == "Ac" else partial(_fill_triple_row, relaxed_first_sum=kind == "B")
        table = _PER_COEFFICIENT_STEPS[kind][0](6)
        scale = 2**70
        for n in range(6):
            scaled = {key: poly * scale for key, poly in table.row(n).items()}
            assert _slot_bytes(scaled, 2 * n + 6) == 16
            expected = {key: poly * scale for key, poly in table.row(n + 1).items()}
            assert list(step(scaled, n).items()) == list(expected.items())


def oracle_per_permutation(n):
    """Rows n of A, B and Ac, one QPoly monomial per (permutation, cut)."""
    if n == 0:
        return {(0, 1, 0): P(1)}, {(-1, 0, 0): P(1)}, {(0, 0): P(1)}
    zero = QPoly.zero()
    a_row, b_row, c_row = {}, {}, {}
    for sigma in itertools.permutations(range(1, n + 1)):
        desc = permstats.descent_word(sigma)
        st = permstats.statistics(sigma)
        imaj_mono = QPoly.monomial(st.imaj)
        inv_mono = QPoly.monomial(st.inv)
        pos1 = sigma.index(1)
        for parts in enumerate_t_compositions(n):
            if not tcomb._cut_alternation_ok(desc, parts):
                continue
            c_row[parts] = c_row.get(parts, zero) + inv_mono
            blk, end = 0, parts[0]
            while end <= pos1:
                blk += 1
                end += parts[blk]
            mu = len(parts) - 1
            akey = (st.ides, blk, mu - blk)
            a_row[akey] = a_row.get(akey, zero) + imaj_mono
            if parts[-1] == 0:
                bkey = (st.ides, blk, mu - blk - 1)
                b_row[bkey] = b_row.get(bkey, zero) + imaj_mono
    return a_row, b_row, c_row


class TestOracles:
    @pytest.mark.parametrize("n", range(8))
    def test_matches_per_permutation_sums(self, n):
        assert oracle_all(n) == oracle_per_permutation(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_insertion_tally_equals_definitions(self, n):
        by_pos, by_inv = Counter(), Counter()
        for sigma in itertools.permutations(range(1, n + 1)):
            desc = permstats.descent_word(sigma)
            st = permstats.statistics(sigma)
            by_pos[(desc, sigma.index(1), st.ides, st.imaj)] += 1
            by_inv[(desc, st.inv)] += 1
        assert _insertion_tally(n) == (by_pos, by_inv)

    def test_oracle_values(self):
        assert oracle_all(3)[0][(1, 1, 1)] == P(0, 2, 2)
        assert oracle_all(0)[1][(-1, 0, 0)] == P(1)
        assert oracle_all(2)[2][(0, 2)] == P(0, 1)

    def test_oracle_matches_tables_small(self):
        for n in range(6):
            oa, ob, oc = oracle_all(n)
            assert oa == a_table(n).row(n)
            assert ob == b_table(n).row(n)
            assert oc == ac_table(n).row(n)

    def test_bound_guard(self):
        with pytest.raises(BruteForceBoundError):
            build_oracle("A", 9, None)


class TestProductFormula:
    def test_examples(self):
        assert product_formula(4, (2, 1, 1, 0)) == P(1, 1, 1) * P(1, 1, 1, 1)
        assert product_formula(4, (0, 4)) == P(0, 0, 1, 1, 2, 1)
        assert product_formula(1, (0, 1, 0)) == P(1)
        assert product_formula(3, (3,)) == P(0, 1, 1)

    def test_rejects_bad_compositions(self):
        with pytest.raises(ValueError):
            product_formula(4, (1, 3))
        with pytest.raises(ValueError):
            product_formula(5, (0, 4))

    def test_matches_table(self):
        table = ac_table(6)
        for n in range(1, 7):
            for parts in enumerate_t_compositions(n):
                assert product_formula(n, parts) == table.get((n, parts))


def _qpoly(data):
    return QPoly(map(int, data["coeffs"]))


# each column type's JSON cell read back into the exact value
_PARSE = {
    "int": int, "str": str, "parts": tuple, "qpoly": _qpoly,
    "xqpoly": lambda data: XQPoly(map(_qpoly, data["coeffs"])),
}


def _payload_rows(family, n_max):
    data = json.loads(render(build_family(family, n_max), "json"))
    parse = [_PARSE[kind] for _, kind in data["columns"]]
    return data, [tuple(p(v) for p, v in zip(parse, row)) for row in data["rows"]]


class TestPolyTableJson:
    def test_triple_roundtrip(self):
        data, rows = _payload_rows("A", 3)
        assert data["family"] == "A"
        assert {row[:-1]: row[-1] for row in rows} == dict(a_table(3).items())
        assert data["rows"][0][4]["coeffs"] == ["1"]

    def test_comp_roundtrip(self):
        _, rows = _payload_rows("Ac", 3)
        assert {row[:-1]: row[-1] for row in rows} == dict(ac_table(3).items())

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(TABLE_FAMILIES), st.integers(0, 6))
    def test_payload_roundtrip_every_family(self, family, n_max):
        table = build_family(family, n_max)
        data, rows = _payload_rows(family, n_max)
        assert (data["family"], data["n_max"], data["outer_var"]) == (family, n_max, table.outer_var)
        assert tuple(map(tuple, data["columns"])) == table.columns
        assert tuple(rows) == table.rows


# each column type's JSON cell, as the whole-table encoding had it
_ENCODE = {
    "int": str, "str": str, "parts": list, "qpoly": QPoly.to_json, "xqpoly": XQPoly.to_json,
}


def whole_table_json(table):
    """The reference json rendering: one stdlib encode of the whole table."""
    encoders = [_ENCODE[kind] for _, kind in table.columns]
    payload = {
        "family": table.family,
        "n_max": table.n_max,
        "outer_var": table.outer_var,
        "columns": [list(c) for c in table.columns],
        "rows": [[enc(v) for enc, v in zip(encoders, row)] for row in table.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


class TestRowWiseJson:
    @pytest.mark.parametrize(
        "family, n_max",
        [(f, n) for f in TABLE_FAMILIES for n in range(7)] + [(f, 9) for f in ("A", "B", "Ac")],
    )
    def test_equals_whole_table_encoding(self, family, n_max):
        table = build_family(family, n_max)
        assert render(table, "json") == whole_table_json(table)

    @pytest.mark.parametrize(
        "rows",
        (
            (),
            ((1, 0, 0, 0, QPoly.zero()),),
            ((0, 0, 1, 0, QPoly.one()), (1, 0, 0, 0, QPoly.zero()), (1, 1, 0, 1, P(0, 2))),
        ),
        ids=("no-rows", "zero-poly", "zero-poly-between-rows"),
    )
    def test_edge_tables_equal_whole_table_encoding(self, rows):
        table = Table("A", 1, build_family("A", 1).columns, rows)
        text = render(table, "json")
        assert text == whole_table_json(table)
        assert json.loads(text)["rows"] == [[str(n), str(k), str(a), str(b), p.to_json()] for n, k, a, b, p in rows]

    @pytest.mark.parametrize(
        "columns, rows",
        (
            (
                (("n", "int"), ("kind", "str"), ("poly", "xqpoly")),
                ((2, "secant", XQPoly((QPoly.zero(), QPoly.one()))), (3, "tangent", XQPoly.zero())),
            ),
            ((("n", "int"), ("poly", "qpoly")), ((3, q_pochhammer(3)),)),
            ((("n", "int"), ("kind", "str")), ((0, 'a"b\\c é'),)),
            ((("n", "int"), ("c", "parts")), ((0, ()), (0, (0, 0)))),
            ((("n", "int"), ("value", "int")), ((-3, 10**30),)),
        ),
        ids=("xqpoly-zeros", "qpoly-negative", "str-escapes", "parts-empty-and-zeros", "int-negative-and-big"),
    )
    def test_cell_edge_cases_equal_whole_table_encoding(self, columns, rows):
        table = Table("edge", 3, columns, rows)
        assert render(table, "json") == whole_table_json(table)

    def test_peak_memory_is_a_small_multiple_of_the_output(self):
        # encoding a whole-table payload peaks near 9x the output; row by
        # row, the peak is the chunks and their join
        table = build_family("Ac", 10)
        tracemalloc.start()
        try:
            text = render(table, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)
