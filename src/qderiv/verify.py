"""Verification suite: every identity as an exact polynomial equality.

Each check returns a :class:`VerificationReport`; a failing check carries
the first discrepancy (smallest index in a fixed scan order) with the
expected and actual values.  Checks are pure functions of their bounds
and re-runnable in any order; ``run_suite`` executes the full registry
deterministically.

``run_checks`` runs in two lanes when it can: a forked child runs the
checks in ``_FORKED`` (the sweeps 3.1 and 3.bij) while the calling
process runs the rest, and the reports keep the serial order.  Otherwise
every check runs in the calling process; that serial path is the
reference.  A child that dies fails each of its checks, and is never a
hang or a traceback.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from collections import Counter
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from qderiv import permstats, special, tcomb
from qderiv.fixtures import DEFAULT_FIXTURES
from qderiv.ring import QPoly, XQPoly, gauss_binomial
from qderiv.series import (
    CLASSICAL_MODE,
    Q_MODE,
    RING_Q,
    RING_XQ,
    DividedSeries,
    Sec_q,
    Tan_q,
    classical_cos,
    classical_sec,
    classical_sin,
    classical_tan,
    one_series,
    q_secant2_number,
    q_secant_number,
    q_tan_sec_number,
    q_tangent_number,
    scaled,
    scaled_tan_power,
    sec_q,
    tan_product,
    tan_q,
    zero_series,
)
from qderiv.tables import (
    KIND_A,
    KIND_AC,
    KIND_B,
    PolyTable,
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
from qderiv.tcomb import (
    TPermutation,
    alpha,
    beta,
    cut_by_lambda,
    delta_star,
    delta_star_inv,
    enumerate_t_compositions,
    enumerate_t_permutations,
    fibonacci_poly,
    psi_on_t,
    star_delta,
    star_delta_inv,
    t_permutation_cuts,
)

_ZP = QPoly.zero()
_ONE = QPoly.one()


class Discrepancy(NamedTuple):
    index: tuple
    expected: str
    actual: str

    def to_json(self) -> dict:
        return {
            "index": list(self.index),
            "expected": self.expected,
            "actual": self.actual,
        }


class VerificationReport(NamedTuple):
    id: str
    params: dict
    status: str
    first_discrepancy: Optional[Discrepancy] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "status": self.status,
            "first_discrepancy": (
                None if self.first_discrepancy is None else self.first_discrepancy.to_json()
            ),
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


class Bounds(NamedTuple):
    """Default sweep bounds; the full suite runs in well under a minute."""

    series_order: int = 10
    series_n: int = 6
    table_n: int = 12
    rewrite_n: int = 10
    brute_n: int = 8
    sweep_n: int = 6
    perm_sweep_n: int = 7
    agg_n: int = 7
    sym_n: int = 7
    product_n: int = 8
    alt_inv_n: int = 9
    alt_imaj_n: int = 8
    reciprocity_n: int = 11
    carlitz_n: int = 5
    refine_n: int = 6
    diag_n: int = 8
    tq_n: int = 7
    springer_n: int = 8
    alpha_n: int = 10
    gf_order: int = 8
    fib_gf_order: int = 12
    rowsums_n: int = 10


class InvalidBoundsError(ValueError):
    """Bounds under which a check cannot run: a usage error, not a failure."""


class _Stop(Exception):
    """Raised at a check's first discrepancy; its collector catches it."""


class _Collector:
    """The scope of one check, ended by its first discrepancy.

    ``with _Collector(id, params) as col:`` runs the check body; the first
    failing ``eq`` or ``require`` records the discrepancy and leaves the
    block, so the exception never reaches ``_run_guarded``.  The check then
    returns ``col.report``.
    """

    __slots__ = ("id", "params", "first")

    def __init__(self, check_id: str, params: dict):
        self.id = check_id
        self.params = params
        self.first: Optional[Discrepancy] = None

    def __enter__(self) -> "_Collector":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is _Stop

    def _stop(self, index, expected: str, actual: str) -> None:
        self.first = Discrepancy(tuple(index), expected, actual)
        raise _Stop

    def eq(self, index, expected, actual) -> None:
        if expected != actual:
            self._stop(index, str(expected), str(actual))

    def require(self, index, condition, note="condition") -> None:
        if not condition:
            self._stop(index, note, "violated")

    @property
    def report(self) -> VerificationReport:
        status = "pass" if self.first is None else "fail"
        return VerificationReport(self.id, self.params, status, self.first)


def _fx(fixtures) -> Mapping:
    return DEFAULT_FIXTURES if fixtures is None else fixtures


def _table(kind: str, n_max: int) -> PolyTable:
    # looked up per call, so a rebound module attribute (an instrumented
    # a_table, say) is the one that runs
    return {KIND_A: a_table, KIND_B: b_table, KIND_AC: ac_table}[kind](n_max)


def _dq_n(series: DividedSeries, n: int) -> DividedSeries:
    for _ in range(n):
        series = series.d_q()
    return series


def _series_eq(col: _Collector, tag, lhs: DividedSeries, rhs: DividedSeries) -> None:
    order = min(lhs.order, rhs.order)
    for i in range(order + 1):
        col.eq(tuple(tag) + (i,), lhs.coeffs[i], rhs.coeffs[i])


def _compare_rows(col: _Collector, tag, expected: dict, actual: dict) -> None:
    for key in sorted(set(expected) | set(actual)):
        col.eq(tag + (key,), expected.get(key, _ZP), actual.get(key, _ZP))


def _check_series(check_id: str, order: int, lhs, rhs) -> VerificationReport:
    with _Collector(check_id, {"order": order}) as col:
        _series_eq(col, (check_id,), lhs, rhs)
    return col.report


# -- fixture checks -------------------------------------------------------


def check_table1(fixtures=None, n_max: int = 6) -> VerificationReport:
    fx = _fx(fixtures)
    tri_a, tri_b = special.small_triangles(n_max)
    with _Collector("table1", {"n_max": n_max}) as col:
        for name, fixture, tri in (("a", fx["table1.a"], tri_a), ("b", fx["table1.b"], tri_b)):
            keys = set(fixture) | {(n, m) for n, row in enumerate(tri) for m in row}
            for n, m in sorted(keys):
                actual = tri[n].get(m, 0) if n <= n_max else 0
                col.eq((name, n, m), fixture.get((n, m), 0), actual)
    return col.report


def check_table2(fixtures=None, n_max: int = 4) -> VerificationReport:
    fx = _fx(fixtures)
    with _Collector("table2", {"n_max": n_max}) as col:
        for name, fixture, table in (
            ("A", fx["table2.a"], a_table(n_max)),
            ("B", fx["table2.b"], b_table(n_max)),
        ):
            for key in sorted(set(fixture) | {key for key, _ in table.items()}):
                col.eq((name,) + key, QPoly(fixture.get(key, ())), table.get(key))
    return col.report


def check_table3(fixtures=None, n_max: int = 4) -> VerificationReport:
    fixture = _fx(fixtures)["table3"]
    table = ac_table(n_max)
    keys = set(fixture) | {key for key, _ in table.items()}
    with _Collector("table3", {"n_max": n_max}) as col:
        for key in sorted(keys, key=lambda k: (k[0], len(k[1]), k[1])):
            col.eq(("Ac", key[0], key[1]), QPoly(fixture.get(key, ())), table.get(key))
    return col.report


def check_table4(fixtures=None, n_max: int = 4) -> VerificationReport:
    fx = _fx(fixtures)
    with _Collector("table4", {"n_max": n_max}) as col:
        for name, fixture, table in (
            ("A", fx["table4.a"], a_table(n_max)),
            ("B", fx["table4.b"], b_table(n_max)),
        ):
            computed = {}
            for n in range(n_max + 1):
                for m, poly in table.aggregate_by_m(n).items():
                    computed[(n, m)] = poly
            for n, m in sorted(set(fixture) | set(computed)):
                expected = QPoly(fixture.get((n, m), ()))
                col.eq((name, n, m), expected, computed.get((n, m), _ZP))
    return col.report


def check_fig101(fixtures=None, n_max: int = 6) -> VerificationReport:
    fx = _fx(fixtures)
    counts = (("alpha", alpha), ("beta", beta))
    with _Collector("fig10.1", {"n_max": n_max}) as col:
        for name, fn in counts:
            fixture = fx["fig10.1." + name]
            for n in range(n_max + 1):
                for m in range(n_max + 2):
                    col.eq((name, n, m), fixture.get((n, m), 0), fn(n, m))
        for name, fn in counts:
            for n, expected in enumerate(fx["fig10.1.%s.rowsums" % name]):
                col.eq((name + ".rowsum", n), expected, sum(fn(n, m) for m in range(n + 2)))
    return col.report


def check_sec7_values(fixtures=None) -> VerificationReport:
    fx = _fx(fixtures)
    with _Collector("sec7.values", {}) as col:
        for tag, key, number in (
            ("tan", "qtan", q_tangent_number),
            ("sec", "qsec", q_secant_number),
            ("sec2", "qsec2", q_secant2_number),
        ):
            for n, coeffs in sorted(fx[key].items()):
                col.eq((tag, n), QPoly(coeffs), number(n))
        col.eq(("sec2", 0), _ONE, q_secant2_number(0))
    return col.report


def _check_classical(check_id: str, tag: str, values: Mapping, series) -> VerificationReport:
    top = max(values)
    coeffs = series(top)
    with _Collector(check_id, {"order": top}) as col:
        for n in range(top + 1):
            col.eq((tag, n), values.get(n, 0), coeffs.coefficient(n))
    return col.report


def check_classical_tan(fixtures=None) -> VerificationReport:
    return _check_classical("1.1", "T", _fx(fixtures)["classical.t"], classical_tan)


def check_classical_sec(fixtures=None) -> VerificationReport:
    return _check_classical("1.2", "E", _fx(fixtures)["classical.e"], classical_sec)


# -- counting interpretation ----------------------------------------------


def check_1_3(n_max: int) -> VerificationReport:
    """Counts of t-permutations by part number match the integer triangle."""
    tri_a, _ = special.small_triangles(n_max)
    with _Collector("1.3", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            counts: Dict[int, int] = {}
            for (k, a, b), poly in oracle_all(n)[0].items():
                counts[a + b] = counts.get(a + b, 0) + poly.eval_at_one()
            for m in range(n + 2):
                col.eq((n, m), tri_a[n].get(m, 0), counts.get(m, 0))
    return col.report


# -- generating functions ---------------------------------------------------


def check_hoffman(check_id: str, order: int) -> VerificationReport:
    """1.6 and 1.7: the tangent and secant derivative polynomials in one
    variable x have the generating functions
    (x + tan u)/(1 - x tan u) = (sin u + x cos u)/(cos u - x sin u)
    and 1/(cos u - x sin u)."""
    polys = special.hoffman_polys(order)[{"1.6": 0, "1.7": 1}[check_id]]
    lhs = DividedSeries(CLASSICAL_MODE, RING_Q, polys)
    x = QPoly.monomial(1)
    cosc = classical_cos(order).promote(RING_Q)
    sinc = classical_sin(order).promote(RING_Q)
    rhs = cosc.sub(sinc.scale(x)).invert()
    if check_id == "1.6":
        rhs = sinc.add(cosc.scale(x)).mul(rhs)
    return _check_series(check_id, order, lhs, rhs)


# -- the six series/table identities ---------------------------------------


def _term_tan(n: int, key, order: int) -> DividedSeries:
    k, a, b = key
    return scaled_tan_power(k + 1, b, order).mul(scaled_tan_power(k, a, order))


def _term_sec(n: int, key, order: int) -> DividedSeries:
    k, a, b = key
    return (
        scaled_tan_power(k + 1, b, order)
        .mul(scaled(sec_q, k + 1, order))
        .mul(scaled_tan_power(k, a, order))
    )


def _term_Sec(n: int, key, order: int) -> DividedSeries:
    k0, a0, b0 = key
    k = n - 1 - k0
    return (
        scaled_tan_power(k + 1, a0, order)
        .mul(scaled(Sec_q, k, order))
        .mul(scaled_tan_power(k, b0, order))
    )


def _term_comp_tan(n: int, parts, order: int) -> DividedSeries:
    return tan_product(parts, order)


def _term_comp_sec(n: int, parts, order: int) -> DividedSeries:
    return tan_product(parts[:-1], order).mul(scaled(sec_q, n, order))


def _term_comp_Sec(n: int, parts, order: int) -> DividedSeries:
    return tan_product(tuple(reversed(parts[:-1])), order).mul(Sec_q(order))


class _Expansion(NamedTuple):
    lhs: Callable  # series whose n-th q-derivative is expanded
    kind: str  # the table whose row n supplies the coefficients
    term: Callable  # (n, row key, order) -> the series that key's coefficient scales
    s_only: bool = False  # only s-compositions (trailing zero part) contribute
    reversal: bool = False  # coefficients enter as q^(n(n-1)/2) p(1/q)


_EXPANSIONS: Dict[str, _Expansion] = {
    "1.9": _Expansion(tan_q, KIND_A, _term_tan),
    "1.11": _Expansion(sec_q, KIND_B, _term_sec),
    "1.12": _Expansion(Sec_q, KIND_B, _term_Sec, reversal=True),
    "1.14": _Expansion(tan_q, KIND_AC, _term_comp_tan),
    "1.15": _Expansion(sec_q, KIND_AC, _term_comp_sec, s_only=True),
    "1.16": _Expansion(Sec_q, KIND_AC, _term_comp_Sec, s_only=True, reversal=True),
}


def check_expansion(check_id: str, n: int, order: int) -> VerificationReport:
    """Identities 1.9-1.16: the n-th q-derivative of a q-trigonometric
    series equals the sum over row n of a table of coefficient times term."""
    if order < n:
        raise InvalidBoundsError("order must be at least n")
    spec = _EXPANSIONS[check_id]
    lhs = _dq_n(spec.lhs(order), n)
    half = n * (n - 1) // 2
    with _Collector(check_id, {"n": n, "order": order}) as col:
        rhs = zero_series(order)
        for key, poly in _table(spec.kind, n).row(n).items():
            if spec.s_only and key[-1] != 0:
                continue
            if spec.reversal:
                if poly.degree > half:
                    col.eq((check_id, n, "reversal", key), half, poly.degree)
                poly = poly.reverse(half)
            rhs = rhs.add(spec.term(n, key, order).scale(poly))
        _series_eq(col, (check_id, n), lhs, rhs.truncate(order - n))
    return col.report


def _xq_row(table: PolyTable, n: int) -> XQPoly:
    agg = table.aggregate_by_m(n)
    top = max(agg, default=0)
    return XQPoly(agg.get(m, _ZP) for m in range(top + 1))


def check_eq_1_17(n_max: int) -> VerificationReport:
    with _Collector("1.17", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            agg = a_table(n).aggregate_by_m(n)
            _compare_rows(col, (n,), agg, ac_table(n).aggregate_by_m(n))
        # worked instance: the printed three-part total for n = 3, m = 2
        total = a_table(3).aggregate_by_m(3).get(2, _ZP)
        col.eq(("worked", 3, 2), QPoly((1, 3, 3, 1)), total)
    return col.report


def check_eq_1_18(n_max: int) -> VerificationReport:
    with _Collector("1.18", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            agg = b_table(n).aggregate_by_m(n)
            ctab = ac_table(n)
            cagg: Dict[int, QPoly] = {}
            for parts in enumerate_t_compositions(n):
                if parts[-1] == 0:
                    m = len(parts) - 2
                    cagg[m] = cagg.get(m, _ZP) + ctab.get((n, parts))
            _compare_rows(col, (n,), agg, cagg)
    return col.report


def check_bivariate(check_id: str, order: int) -> VerificationReport:
    """1.19 (A) and 1.20 (B): the rows summed by m = a+b, as coefficients
    of x^m, form the bivariate generating function."""
    kind = {"1.19": KIND_A, "1.20": KIND_B}[check_id]
    table = _table(kind, order)
    lhs = DividedSeries(Q_MODE, RING_XQ, tuple(_xq_row(table, n) for n in range(order + 1)))
    x = XQPoly.monomial(1)
    tan_x = tan_q(order).promote(RING_XQ)
    sec_x = sec_q(order).promote(RING_XQ)
    denom = one_series(order, Q_MODE, RING_XQ).sub(tan_x.scale(x))
    rhs = sec_x.mul(denom.invert())
    if kind == KIND_A:
        rhs = tan_x.add(rhs.mul(Sec_q(order).promote(RING_XQ).scale(x)))
    return _check_series(check_id, order, lhs, rhs)


# -- q-trigonometric derivative identities ----------------------------------


def check_eq_2_3(order: int) -> VerificationReport:
    lhs = tan_q(order).d_q()
    rhs = one_series(order).add(tan_q(order).mul(tan_q(order).scale_arg(1)))
    return _check_series("2.3", order, lhs, rhs.truncate(order - 1))


def check_eq_2_4(order: int) -> VerificationReport:
    lhs = sec_q(order).d_q()
    rhs = sec_q(order).scale_arg(1).mul(tan_q(order))
    return _check_series("2.4", order, lhs, rhs.truncate(order - 1))


def check_eq_2_5(order: int) -> VerificationReport:
    lhs = Sec_q(order).d_q()
    rhs = Sec_q(order).mul(tan_q(order).scale_arg(1))
    return _check_series("2.5", order, lhs, rhs.truncate(order - 1))


def check_tan_unique(order: int) -> VerificationReport:
    return _check_series("2.tan", order, tan_q(order), Tan_q(order))


# -- bijection sweeps --------------------------------------------------------


_W_EXAMPLE = ((4, 5), (11, 1, 3), (10, 7, 9), (6,), (8, 2))
_DELTA_STAR_EXPECT = {
    1: (((5, 6), (1,), (12, 2, 4), (11, 8, 10), (7,), (9, 3)), 6, 44, 1, 29),
    2: (((5, 6), (12, 2, 4), (1,), (11, 8, 10), (7,), (9, 3)), 7, 45, 2, 32),
    3: (((5, 6), (12, 2, 4), (11, 8, 10), (1,), (7,), (9, 3)), 7, 45, 3, 35),
    4: (((5, 6), (12, 2, 4), (11, 8, 10), (7,), (1,), (9, 3)), 7, 45, 4, 36),
}
_STAR_DELTA_EXPECT = {
    1: (((5, 6, 1, 12, 2, 4), (11, 8, 10), (7,), (9, 3)), 6, 44, 0, 29),
    2: (((5, 6), (12, 2, 4, 1, 11, 8, 10), (7,), (9, 3)), 7, 45, 1, 32),
    3: (((5, 6), (12, 2, 4), (11, 8, 10, 1, 7), (9, 3)), 7, 45, 2, 35),
    4: (((5, 6), (12, 2, 4), (11, 8, 10), (7, 1, 9, 3)), 7, 45, 3, 36),
}


def _check_31_images(col: _Collector, tag, w: TPermutation, st, image_stats: dict) -> None:
    """The statistics of every delta* and *delta image of ``w``, whose own
    statistics are ``st``.  ``image_stats`` maps words to their statistics:
    the two images of one (w, i) share a word, and so do the images of cuts
    of one permutation at the same prefix."""
    min_comp = w.min_component()
    shifted = frozenset(j + 1 for j in st.iligne)
    prefix = 0
    for i in range(1, w.mu + 1):
        prefix += w.parts[i - 1]
        # the new 1 is an inverse descent exactly when it lands after 2
        new = 0 if min_comp is not None and i <= min_comp else 1
        exp_ilg = shifted | {1} if new else shifted
        exp_ides = st.ides + new
        exp_imaj = new + st.ides + st.imaj
        exp_inv = st.inv + prefix
        for name, image, exp_min in (
            ("delta*", delta_star(i, w), i),
            ("*delta", star_delta(i, w), i - 1),
        ):
            ist = image_stats.get(image.word)
            if ist is None:
                ist = image_stats[image.word] = permstats.statistics(image.word)
            expected = (exp_ilg, exp_ides, exp_imaj, exp_inv, exp_min)
            actual = (ist.iligne, ist.ides, ist.imaj, ist.inv, image.min_component())
            if expected != actual:
                # report indices name components, built only on failure
                idx = tag + (w.components, i, name)
                for stat, exp, act in zip(("iligne", "ides", "imaj", "inv", "min"), expected, actual):
                    col.eq(idx + (stat,), exp, act)


def check_3_1(n_max: int) -> VerificationReport:
    w0 = TPermutation(_W_EXAMPLE)
    with _Collector("3.1", {"n_max": n_max}) as col:
        st = permstats.statistics(w0.word)
        col.eq(("example", "stats"), (6, 38, 1, 27), (st.ides, st.imaj, w0.min_component(), st.inv))
        for name, bijection, expect in (
            ("delta*", delta_star, _DELTA_STAR_EXPECT),
            ("*delta", star_delta, _STAR_DELTA_EXPECT),
        ):
            for i, expected in expect.items():
                image = bijection(i, w0)
                ist = permstats.statistics(image.word)
                col.eq(
                    ("example", name, i),
                    expected,
                    (image.components, ist.ides, ist.imaj, image.min_component(), ist.inv),
                )
        for n in range(1, n_max + 1):
            for sigma, cuts in t_permutation_cuts(n, bound=n):
                st = permstats.statistics(sigma)
                image_stats: dict = {}
                for w in cuts:
                    _check_31_images(col, ("sweep", n), w, st, image_stats)
    return col.report


def check_3_bijections(n_max: int) -> VerificationReport:
    """delta* and *delta split T(n+1) into first- and second-kind images.

    The maps are checked on every pair (w, i) of T(n) x 1..mu(w), and no
    image is kept.  Each round trip gives back (i, w), so both maps are
    injective on pairs, which the walk lists once each; the kind checks keep
    the two image sets apart; the validating constructor puts every image in
    T(n+1).  So the images are 2 * pairs distinct t-permutations of order
    n + 1, and they are all of T(n+1) exactly when |T(n+1)|, counted by
    enumeration, equals 2 * pairs.  Each order is counted by its own domain
    walk; order n_max + 1 is counted from the valid cuts of each
    permutation, without building its t-permutations.
    """
    with _Collector("3.bij", {"n_max": n_max}) as col:
        previous = 0  # the pairs of order n - 1
        for n in range(n_max + 1):
            count = pairs = 0
            for w in enumerate_t_permutations(n, bound=n):
                count += 1
                for i in range(1, w.mu + 1):
                    for name, kind, first, insert, invert in (
                        ("delta*", "first-kind", True, delta_star, delta_star_inv),
                        ("*delta", "second-kind", False, star_delta, star_delta_inv),
                    ):
                        # report indices name components, built only on failure
                        image = insert(i, w)
                        if image.is_first_kind() != first:
                            col.require((n, kind, image.components), False)
                        back_i, back = invert(image)
                        if (back_i, back) != (i, w):
                            col.eq((n, name + "-roundtrip", i), (i, w.components), (back_i, back.components))
                    pairs += 1
            if n:
                col.eq((n, "partition"), count, 2 * previous)
            previous = pairs
        n = n_max + 1
        count = sum(len(tcomb._valid_cuts(n, desc)) for _, desc, _, _, _ in permstats.walk(n))
        col.eq((n, "partition"), count, 2 * previous)
    return col.report


# sigma's statistics, read off its walk row (sigma, descent word, imaj)
_ROW_STATS = {
    "maj": lambda sigma, desc, imaj: sum(itertools.compress(range(1, len(sigma)), desc)),
    "ligne": lambda sigma, desc, imaj: frozenset(itertools.compress(range(1, len(sigma)), desc)),
    "imaj": lambda sigma, desc, imaj: imaj,
    "iligne": lambda sigma, desc, imaj: permstats.iligne(sigma),
}


def _check_word_bijection(check_id, n_max, example, bijection, pairs) -> VerificationReport:
    """A bijection of S_n carrying each (tag, stat, image stat) of ``pairs``.

    sigma's statistic comes from ``_ROW_STATS``; the image's is the
    ``permstats`` definition of that name, so only the compared statistics
    are computed, and none of the image's is taken from the walk.
    """
    source, expected = example
    with _Collector(check_id, {"n_max": n_max}) as col:
        col.eq(("example",), expected, bijection(source))
        compared = [
            (tag, _ROW_STATS[stat], getattr(permstats, image_stat)) for tag, stat, image_stat in pairs
        ]
        for n in range(n_max + 1):
            images = set()
            for sigma, desc, _, _, imaj in permstats.walk(n):
                image = bijection(sigma)
                images.add(image)
                for tag, stat, image_stat in compared:
                    value, image_value = stat(sigma, desc, imaj), image_stat(image)
                    if value != image_value:
                        col.eq((n, sigma, tag), value, image_value)
            col.eq((n, "bijective"), math.factorial(n), len(images))
    return col.report


def check_phi(n_max: int) -> VerificationReport:
    return _check_word_bijection(
        "8.phi",
        n_max,
        ((7, 4, 9, 2, 6, 1, 5, 8, 3), (4, 7, 2, 6, 1, 9, 5, 8, 3)),
        permstats.foata_phi,
        (("maj=inv", "maj", "inv"), ("iligne", "iligne", "iligne")),
    )


def check_psi(n_max: int) -> VerificationReport:
    return _check_word_bijection(
        "8.1",
        n_max,
        ((6, 4, 9, 2, 7, 5, 1, 8, 3), (5, 3, 9, 1, 7, 4, 2, 8, 6)),
        permstats.psi,
        (("ligne", "ligne", "ligne"), ("inv=imaj", "imaj", "inv")),
    )


def check_psi_on_t(n_max: int) -> VerificationReport:
    """psi, cut at the same lengths, is a lambda-preserving bijection of T(n)
    carrying imaj to inv.

    Each image is cut at the lengths of its source, so it keeps lambda.
    Every cut of sigma is valid on sigma's descent word, so an image that
    is a permutation with that descent word lies in T(n) under all of them;
    only an image that is not is put through the validating constructor,
    cut by cut.  Cuts of one permutation at distinct lengths differ, and so
    do cuts of permutations with distinct psi images; so the map is
    injective, hence onto the finite T(n), exactly when psi takes as many
    distinct words as permutations were walked.
    """
    w = TPermutation(((), (6,), (4,), (9, 2, 7), (5, 1, 8, 3)))
    with _Collector("8.2", {"n_max": n_max}) as col:
        col.eq(
            ("example",),
            ((), (5,), (3,), (9, 1, 7), (4, 2, 8, 6)),
            psi_on_t(w).components,
        )
        for n in range(n_max + 1):
            letters = list(range(1, n + 1))
            image_words = set()
            count = 0
            for sigma, desc, _, _, imaj in permstats.walk(n):
                image_word = permstats.psi(sigma)
                image_words.add(image_word)
                count += 1
                image_inv = permstats.inv(image_word)
                if (
                    imaj == image_inv
                    and sorted(image_word) == letters
                    and permstats.descent_word(image_word) == desc
                ):
                    continue
                for parts in tcomb._valid_cuts(n, desc):
                    # the validating constructor: a psi that breaks the
                    # descent word fails here
                    cut_by_lambda(image_word, parts)
                    if imaj != image_inv:
                        # report indices name components, built only on failure
                        comps = cut_by_lambda(sigma, parts).components
                        col.eq((n, comps, "inv=imaj"), imaj, image_inv)
            col.eq((n, "bijective"), count, len(image_words))
    return col.report


# -- q-tangent/secant layer ---------------------------------------------------


@lru_cache(maxsize=None)
def _family_by_recurrence(n_max: int):
    """A-family and second-secant family from the convolution recurrences."""
    a: Dict[int, QPoly] = {0: _ONE, 1: _ONE}
    a2: Dict[int, QPoly] = {0: _ONE}
    for n in range(2, n_max + 1):
        if n % 2:
            acc = _ZP
            for k in range(0, (n - 1) // 2):
                term = gauss_binomial(n - 1, 2 * k + 1) * a[2 * k + 1] * a[n - 2 * k - 2]
                acc = acc + term.shift(2 * k + 1)
            a[n] = acc
        else:
            acc = _ZP
            acc2 = _ZP
            for k in range(0, n // 2):
                term = gauss_binomial(n - 1, 2 * k) * a[2 * k] * a[n - 2 * k - 1]
                acc = acc + term.shift(2 * k)
                term2 = gauss_binomial(n - 1, 2 * k) * a2[2 * k] * a[n - 2 * k - 1]
                acc2 = acc2 + term2.shift(n - 2 * k - 1)
            a[n] = acc
            a2[n] = acc2
    return a, a2


# id -> (first n, closed form, index into _family_by_recurrence); n steps by 2
_CONVOLUTIONS = {
    "7.4": (1, q_tangent_number, 0),
    "7.5": (0, q_secant_number, 0),
    "7.6": (0, q_secant2_number, 1),
}


def check_convolution(check_id: str, n_max: int) -> VerificationReport:
    """7.4-7.6: the convolution recurrences give the q-tangent/secant numbers."""
    start, closed, which = _CONVOLUTIONS[check_id]
    family = _family_by_recurrence(n_max)[which]
    with _Collector(check_id, {"n_max": n_max}) as col:
        for n in range(start, n_max + 1, 2):
            col.eq((n,), closed(n), family[n])
    return col.report


def check_7_combined(n_max: int) -> VerificationReport:
    # The single convolution formula covering both parities; its sum is
    # empty at n = 1, so the sweep starts at 2.
    with _Collector("7.comb", {"n_max": n_max}) as col:
        for n in range(2, n_max + 1):
            acc = _ZP
            for k in range(0, n // 2):
                term = (
                    gauss_binomial(n - 1, 2 * k + 1)
                    * q_tan_sec_number(2 * k + 1)
                    * q_tan_sec_number(n - 2 * k - 2)
                )
                acc = acc + term.shift(n - 2 * k - 2)
            col.eq((n,), q_tan_sec_number(n), acc)
    return col.report


def _stat_poly(values: Iterable[int]) -> QPoly:
    """Generating polynomial of a statistic taking ``values``."""
    counts = Counter(values)
    return QPoly(counts[e] for e in range(max(counts) + 1))


def check_alternating(check_id: str, n_max: int) -> VerificationReport:
    """7.1 (by inv) and 7.imaj (by imaj): alternating permutations are
    counted by the q-tangent and q-secant numbers."""
    stat = {"7.1": 2, "7.imaj": 4}[check_id]  # its place in a walk row
    with _Collector(check_id, {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            rising = _stat_poly(row[stat] for row in permstats.walk(n, True))
            falling = _stat_poly(row[stat] for row in permstats.walk(n, False))
            if n % 2:
                col.eq((n, "RA"), q_tangent_number(n), rising)
                col.eq((n, "FA"), q_tangent_number(n), falling)
            else:
                col.eq((n, "RA"), q_secant_number(n), rising)
                col.eq((n, "FA"), q_secant2_number(n), falling)
    return col.report


def check_rho_gamma(n_max: int) -> VerificationReport:
    with _Collector("7.rhogamma", {"n_max": n_max}) as col:
        for n in range(1, n_max + 1, 2):
            images = set()
            for sigma, _, inv, _, _ in permstats.walk(n, True):
                image = permstats.mirror_rho(permstats.complement_gamma(sigma))
                falling = permstats.descent_word(image) == permstats.zigzag(n, False)
                col.require((n, sigma, "falling"), falling)
                col.eq((n, sigma, "inv"), inv, permstats.inv(image))
                images.add(image)
            col.eq((n, "onto"), sum(1 for _ in permstats.walk(n, False)), len(images))
    return col.report


# id -> (first n, expected, the number reversed); n steps by 2
_REVERSALS = {
    "7.11": (1, q_tangent_number, q_tangent_number),
    "7.12": (0, q_secant2_number, q_secant_number),
}


def check_reversal(check_id: str, n_max: int) -> VerificationReport:
    """7.11: the q-tangent numbers are palindromic; 7.12: the reversed
    q-secant number is the second q-secant number."""
    start, expected, reversed_number = _REVERSALS[check_id]
    with _Collector(check_id, {"n_max": n_max}) as col:
        for n in range(start, n_max + 1, 2):
            col.eq((n,), expected(n), reversed_number(n).reverse(n * (n - 1) // 2))
    return col.report


# -- triple-method equivalence -----------------------------------------------


def check_triple(kind: str, rewrite_n: int, brute_n: int) -> VerificationReport:
    """The recurrence rows equal the rewrite-engine rows and the oracle rows."""
    # (report tag, rewrite engine, compare s-compositions only) per kind;
    # looked up per call like _table
    engines = {
        KIND_A: (("rewrite", rewrite_tan, False),),
        KIND_B: (("rewrite", rewrite_sec, False),),
        KIND_AC: (("rewrite", rewrite_comp_tan, False), ("rewrite-s", rewrite_comp_sec, True)),
    }[kind]
    table = _table(kind, max(rewrite_n, brute_n))
    oracle_index = (KIND_A, KIND_B, KIND_AC).index(kind)
    with _Collector("triple." + kind, {"rewrite_n": rewrite_n, "brute_n": brute_n}) as col:
        for n in range(rewrite_n + 1):
            row = table.row(n)
            for tag, engine, s_only in engines:
                expected = {c: p for c, p in row.items() if c[-1] == 0} if s_only else row
                _compare_rows(col, (tag, n), expected, engine(n))
        for n in range(brute_n + 1):
            _compare_rows(col, ("oracle", n), table.row(n), oracle_all(n)[oracle_index])
    return col.report


def check_symmetry(n_max: int) -> VerificationReport:
    table = a_table(n_max)
    with _Collector("4.sym", {"n_max": n_max}) as col:
        for n in range(1, n_max + 1):
            half = n * (n - 1) // 2
            for (k, a, b), poly in sorted(table.row(n).items()):
                partner = table.get((n, n - 1 - k, b, a))
                col.eq((n, k, a, b), poly, partner.reverse(half))
    return col.report


def check_table_bounds(n_max: int) -> VerificationReport:
    ctab = ac_table(n_max)
    with _Collector("tables.bounds", {"n_max": n_max}) as col:
        # A has a+b <= n+1 and seed k = 0; B has a+b <= n and seed k = -1
        for name, table, extra, seed_k in (("A", a_table(n_max), 1, 0), ("B", b_table(n_max), 0, -1)):
            for (n, k, a, b), poly in table.items():
                ok = (
                    a >= 0
                    and b >= 0
                    and a + b <= n + extra
                    and (a + b) % 2 == (n + extra) % 2
                    and poly.degree <= n * (n - 1) // 2
                    and (k == seed_k if n == 0 else 0 <= k <= n - 1)
                )
                col.require((name, n, k, a, b), ok)
        for n in range(n_max + 1):
            expected = set(enumerate_t_compositions(n))
            col.eq(("Ac.keys", n), expected, set(ctab.row(n)))
            half = n * (n - 1) // 2
            for parts, poly in ctab.row(n).items():
                col.require(("Ac", n, parts), poly.degree <= half)
    return col.report


def check_9_1(n_max: int) -> VerificationReport:
    table = ac_table(n_max)
    with _Collector("9.1", {"n_max": n_max}) as col:
        for n in range(1, n_max + 1):
            for parts in enumerate_t_compositions(n):
                expected = table.get((n, parts))
                col.eq((n, parts), expected, product_formula(n, parts))
    return col.report


# -- specializations -----------------------------------------------------------


def check_q1_bridge(n_max: int) -> VerificationReport:
    """Aggregated polynomial rows at q = 1 equal the integer triangles."""
    tri_a, tri_b = special.small_triangles(n_max)
    with _Collector("q1.bridge", {"n_max": n_max}) as col:
        for name, table, tri in (("a", a_table(n_max), tri_a), ("b", b_table(n_max), tri_b)):
            for n in range(n_max + 1):
                agg = table.aggregate_by_m(n)
                for m in range(n + 2):
                    col.eq((name, n, m), tri[n].get(m, 0), agg.get(m, _ZP).eval_at_one())
    return col.report


def check_carlitz(fixtures=None, n_max: int = 5) -> VerificationReport:
    fx = _fx(fixtures)
    table = special.carlitz_table(n_max)
    fixture = fx["carlitz"]
    keys = {key for key in fixture if key[0] <= n_max}
    keys |= {(n, j) for n, row in enumerate(table) for j in row}
    with _Collector("10.2", {"n_max": n_max}) as col:
        for n, j in sorted(keys):
            col.eq(("carlitz", n, j), QPoly(fixture.get((n, j), ())), table[n].get(j, _ZP))
        refined_fixture = fx["carlitz.refined"]
        refined = special.carlitz_refined_table(max(k[0] for k in refined_fixture))
        for n, k, a in sorted(refined_fixture):
            col.eq(("refined", n, k, a), QPoly(refined_fixture[(n, k, a)]), refined[n].get((k, a), _ZP))
    return col.report


def check_10_5(n_max: int) -> VerificationReport:
    carlitz = special.carlitz_table(n_max)
    refined_rec = special.carlitz_refined_table(n_max)
    with _Collector("10.5", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            refinement = special.carlitz_refinement(n)
            rec_row = refined_rec[n]
            for k, a in sorted(set(rec_row) | set(refinement)):
                col.eq(
                    ("readoff-vs-recurrence", n, (n, k, a)),
                    rec_row.get((k, a), _ZP),
                    refinement.get((k, a), _ZP),
                )
            sums: Dict[int, QPoly] = {}
            for (j, a), poly in refinement.items():
                sums[j] = sums.get(j, _ZP) + poly
            _compare_rows(col, (n,), carlitz[n], sums)
    return col.report


def check_10_7(n_max: int) -> VerificationReport:
    with _Collector("10.7", {"n_max": n_max}) as col:
        for n in range(1, n_max + 1):
            sums: Dict[Tuple[int, int], QPoly] = {}
            for sigma, _, _, ides, imaj in permstats.walk(n):
                key = (ides, sigma.index(1) + 1)
                sums[key] = sums.get(key, _ZP) + QPoly.monomial(imaj)
            _compare_rows(col, (n,), sums, special.carlitz_refinement(n))
    return col.report


def check_10_8(n_max: int, perm_n: int) -> VerificationReport:
    with _Collector("10.8", {"n_max": n_max}) as col:
        for n in range(1, n_max + 1):
            closed = special.diagonal_closed_forms(n).super_a
            col.eq((n, "A"), closed, a_table(n).aggregate_by_m(n).get(n + 1, _ZP))
            col.eq((n, "B"), closed, b_table(n).aggregate_by_m(n).get(n, _ZP))
        for n in range(1, perm_n + 1):
            inv = _stat_poly(row[2] for row in permstats.walk(n))
            col.eq((n, "inv"), special.diagonal_closed_forms(n).super_a, inv)
    return col.report


def check_subdiagonal(check_id: str, n_max: int) -> VerificationReport:
    """10.3 (A, m = n-1) and 10.4 (B, m = n-2): closed sub-diagonal products."""
    kind, drop = {"10.3": (KIND_A, 1), "10.4": (KIND_B, 2)}[check_id]
    with _Collector(check_id, {"n_max": n_max}) as col:
        for n in range(3, n_max + 1):
            forms = special.diagonal_closed_forms(n)
            closed = forms.sub_a if kind == KIND_A else forms.sub_b
            col.eq((n,), closed, _table(kind, n).aggregate_by_m(n).get(n - drop, _ZP))
    return col.report


def _tq_combinatorial(n: int) -> XQPoly:
    """Rising alternating permutations of 1..n, each as x^(1+ides) q^imaj."""
    counts = Counter((1 + ides, imaj) for _, _, _, ides, imaj in permstats.walk(n, True))
    width = n * (n - 1) // 2 + 1
    return XQPoly(QPoly(counts[j, e] for e in range(width)) for j in range(n + 2))


def check_tq(n_max: int) -> VerificationReport:
    with _Collector("10.tq", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            actual = special.tq_tangent(n) if n % 2 else special.tq_secant(n)
            col.eq((n,), _tq_combinatorial(n), actual)
    return col.report


def check_springer(fixtures=None, n_max: int = 8) -> VerificationReport:
    fx = _fx(fixtures)
    with _Collector("springer", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            v1 = special.springer_poly_from_tables(n)
            v2 = special.springer_poly_from_series(sec_q(n))
            col.eq((n, "table=series"), v1, v2)
        for n, value in enumerate(fx["springer"]):
            col.eq((n, "at-1"), value, special.springer_poly_from_tables(n).eval_at_one())
            col.eq(
                (n, "sec-variant-at-1"),
                value,
                special.springer_poly_from_series(Sec_q(n)).eval_at_one(),
            )
    return col.report


def check_alpha_counts(n_max: int) -> VerificationReport:
    with _Collector("10.6.alpha", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            by_mu = Counter(len(p) - 1 for p in enumerate_t_compositions(n))
            s_by_mu = Counter(len(p) - 1 for p in enumerate_t_compositions(n) if p[-1] == 0)
            for m in range(n + 3):
                col.eq((n, m, "alpha"), by_mu[m], alpha(n, m))
                col.eq((n, m, "beta"), s_by_mu[m + 1], beta(n, m))
            col.eq((n, "poly"), QPoly([alpha(n, m) for m in range(n + 2)]), fibonacci_poly(n))
    return col.report


def check_fib_gf(order: int) -> VerificationReport:
    # Cross-multiplied form of the rational generating function: the
    # series S(u) of part-count polynomials satisfies
    # S * (1 - u*(x + u)) = x + u exactly, coefficient by coefficient.
    x = QPoly.monomial(1)
    s = [fibonacci_poly(k) for k in range(order + 1)]
    with _Collector("10.6.gf", {"order": order}) as col:
        col.eq((0,), x, s[0])
        if order >= 1:
            col.eq((1,), _ONE, s[1] - x * s[0])
        for k in range(2, order + 1):
            col.eq((k,), _ZP, s[k] - x * s[k - 1] - s[k - 2])
    return col.report


def check_rowsums(n_max: int) -> VerificationReport:
    tri_a, tri_b = special.small_triangles(n_max)
    tan = classical_tan(n_max)
    sec = classical_sec(n_max)
    springer = special.classical_springer_numbers(n_max)
    with _Collector("rowsums", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            classical = tan.coefficient(n) if n % 2 else sec.coefficient(n)
            col.eq((n, "a"), (2 ** n) * classical, sum(tri_a[n].values()))
            col.eq((n, "b"), springer[n], sum(tri_b[n].values()))
    return col.report


# -- registry -----------------------------------------------------------------


class CheckSpec(NamedTuple):
    id: str
    run: Callable
    n_field: Optional[str] = None
    order_field: Optional[str] = None


def _series_sweep(check_id: str) -> Callable:
    def run(bounds: Bounds, fixtures) -> List[VerificationReport]:
        return [
            check_expansion(check_id, n, bounds.series_order) for n in range(bounds.series_n + 1)
        ]

    return run


CHECKS: Tuple[CheckSpec, ...] = (
    CheckSpec("table1", lambda b, f: [check_table1(f)]),
    CheckSpec("table2", lambda b, f: [check_table2(f)]),
    CheckSpec("table3", lambda b, f: [check_table3(f)]),
    CheckSpec("table4", lambda b, f: [check_table4(f)]),
    CheckSpec("fig10.1", lambda b, f: [check_fig101(f)]),
    CheckSpec("sec7.values", lambda b, f: [check_sec7_values(f)]),
    CheckSpec("1.1", lambda b, f: [check_classical_tan(f)]),
    CheckSpec("1.2", lambda b, f: [check_classical_sec(f)]),
    CheckSpec("1.3", lambda b, f: [check_1_3(min(b.brute_n, 7))], "brute_n"),
    CheckSpec("1.6", lambda b, f: [check_hoffman("1.6", b.gf_order)], order_field="gf_order"),
    CheckSpec("1.7", lambda b, f: [check_hoffman("1.7", b.gf_order)], order_field="gf_order"),
    CheckSpec("1.9", _series_sweep("1.9"), "series_n", "series_order"),
    CheckSpec("1.11", _series_sweep("1.11"), "series_n", "series_order"),
    CheckSpec("1.12", _series_sweep("1.12"), "series_n", "series_order"),
    CheckSpec("1.14", _series_sweep("1.14"), "series_n", "series_order"),
    CheckSpec("1.15", _series_sweep("1.15"), "series_n", "series_order"),
    CheckSpec("1.16", _series_sweep("1.16"), "series_n", "series_order"),
    CheckSpec("1.17", lambda b, f: [check_eq_1_17(b.agg_n)], "agg_n"),
    CheckSpec("1.18", lambda b, f: [check_eq_1_18(b.agg_n)], "agg_n"),
    CheckSpec("1.19", lambda b, f: [check_bivariate("1.19", b.gf_order)], order_field="gf_order"),
    CheckSpec("1.20", lambda b, f: [check_bivariate("1.20", b.gf_order)], order_field="gf_order"),
    CheckSpec("2.3", lambda b, f: [check_eq_2_3(b.series_order + 1)], order_field="series_order"),
    CheckSpec("2.4", lambda b, f: [check_eq_2_4(b.series_order + 1)], order_field="series_order"),
    CheckSpec("2.5", lambda b, f: [check_eq_2_5(b.series_order + 1)], order_field="series_order"),
    CheckSpec("2.tan", lambda b, f: [check_tan_unique(b.series_order + 1)], order_field="series_order"),
    CheckSpec("3.1", lambda b, f: [check_3_1(b.sweep_n)], "sweep_n"),
    CheckSpec("3.bij", lambda b, f: [check_3_bijections(b.sweep_n)], "sweep_n"),
    CheckSpec("4.sym", lambda b, f: [check_symmetry(b.sym_n)], "sym_n"),
    CheckSpec("7.1", lambda b, f: [check_alternating("7.1", b.alt_inv_n)], "alt_inv_n"),
    CheckSpec("7.imaj", lambda b, f: [check_alternating("7.imaj", b.alt_imaj_n)], "alt_imaj_n"),
    CheckSpec("7.4", lambda b, f: [check_convolution("7.4", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.5", lambda b, f: [check_convolution("7.5", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.6", lambda b, f: [check_convolution("7.6", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.comb", lambda b, f: [check_7_combined(b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.rhogamma", lambda b, f: [check_rho_gamma(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("7.11", lambda b, f: [check_reversal("7.11", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.12", lambda b, f: [check_reversal("7.12", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("8.phi", lambda b, f: [check_phi(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("8.1", lambda b, f: [check_psi(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("8.2", lambda b, f: [check_psi_on_t(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("9.1", lambda b, f: [check_9_1(b.product_n)], "product_n"),
    CheckSpec("triple.A", lambda b, f: [check_triple(KIND_A, b.rewrite_n, b.brute_n)], "rewrite_n"),
    CheckSpec("triple.B", lambda b, f: [check_triple(KIND_B, b.rewrite_n, b.brute_n)], "rewrite_n"),
    CheckSpec("triple.Ac", lambda b, f: [check_triple(KIND_AC, b.rewrite_n, b.brute_n)], "rewrite_n"),
    CheckSpec("tables.bounds", lambda b, f: [check_table_bounds(b.table_n)], "table_n"),
    CheckSpec("q1.bridge", lambda b, f: [check_q1_bridge(b.agg_n)], "agg_n"),
    CheckSpec("10.2", lambda b, f: [check_carlitz(f, b.carlitz_n)], "carlitz_n"),
    CheckSpec("10.5", lambda b, f: [check_10_5(b.refine_n)], "refine_n"),
    CheckSpec("10.7", lambda b, f: [check_10_7(b.refine_n)], "refine_n"),
    CheckSpec("10.8", lambda b, f: [check_10_8(b.diag_n, b.perm_sweep_n)], "diag_n"),
    CheckSpec("10.3", lambda b, f: [check_subdiagonal("10.3", b.diag_n)], "diag_n"),
    CheckSpec("10.4", lambda b, f: [check_subdiagonal("10.4", b.diag_n)], "diag_n"),
    CheckSpec("10.tq", lambda b, f: [check_tq(b.tq_n)], "tq_n"),
    CheckSpec("springer", lambda b, f: [check_springer(f, b.springer_n)], "springer_n"),
    CheckSpec("10.6.alpha", lambda b, f: [check_alpha_counts(b.alpha_n)], "alpha_n"),
    CheckSpec("10.6.gf", lambda b, f: [check_fib_gf(b.fib_gf_order)], order_field="fib_gf_order"),
    CheckSpec("rowsums", lambda b, f: [check_rowsums(b.rowsums_n)], "rowsums_n"),
)

_BY_ID: Dict[str, CheckSpec] = {spec.id: spec for spec in CHECKS}

# the checks run_checks sends to a forked child: the two t-permutation
# sweeps, which share no cache with the checks the calling process runs
_FORKED: Tuple[str, ...] = ("3.1", "3.bij")


def specs_for(ids) -> Tuple[CheckSpec, ...]:
    """The specs of ``ids`` in order; ``all`` alone (never among other ids) is every spec.

    A string is one id."""
    if isinstance(ids, str):
        ids = [ids]
    if ids is None or list(ids) == ["all"]:
        return CHECKS
    if "all" in ids:
        raise ValueError("check id 'all' cannot be combined with other check ids")
    out = []
    for check_id in ids:
        if check_id not in _BY_ID:
            raise KeyError(check_id)
        out.append(_BY_ID[check_id])
    return tuple(out)


def adjusted_bounds(
    bounds: Bounds,
    spec: CheckSpec,
    n: Optional[int] = None,
    order: Optional[int] = None,
    fixtures=None,
) -> Bounds:
    """Apply the n/order overrides to the fields ``spec`` reads.

    Raises InvalidBoundsError when the result leaves the check unable to run.
    """
    updates = {}
    if n is not None and spec.n_field is not None:
        updates[spec.n_field] = n
    if order is not None and spec.order_field is not None:
        updates[spec.order_field] = order
    if updates:
        bounds = bounds._replace(**updates)
    if spec.id in _EXPANSIONS and bounds.series_order < bounds.series_n:
        raise InvalidBoundsError(
            "check %s needs order >= n, got n=%d, order=%d"
            % (spec.id, bounds.series_n, bounds.series_order)
        )
    if spec.id == "10.2":
        # a missing or empty fixture is left for check_carlitz to report
        fixture_n = max((key[0] for key in _fx(fixtures).get("carlitz", ())), default=None)
        if fixture_n is not None and bounds.carlitz_n > fixture_n:
            raise InvalidBoundsError(
                "check 10.2 needs n <= %d (the largest n of the Carlitz fixture), got n=%d"
                % (fixture_n, bounds.carlitz_n)
            )
    return bounds


def _failure(spec: CheckSpec, bounds: Bounds, actual: str) -> VerificationReport:
    return VerificationReport(
        spec.id,
        {f: getattr(bounds, f) for f in (spec.n_field, spec.order_field) if f},
        "fail",
        Discrepancy(("exception",), "no exception", actual),
    )


def _run_guarded(spec: CheckSpec, bounds: Bounds, fixtures) -> List[VerificationReport]:
    # failures are data: a check that raises becomes a failing report
    try:
        return spec.run(bounds, fixtures)
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
        return [_failure(spec, bounds, repr(exc))]


def _lanes() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_two_lanes(tasks, fixtures) -> Optional[List[List[VerificationReport]]]:
    """Each task's reports, in task order: a forked child runs the tasks
    whose check is in ``_FORKED`` while this process runs the others.

    The child never returns into its caller: it sends its reports as one
    pickle over a pipe and leaves by ``os._exit``, so it runs no exit
    handler and flushes none of the buffers it inherited.  If it dies or
    sends no complete pickle, each of its checks gets a failing report.
    Whatever this process raises, the child is killed and reaped first.
    None, with no check run, when the fork fails.
    """
    import pickle
    import signal

    forked = [(spec, bnd) for spec, bnd in tasks if spec.id in _FORKED]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            reports = [_run_guarded(spec, bnd, fixtures) for spec, bnd in forked]
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(reports))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            here = [_run_guarded(spec, bnd, fixtures) for spec, bnd in tasks if spec.id not in _FORKED]
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = 0  # reaped
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        there = pickle.loads(data)
    except Exception:  # noqa: BLE001 - a truncated pickle raises any of several types
        lost = repr(ChildProcessError("check process exited with code %d without its reports" % code))
        there = [[_failure(spec, bnd, lost)] for spec, bnd in forked]
    here, there = iter(here), iter(there)
    return [next(there if spec.id in _FORKED else here) for spec, _ in tasks]


def run_checks(
    specs,
    bounds: Optional[Bounds] = None,
    fixtures=None,
    n: Optional[int] = None,
    order: Optional[int] = None,
) -> List[VerificationReport]:
    """Run ``specs``; the reports come in the order of ``specs``.  Bounds
    are checked for every spec before any check runs, so invalid overrides
    raise InvalidBoundsError up front.

    The checks in ``_FORKED`` run in a forked child, in parallel with the
    rest (``_run_two_lanes``), when all of these hold: the process may run
    on at least two CPUs, ``os.fork`` exists, it runs one thread (a fork
    copies no other thread, so a lock another thread holds would stay
    held in the child), and both lanes have a check.  Otherwise, or if
    the fork fails, every check runs here, one after another; the reports
    are the same.
    """
    bounds = bounds or Bounds()
    tasks = [(spec, adjusted_bounds(bounds, spec, n, order, fixtures)) for spec in specs]
    forked = sum(spec.id in _FORKED for spec, _ in tasks)
    threading = sys.modules.get("threading")
    results = None
    if (
        0 < forked < len(tasks)
        and _lanes() >= 2
        and hasattr(os, "fork")
        and (threading is None or threading.active_count() == 1)
    ):
        results = _run_two_lanes(tasks, fixtures)
    if results is None:
        results = [_run_guarded(spec, bnd, fixtures) for spec, bnd in tasks]
    return [report for result in results for report in result]


def run_suite(bounds: Optional[Bounds] = None, fixtures=None) -> List[VerificationReport]:
    """Run every registered check with the given bounds."""
    return run_checks(CHECKS, bounds, fixtures)
