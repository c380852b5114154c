"""Verification suite: every identity as an exact polynomial equality.

Each check returns a :class:`VerificationReport`; a failing check carries
the first discrepancy (smallest index in a fixed scan order) with the
expected and actual values.  Checks are pure functions of their bounds
and of the paper's printed values (``DEFAULT_FIXTURES``, read at each
call, so a test alters them by rebinding ``verify.DEFAULT_FIXTURES``),
and re-runnable in any order; ``run_suite`` executes the full registry
deterministically.

``run_checks`` runs in two lanes when it can: a forked child runs the
checks that share a pass (``_SWEEP_BODIES``: 3.1, 3.bij, 8.phi, 8.1 and
8.2) while the calling process runs the rest, and the reports keep the
serial order.  Otherwise every check runs in the calling process; that
serial path is the reference.  A child that dies fails each of its
checks, and is never a hang or a traceback.  Within a lane, 3.1 and 3.bij
share one pass over T(n), and 8.phi, 8.1 and 8.2 one walk of S_n
(``_Sweep``), each check with its own report, which it leaves from one
scope per step.  The checks whose memory grows with n refuse an n above
their limit (``_N_LIMITS``) before any check runs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
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
    enumerate_t_compositions,
    fibonacci_poly,
    psi_on_t,
    star_delta,
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
    brute_n: int = tcomb.BRUTE_FORCE_BOUND
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


# Every check past its default bound and within its size limit
# (``_N_LIMITS``).  CI runs ``run_suite(DEEP)`` on two lanes and compares the
# sha256 of its report lines with a digest written in that step, so a change
# here re-records it there.
DEEP = Bounds(
    series_order=14,
    series_n=8,
    table_n=14,
    rewrite_n=14,
    brute_n=9,
    sweep_n=7,
    perm_sweep_n=8,
    agg_n=14,
    sym_n=9,
    product_n=14,
    alt_inv_n=12,
    alt_imaj_n=12,
    reciprocity_n=15,
    refine_n=8,
    diag_n=12,
    tq_n=9,
    springer_n=12,
    alpha_n=14,
    gf_order=12,
    fib_gf_order=16,
    rowsums_n=14,
)


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

    def require(self, index, condition) -> None:
        if not condition:
            self._stop(index, "condition", "violated")

    @property
    def report(self) -> VerificationReport:
        status = "pass" if self.first is None else "fail"
        return VerificationReport(self.id, self.params, status, self.first)


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


def check_table1(n_max: int = 6) -> VerificationReport:
    fx = DEFAULT_FIXTURES
    tri_a, tri_b = special.small_triangles(n_max)
    with _Collector("table1", {"n_max": n_max}) as col:
        for name, fixture, tri in (("a", fx["table1.a"], tri_a), ("b", fx["table1.b"], tri_b)):
            keys = set(fixture) | {(n, m) for n, row in enumerate(tri) for m in row}
            for n, m in sorted(keys):
                actual = tri[n].get(m, 0) if n <= n_max else 0
                col.eq((name, n, m), fixture.get((n, m), 0), actual)
    return col.report


def check_table2(n_max: int = 4) -> VerificationReport:
    fx = DEFAULT_FIXTURES
    with _Collector("table2", {"n_max": n_max}) as col:
        for name, fixture, table in (
            ("A", fx["table2.a"], a_table(n_max)),
            ("B", fx["table2.b"], b_table(n_max)),
        ):
            for key in sorted(set(fixture) | {key for key, _ in table.items()}):
                col.eq((name,) + key, QPoly(fixture.get(key, ())), table.get(key))
    return col.report


def check_table3(n_max: int = 4) -> VerificationReport:
    fixture = DEFAULT_FIXTURES["table3"]
    table = ac_table(n_max)
    keys = set(fixture) | {key for key, _ in table.items()}
    with _Collector("table3", {"n_max": n_max}) as col:
        for key in sorted(keys, key=lambda k: (k[0], len(k[1]), k[1])):
            col.eq(("Ac", key[0], key[1]), QPoly(fixture.get(key, ())), table.get(key))
    return col.report


def check_table4(n_max: int = 4) -> VerificationReport:
    fx = DEFAULT_FIXTURES
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


def check_fig101(n_max: int = 6) -> VerificationReport:
    fx = DEFAULT_FIXTURES
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


def check_sec7_values() -> VerificationReport:
    with _Collector("sec7.values", {}) as col:
        for tag, key, number in (
            ("tan", "qtan", q_tangent_number),
            ("sec", "qsec", q_secant_number),
            ("sec2", "qsec2", q_secant2_number),
        ):
            for n, coeffs in sorted(DEFAULT_FIXTURES[key].items()):
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


def check_classical_tan() -> VerificationReport:
    return _check_classical("1.1", "T", DEFAULT_FIXTURES["classical.t"], classical_tan)


def check_classical_sec() -> VerificationReport:
    return _check_classical("1.2", "E", DEFAULT_FIXTURES["classical.e"], classical_sec)


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
    series equals the sum over row n of a table of coefficient times term.

    The n-th q-derivative of an order-``order`` series has order
    ``order - n``, so the terms are built at that order: the coefficients
    compared, and no more."""
    if order < n:
        raise InvalidBoundsError("order must be at least n")
    spec = _EXPANSIONS[check_id]
    lhs = _dq_n(spec.lhs(order), n)
    half = n * (n - 1) // 2
    top = order - n
    with _Collector(check_id, {"n": n, "order": order}) as col:
        rhs = zero_series(top)
        for key, poly in _table(spec.kind, n).row(n).items():
            if spec.s_only and key[-1] != 0:
                continue
            if spec.reversal:
                if poly.degree > half:
                    col.eq((check_id, n, "reversal", key), half, poly.degree)
                poly = poly.reverse(half)
            rhs = rhs.add(spec.term(n, key, top).scale(poly))
        _series_eq(col, (check_id, n), lhs, rhs)
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
    rhs = one_series(order - 1).add(tan_q(order - 1).mul(tan_q(order - 1).scale_arg(1)))
    return _check_series("2.3", order, lhs, rhs)


def check_eq_2_4(order: int) -> VerificationReport:
    lhs = sec_q(order).d_q()
    rhs = sec_q(order - 1).scale_arg(1).mul(tan_q(order - 1))
    return _check_series("2.4", order, lhs, rhs)


def check_eq_2_5(order: int) -> VerificationReport:
    lhs = Sec_q(order).d_q()
    rhs = Sec_q(order - 1).mul(tan_q(order - 1).scale_arg(1))
    return _check_series("2.5", order, lhs, rhs)


def check_tan_unique(order: int) -> VerificationReport:
    return _check_series("2.tan", order, tan_q(order), Tan_q(order))


# -- bijection sweeps --------------------------------------------------------
#
# 3.1 and 3.bij share one pass over the pairs (w, i) of T(n) x 1..mu(w), and
# 8.phi, 8.1 and 8.2 one walk of S_n: a ``_Sweep`` runs a pass for the
# checks of one lane that read it (``_run_lane``), or for one check alone.


class _Sweep:
    """One pass of ``body`` over n <= n_max for the checks ``ids``.

    Each check keeps its own collector.  It leaves the pass at its first
    discrepancy or exception, and the others run on; a shared value that
    raises fails each check still in the pass that reads it.  ``body``
    gives each check one scope per step, and shared values one more.  The
    pass runs when the first of its checks asks for its report, and a
    check that raised raises the same exception there, so ``_run_guarded``
    reports it as it would the check's own.
    """

    __slots__ = ("body", "n_max", "ids", "active", "results")

    def __init__(self, body: Callable, n_max: int, ids):
        self.body, self.n_max, self.ids = body, n_max, tuple(ids)
        self.active: Dict[str, _Collector] = {}
        self.results: Optional[dict] = None

    def leave(self, check_id: str, exc: Exception) -> None:
        """Take ``check_id``, if still in the pass, out of it: with its
        report at a discrepancy (``_Stop``), else with ``exc``.  None, to
        clear the caller's handle on its collector."""
        col = self.active.pop(check_id, None)
        if col is not None:
            self.results[check_id] = col.report if isinstance(exc, _Stop) else exc

    def guard(self, check_id: str, part: Callable, *args) -> None:
        """Run ``part(collector, *args)`` for ``check_id`` while it is in the pass."""
        col = self.active.get(check_id)
        if col is not None:
            try:
                part(col, *args)
            except Exception as exc:  # noqa: BLE001 - this check's own failure
                self.leave(check_id, exc)

    def report(self, check_id: str) -> VerificationReport:
        """``check_id``'s report, running the pass first if no check has."""
        if self.results is None:
            self.results = {}
            self.active = {i: _Collector(i, {"n_max": self.n_max}) for i in self.ids}
            try:
                self.body(self)
            except Exception as exc:  # noqa: BLE001 - a value every check left in the pass reads
                for i in list(self.active):
                    self.leave(i, exc)
            for i, col in self.active.items():
                self.results[i] = col.report
            self.active = {}
        result = self.results[check_id]
        if isinstance(result, Exception):
            raise result
        return result


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


def _31_examples(col: _Collector) -> None:
    w0 = TPermutation(_W_EXAMPLE)
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


def _31_expected(w: TPermutation, st) -> list:
    """The (iligne, ides, imaj, inv) of the images of (w, i), for
    i = 1..mu(w), from ``w``'s own statistics ``st``."""
    min_comp = w.min_component()
    shifted = frozenset(j + 1 for j in st.iligne)
    out, prefix = [], 0
    for i in range(1, w.mu + 1):
        prefix += w.parts[i - 1]
        # the new 1 is an inverse descent exactly when it lands after 2
        new = 0 if min_comp is not None and i <= min_comp else 1
        ilg = shifted | {1} if new else shifted
        out.append((ilg, st.ides + new, new + st.ides + st.imaj, st.inv + prefix))
    return out


def _sweep_t_pairs(run: _Sweep) -> None:
    """3.1 and 3.bij over the pairs (w, i) of T(n) x 1..mu(w).

    One ``t_permutation_cuts`` walk per n builds each pair's two images
    with one flat insertion step (``tcomb._insert_one``).  The image word
    depends only on sigma and where the 1 lands, so it is checked to be a
    permutation, and its descent word computed, once per word (the shared
    ``words`` memo); each image's parts then need one cut test on that
    descent word.  A failing cut test calls the validating constructor,
    which raises its own error, in both checks.  3.1 compares each image's
    statistics and the component of its 1 with the values predicted from
    w, in one scope per image: sigma's statistics, w's prediction and the
    image word's statistics (memoized per sigma, for 3.1 alone) are
    computed there on first use, so a sigma with no image costs 3.1
    nothing.  3.bij inverts each image with the removal step.

    3.bij keeps no image.  Each round trip gives back (i, w), so both maps
    are injective on pairs, which the walk lists once each; the kind checks
    keep the two image sets apart; the cut test puts every image in
    T(n+1).  So the images are 2 * pairs distinct t-permutations of order
    n + 1, and they are all of T(n+1) exactly when |T(n+1)|, counted by
    enumeration, equals 2 * pairs.  Each order is counted during its own
    domain walk; order n_max + 1 is counted from the valid cuts of each
    permutation, without building its t-permutations.  3.1 starts at n = 1.

    The first failing test names the failure: a comparison reports the
    first statistic that differs, the removal step's refusal is reported
    as an image of the wrong kind, and a round trip that misses is reported
    with the pair it gave back.
    """
    run.guard("3.1", _31_examples)
    previous = 0  # the pairs of order n - 1
    for n in range(run.n_max + 1):
        stats = run.active.get("3.1") if n else None
        bij = run.active.get("3.bij")
        if not (stats or bij):
            continue
        count = pairs = 0
        try:
            for sigma, cuts in t_permutation_cuts(n):
                if not (stats or bij):
                    break
                shifted = tuple(y + 1 for y in sigma)
                # each image word's descent word, or None when it is not a
                # permutation; and, for 3.1, its (iligne, ides, imaj, inv)
                words: dict = {}
                word_stats: dict = {}
                st = None
                count += len(cuts)
                for w in cuts:
                    expected = None
                    back = (w.word, w.parts)
                    for i in range(1, w.mu + 1):
                        word, first, second = tcomb._insert_one(i, shifted, w.parts)
                        if word not in words:
                            is_perm = sorted(word) == list(range(1, len(word) + 1))
                            words[word] = permstats.descent_word(word) if is_perm else None
                        desc = words[word]
                        for name, parts, exp_min, first_kind in (
                            ("delta*", first, i, True),
                            ("*delta", second, i - 1, False),
                        ):
                            if not (
                                desc is not None and sum(parts) == len(word) and tcomb._is_valid_cut(parts, desc)
                            ):
                                TPermutation._flat(word, parts)  # raises the constructor's error
                            if stats:
                                try:
                                    if expected is None:
                                        st = st or permstats.statistics(sigma)
                                        expected = _31_expected(w, st)
                                    got = word_stats.get(word)
                                    if got is None:
                                        ilg = permstats.iligne(word)
                                        got = word_stats[word] = (ilg, len(ilg), sum(ilg), permstats.inv(word))
                                    exp, one = expected[i - 1], tcomb._one_at(word, parts)[0]
                                    if got != exp or one != exp_min:
                                        # report indices name components, built only on failure
                                        idx = ("sweep", n, w.components, i, name)
                                        names = ("iligne", "ides", "imaj", "inv", "min")
                                        for stat, e, a in zip(names, exp + (exp_min,), got + (one,)):
                                            stats.eq(idx + (stat,), e, a)
                                except Exception as exc:
                                    stats = run.leave("3.1", exc)
                            if bij:
                                try:
                                    try:
                                        removed = tcomb._remove_one(word, parts, first_kind)
                                    except ValueError:
                                        # the removal step refuses an image of the other kind
                                        image = TPermutation._flat(word, parts, check=False)
                                        if image.is_first_kind() == first_kind:
                                            raise
                                        kind = "first-kind" if first_kind else "second-kind"
                                        bij.require((n, kind, image.components), False)
                                    if removed != (i,) + back:
                                        actual = (removed[0], TPermutation._flat(*removed[1:]).components)
                                        bij.eq((n, name + "-roundtrip", i), (i, w.components), actual)
                                except Exception as exc:
                                    bij = run.leave("3.bij", exc)
                    pairs += w.mu
        except Exception as exc:  # the walk and the images, which both checks read
            run.leave("3.bij", exc)
            if n:
                run.leave("3.1", exc)
        if n:
            run.guard("3.bij", lambda col: col.eq((n, "partition"), count, 2 * previous))
        previous = pairs

    def last_order(col: _Collector) -> None:
        n = run.n_max + 1
        count = sum(len(tcomb._valid_cuts(n, desc)) for _, desc, _, _, _ in permstats.walk(n))
        col.eq((n, "partition"), count, 2 * previous)

    run.guard("3.bij", last_order)


_PHI_EXAMPLE = ((7, 4, 9, 2, 6, 1, 5, 8, 3), (4, 7, 2, 6, 1, 9, 5, 8, 3))
_PSI_EXAMPLE = ((6, 4, 9, 2, 7, 5, 1, 8, 3), (5, 3, 9, 1, 7, 4, 2, 8, 6))
_PSI_ON_T_EXAMPLE = (((), (6,), (4,), (9, 2, 7), (5, 1, 8, 3)), ((), (5,), (3,), (9, 1, 7), (4, 2, 8, 6)))


def _sweep_words(run: _Sweep) -> None:
    """8.phi, 8.1 and 8.2 over one walk of S_n per n.

    8.phi: Foata's phi carries maj to inv and keeps iligne.  8.1: its
    conjugate psi keeps the descent word and carries imaj to inv.  Both
    read sigma's maj, descent word and imaj off its walk row and compute
    only the compared statistics of the image; 8.1 and 8.2 share psi(sigma),
    its descent word and its inv, computed in one scope that fails both,
    and 8.1's ligne and inv=imaj tests share one scope after it.  Each map
    is a bijection of S_n exactly when it takes n! distinct words, each
    held as bytes, one letter a byte.

    8.2: psi, cut at the same lengths, is a lambda-preserving bijection of
    T(n) carrying imaj to inv.  Each image is cut at the lengths of its
    source, so it keeps lambda.  Every cut of sigma is valid on sigma's
    descent word, so an image that is a permutation with that descent word
    lies in T(n) under all of them; only an image that is not is put
    through the validating constructor, cut by cut.  Cuts of one
    permutation at distinct lengths differ, and so do cuts of permutations
    with distinct psi images; so the map is injective, hence onto the
    finite T(n), exactly when psi takes as many distinct words as
    permutations were walked.
    """
    run.guard("8.phi", lambda col: col.eq(("example",), _PHI_EXAMPLE[1], permstats.foata_phi(_PHI_EXAMPLE[0])))
    run.guard("8.1", lambda col: col.eq(("example",), _PSI_EXAMPLE[1], permstats.psi(_PSI_EXAMPLE[0])))
    run.guard(
        "8.2",
        lambda col: col.eq(
            ("example",), _PSI_ON_T_EXAMPLE[1], psi_on_t(TPermutation(_PSI_ON_T_EXAMPLE[0])).components
        ),
    )
    for n in range(run.n_max + 1):
        phi, psi, on_t = map(run.active.get, ("8.phi", "8.1", "8.2"))
        if not (phi or psi or on_t):
            return
        positions = range(1, n)
        letters = list(range(1, n + 1))
        phi_images, psi_images, count = set(), set(), 0
        for sigma, desc, _, _, imaj in permstats.walk(n):
            count += 1
            if phi:
                try:
                    image = permstats.foata_phi(sigma)
                    phi_images.add(bytes(image))
                    maj, image_inv = sum(itertools.compress(positions, desc)), permstats.inv(image)
                    if maj != image_inv:
                        phi.eq((n, sigma, "maj=inv"), maj, image_inv)
                    ilg, image_ilg = permstats.iligne(sigma), permstats.iligne(image)
                    if ilg != image_ilg:
                        phi.eq((n, sigma, "iligne"), ilg, image_ilg)
                except Exception as exc:
                    phi = run.leave("8.phi", exc)
            if not (psi or on_t):
                continue
            try:
                image = permstats.psi(sigma)
                psi_images.add(bytes(image))
                image_desc, image_inv = permstats.descent_word(image), permstats.inv(image)
            except Exception as exc:  # psi(sigma), its descent word or its inv
                psi = run.leave("8.1", exc)
                on_t = run.leave("8.2", exc)
                continue
            if psi and (image_desc != desc or imaj != image_inv):
                try:
                    if image_desc != desc:
                        lg, image_lg = frozenset(itertools.compress(positions, desc)), permstats.ligne(image)
                        if lg != image_lg:
                            psi.eq((n, sigma, "ligne"), lg, image_lg)
                    psi.eq((n, sigma, "inv=imaj"), imaj, image_inv)
                except Exception as exc:
                    psi = run.leave("8.1", exc)
            if on_t:
                try:
                    if not (imaj == image_inv and sorted(image) == letters and image_desc == desc):
                        for parts in tcomb._valid_cuts(n, desc):
                            # the validating constructor: a psi that breaks
                            # the descent word fails here
                            cut_by_lambda(image, parts)
                            if imaj != image_inv:
                                # report indices name components, built only on failure
                                comps = cut_by_lambda(sigma, parts).components
                                on_t.eq((n, comps, "inv=imaj"), imaj, image_inv)
                except Exception as exc:
                    on_t = run.leave("8.2", exc)
        run.guard("8.phi", lambda col: col.eq((n, "bijective"), math.factorial(n), len(phi_images)))
        run.guard("8.1", lambda col: col.eq((n, "bijective"), math.factorial(n), len(psi_images)))
        run.guard("8.2", lambda col: col.eq((n, "bijective"), count, len(psi_images)))


# the checks that share a pass, each with its pass's body.  They are the
# checks run_checks sends to a forked child: the two fused sweeps, over T(n)
# and S_n; the one cache they share with the other checks,
# tcomb._valid_cuts (the oracle reads it, a passing 8.2 does not), is filled
# in each process.  Serial in-process passes over each lane's checks at the
# default bounds, least of six fresh processes (2-core Xeon, Python 3.11.7):
# this lane 0.36 s and the calling lane 0.35 s.  Either sweep costs more
# than that gap, and a check moved out of its sweep's lane would do the
# sweep's shared work again, so no move shortens the longer lane
_SWEEP_BODIES: Dict[str, Callable] = {
    "3.1": _sweep_t_pairs,
    "3.bij": _sweep_t_pairs,
    "8.phi": _sweep_words,
    "8.1": _sweep_words,
    "8.2": _sweep_words,
}

# .sweeps: the _Sweep of each check id in the lane that this thread runs
# (_run_lane).  The check functions keep their one-argument form, which
# callers and tests call and replace by name, so they look their sweep up here
_current_lane = threading.local()


def _swept(check_id: str, n_max: int) -> VerificationReport:
    """``check_id``'s report from its lane's sweep, when that sweep is at
    ``n_max``; else from a sweep of ``check_id`` alone."""
    sweep = getattr(_current_lane, "sweeps", {}).get(check_id)
    if sweep is None or sweep.n_max != n_max:
        sweep = _Sweep(_SWEEP_BODIES[check_id], n_max, (check_id,))
    return sweep.report(check_id)


def check_3_1(n_max: int) -> VerificationReport:
    """The statistics of every delta* and *delta image of T(n), n <= n_max."""
    return _swept("3.1", n_max)


def check_3_bijections(n_max: int) -> VerificationReport:
    """delta* and *delta split T(n+1) into first- and second-kind images."""
    return _swept("3.bij", n_max)


def check_phi(n_max: int) -> VerificationReport:
    return _swept("8.phi", n_max)


def check_psi(n_max: int) -> VerificationReport:
    return _swept("8.1", n_max)


def check_psi_on_t(n_max: int) -> VerificationReport:
    return _swept("8.2", n_max)


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


@lru_cache(maxsize=None)
def _alternating_polys(n: int, rising: bool) -> Tuple[QPoly, QPoly]:
    """The inv and the imaj generating polynomials of the rising (or
    falling) alternating permutations of 1..n, from one tally
    (``permstats.alternating_tally``), which 7.1 and 7.imaj share."""
    return tuple(map(QPoly, permstats.alternating_tally(n, rising)))


def check_alternating(check_id: str, n_max: int) -> VerificationReport:
    """7.1 (by inv) and 7.imaj (by imaj): alternating permutations are
    counted by the q-tangent and q-secant numbers."""
    stat = {"7.1": 0, "7.imaj": 1}[check_id]  # its place in _alternating_polys
    with _Collector(check_id, {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            rising = _alternating_polys(n, True)[stat]
            falling = _alternating_polys(n, False)[stat]
            if n % 2:
                col.eq((n, "RA"), q_tangent_number(n), rising)
                col.eq((n, "FA"), q_tangent_number(n), falling)
            else:
                col.eq((n, "RA"), q_secant_number(n), rising)
                col.eq((n, "FA"), q_secant2_number(n), falling)
    return col.report


def check_rho_gamma(n_max: int) -> VerificationReport:
    """7.rhogamma: for odd n, rho o gamma maps RA_n into FA_n and keeps inv.  It is one-to-one
    as it maps each image back to its sigma, and onto as |RA_n| = |FA_n|, so no image is held.
    |FA_n| is read at q = 1 from the falling tally that 7.1 caches (``_alternating_polys``),
    so FA_n is never walked."""
    with _Collector("7.rhogamma", {"n_max": n_max}) as col:
        for n in range(1, n_max + 1, 2):
            walked = 0
            for walked, (sigma, _, inv, _, _) in enumerate(permstats.walk(n, True), 1):
                image = permstats.mirror_rho(permstats.complement_gamma(sigma))
                falling = permstats.descent_word(image) == permstats.zigzag(n, False)
                col.require((n, sigma, "falling"), falling)
                col.eq((n, sigma, "inv"), inv, permstats.inv(image))
                col.eq((n, sigma, "involution"), sigma, permstats.mirror_rho(permstats.complement_gamma(image)))
            col.eq((n, "onto"), _alternating_polys(n, False)[0].eval_at_one(), walked)
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


def check_carlitz(n_max: int = Bounds._field_defaults["carlitz_n"]) -> VerificationReport:
    table = special.carlitz_table(n_max)
    fixture = DEFAULT_FIXTURES["carlitz"]
    keys = {key for key in fixture if key[0] <= n_max}
    keys |= {(n, j) for n, row in enumerate(table) for j in row}
    with _Collector("10.2", {"n_max": n_max}) as col:
        for n, j in sorted(keys):
            col.eq(("carlitz", n, j), QPoly(fixture.get((n, j), ())), table[n].get(j, _ZP))
        refined_fixture = DEFAULT_FIXTURES["carlitz.refined"]
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


def check_springer(n_max: int = Bounds._field_defaults["springer_n"]) -> VerificationReport:
    with _Collector("springer", {"n_max": n_max}) as col:
        for n in range(n_max + 1):
            v1 = special.springer_poly_from_tables(n)
            v2 = special.springer_poly_from_series(sec_q(n))
            col.eq((n, "table=series"), v1, v2)
        for n, value in enumerate(DEFAULT_FIXTURES["springer"]):
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
    def run(bounds: Bounds) -> List[VerificationReport]:
        return [
            check_expansion(check_id, n, bounds.series_order) for n in range(bounds.series_n + 1)
        ]

    return run


CHECKS: Tuple[CheckSpec, ...] = (
    CheckSpec("table1", lambda b: [check_table1()]),
    CheckSpec("table2", lambda b: [check_table2()]),
    CheckSpec("table3", lambda b: [check_table3()]),
    CheckSpec("table4", lambda b: [check_table4()]),
    CheckSpec("fig10.1", lambda b: [check_fig101()]),
    CheckSpec("sec7.values", lambda b: [check_sec7_values()]),
    CheckSpec("1.1", lambda b: [check_classical_tan()]),
    CheckSpec("1.2", lambda b: [check_classical_sec()]),
    CheckSpec("1.3", lambda b: [check_1_3(min(b.brute_n, 7))], "brute_n"),
    CheckSpec("1.6", lambda b: [check_hoffman("1.6", b.gf_order)], order_field="gf_order"),
    CheckSpec("1.7", lambda b: [check_hoffman("1.7", b.gf_order)], order_field="gf_order"),
    CheckSpec("1.9", _series_sweep("1.9"), "series_n", "series_order"),
    CheckSpec("1.11", _series_sweep("1.11"), "series_n", "series_order"),
    CheckSpec("1.12", _series_sweep("1.12"), "series_n", "series_order"),
    CheckSpec("1.14", _series_sweep("1.14"), "series_n", "series_order"),
    CheckSpec("1.15", _series_sweep("1.15"), "series_n", "series_order"),
    CheckSpec("1.16", _series_sweep("1.16"), "series_n", "series_order"),
    CheckSpec("1.17", lambda b: [check_eq_1_17(b.agg_n)], "agg_n"),
    CheckSpec("1.18", lambda b: [check_eq_1_18(b.agg_n)], "agg_n"),
    CheckSpec("1.19", lambda b: [check_bivariate("1.19", b.gf_order)], order_field="gf_order"),
    CheckSpec("1.20", lambda b: [check_bivariate("1.20", b.gf_order)], order_field="gf_order"),
    CheckSpec("2.3", lambda b: [check_eq_2_3(b.series_order + 1)], order_field="series_order"),
    CheckSpec("2.4", lambda b: [check_eq_2_4(b.series_order + 1)], order_field="series_order"),
    CheckSpec("2.5", lambda b: [check_eq_2_5(b.series_order + 1)], order_field="series_order"),
    CheckSpec("2.tan", lambda b: [check_tan_unique(b.series_order + 1)], order_field="series_order"),
    CheckSpec("3.1", lambda b: [check_3_1(b.sweep_n)], "sweep_n"),
    CheckSpec("3.bij", lambda b: [check_3_bijections(b.sweep_n)], "sweep_n"),
    CheckSpec("4.sym", lambda b: [check_symmetry(b.sym_n)], "sym_n"),
    CheckSpec("7.1", lambda b: [check_alternating("7.1", b.alt_inv_n)], "alt_inv_n"),
    CheckSpec("7.imaj", lambda b: [check_alternating("7.imaj", b.alt_imaj_n)], "alt_imaj_n"),
    CheckSpec("7.4", lambda b: [check_convolution("7.4", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.5", lambda b: [check_convolution("7.5", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.6", lambda b: [check_convolution("7.6", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.comb", lambda b: [check_7_combined(b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.rhogamma", lambda b: [check_rho_gamma(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("7.11", lambda b: [check_reversal("7.11", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("7.12", lambda b: [check_reversal("7.12", b.reciprocity_n)], "reciprocity_n"),
    CheckSpec("8.phi", lambda b: [check_phi(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("8.1", lambda b: [check_psi(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("8.2", lambda b: [check_psi_on_t(b.perm_sweep_n)], "perm_sweep_n"),
    CheckSpec("9.1", lambda b: [check_9_1(b.product_n)], "product_n"),
    CheckSpec("triple.A", lambda b: [check_triple(KIND_A, b.rewrite_n, b.brute_n)], "rewrite_n"),
    CheckSpec("triple.B", lambda b: [check_triple(KIND_B, b.rewrite_n, b.brute_n)], "rewrite_n"),
    CheckSpec("triple.Ac", lambda b: [check_triple(KIND_AC, b.rewrite_n, b.brute_n)], "rewrite_n"),
    CheckSpec("tables.bounds", lambda b: [check_table_bounds(b.table_n)], "table_n"),
    CheckSpec("q1.bridge", lambda b: [check_q1_bridge(b.agg_n)], "agg_n"),
    CheckSpec("10.2", lambda b: [check_carlitz(b.carlitz_n)], "carlitz_n"),
    CheckSpec("10.5", lambda b: [check_10_5(b.refine_n)], "refine_n"),
    CheckSpec("10.7", lambda b: [check_10_7(b.refine_n)], "refine_n"),
    CheckSpec("10.8", lambda b: [check_10_8(b.diag_n, b.perm_sweep_n)], "diag_n"),
    CheckSpec("10.3", lambda b: [check_subdiagonal("10.3", b.diag_n)], "diag_n"),
    CheckSpec("10.4", lambda b: [check_subdiagonal("10.4", b.diag_n)], "diag_n"),
    CheckSpec("10.tq", lambda b: [check_tq(b.tq_n)], "tq_n"),
    CheckSpec("springer", lambda b: [check_springer(b.springer_n)], "springer_n"),
    CheckSpec("10.6.alpha", lambda b: [check_alpha_counts(b.alpha_n)], "alpha_n"),
    CheckSpec("10.6.gf", lambda b: [check_fib_gf(b.fib_gf_order)], order_field="fib_gf_order"),
    CheckSpec("rowsums", lambda b: [check_rowsums(b.rowsums_n)], "rowsums_n"),
)

_BY_ID: Dict[str, CheckSpec] = {spec.id: spec for spec in CHECKS}


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


# id -> (the Bounds field capped, the largest n it runs at, what it holds)
# for the checks whose memory grows with n: the largest n whose `verify
# <ids> --n N` (brute_n: `--bound-bruteforce N`) peaks under 48 MB RSS, the
# package compiled from source as in CI's gate (2-core Xeon, 3.11.7; 3.10,
# 3.12, 3.13 no higher but where noted).  7.1, 7.imaj: 45.6 MB at 15, 81.0
# at 16; 8.phi, 8.1, 8.2: 25.9 at 8, 87.2 at 9 (87.3 on 3.12); triple.*:
# 42.4 at 10, 99.5 at 11 (tcomb.BRUTE_FORCE_LIMIT, which `qderiv oracle`
# reads too).  3.1, 3.bij, 7.rhogamma, 10.7, 10.8, 10.tq and the triple
# checks' --n hold little as n grows; 1.3 clamps brute_n at 7.
_N_LIMITS: Dict[str, Tuple[str, int, str]] = {
    "7.1": ("alt_inv_n", 15, "alternating tally stays"),
    "7.imaj": ("alt_imaj_n", 15, "alternating tally stays"),
    **dict.fromkeys(("8.phi", "8.1", "8.2"), ("perm_sweep_n", 8, "phi and psi images stay")),
    **dict.fromkeys(
        ("triple.A", "triple.B", "triple.Ac"),
        ("brute_n", tcomb.BRUTE_FORCE_LIMIT, "--bound-bruteforce oracle tallies stay"),
    ),
}


def adjusted_bounds(
    bounds: Bounds,
    spec: CheckSpec,
    n: Optional[int] = None,
    order: Optional[int] = None,
) -> Bounds:
    """Apply the n/order overrides to the fields ``spec`` reads.

    Raises InvalidBoundsError when the result leaves the check unable to
    run: an order below n, a field above its size limit (``_N_LIMITS``), or
    a 10.2 n past the Carlitz fixture of ``DEFAULT_FIXTURES``.
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
    field, limit, held = _N_LIMITS.get(spec.id, (None, None, None))
    if field is not None and getattr(bounds, field) > limit:
        raise InvalidBoundsError(
            "check %s needs n <= %d (the largest n whose %s under 48 MB), got n=%d"
            % (spec.id, limit, held, getattr(bounds, field))
        )
    if spec.id == "10.2":
        # a missing or empty fixture is left for check_carlitz to report
        fixture_n = max((key[0] for key in DEFAULT_FIXTURES.get("carlitz", ())), default=None)
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


def _run_guarded(spec: CheckSpec, bounds: Bounds) -> List[VerificationReport]:
    # failures are data: a check that raises becomes a failing report
    try:
        return spec.run(bounds)
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
        return [_failure(spec, bounds, repr(exc))]


def _run_lane(tasks) -> List[List[VerificationReport]]:
    """Each task's reports, in task order.  The tasks whose checks share a
    pass (``_SWEEP_BODIES``) at one n share one ``_Sweep``, which ends
    with the lane, so no report or image outlives one run.  The pass runs
    inside the first of those checks to ask for its report, so a timer
    around each check credits that check with the whole pass."""
    groups: Dict[tuple, list] = {}
    for spec, bnd in tasks:
        if spec.id in _SWEEP_BODIES:
            groups.setdefault((_SWEEP_BODIES[spec.id], getattr(bnd, spec.n_field)), []).append(spec.id)
    _current_lane.sweeps = {}
    for (body, n_max), ids in groups.items():
        _current_lane.sweeps.update(dict.fromkeys(ids, _Sweep(body, n_max, ids)))
    try:
        return [_run_guarded(spec, bnd) for spec, bnd in tasks]
    finally:
        _current_lane.sweeps = {}


def _lanes() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_two_lanes(tasks) -> Optional[List[List[VerificationReport]]]:
    """Each task's reports, in task order: a forked child runs the tasks
    whose check shares a pass (``_SWEEP_BODIES``) while this process runs
    the others.

    The child never returns into its caller: it sends its reports as one
    pickle over a pipe and leaves by ``os._exit``, so it runs no exit
    handler and flushes none of the buffers it inherited.  If it dies or
    sends no complete pickle, each of its checks gets a failing report.
    Whatever this process raises, the child is killed and reaped first.
    None, with no check run, when the fork fails.
    """
    import pickle
    import signal

    forked = [(spec, bnd) for spec, bnd in tasks if spec.id in _SWEEP_BODIES]
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
            reports = _run_lane(forked)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(reports))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            here = _run_lane([(spec, bnd) for spec, bnd in tasks if spec.id not in _SWEEP_BODIES])
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
    return [next(there if spec.id in _SWEEP_BODIES else here) for spec, _ in tasks]


def run_checks(
    specs,
    bounds: Optional[Bounds] = None,
    n: Optional[int] = None,
    order: Optional[int] = None,
) -> List[VerificationReport]:
    """Run ``specs``; the reports come in the order of ``specs``.  Bounds
    are checked for every spec before any check runs, so invalid overrides
    raise InvalidBoundsError up front.

    The checks that share a pass (``_SWEEP_BODIES``) run in a forked
    child, in parallel with the rest (``_run_two_lanes``), when all of
    these hold: the process may run on at least two CPUs, ``os.fork``
    exists, it runs one thread (a fork copies no other thread, so a lock
    another thread holds would stay held in the child), and both lanes
    have a check.  Otherwise, or if the fork fails, every check runs here,
    one after another; the reports are the same.

    The fixture checks, and the 10.2 bound, read ``DEFAULT_FIXTURES`` when
    they run: rebinding ``verify.DEFAULT_FIXTURES`` is the one way to
    alter the printed values they compare with.
    """
    bounds = bounds or Bounds()
    tasks = [(spec, adjusted_bounds(bounds, spec, n, order)) for spec in specs]
    forked = sum(spec.id in _SWEEP_BODIES for spec, _ in tasks)
    results = None
    if 0 < forked < len(tasks) and _lanes() >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        results = _run_two_lanes(tasks)
    if results is None:
        results = _run_lane(tasks)
    return [report for result in results for report in result]


def run_suite(bounds: Optional[Bounds] = None) -> List[VerificationReport]:
    """Run every registered check with the given bounds."""
    return run_checks(CHECKS, bounds)
