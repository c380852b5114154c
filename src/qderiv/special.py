"""Specializations: integer triangles, derivative polynomials in one
variable, the (t,q)-tangent/secant layer, the q-Eulerian refinement,
diagonal closed forms and the q-Springer polynomials.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from qderiv.ring import QPoly, XQPoly, q_bracket
from qderiv.series import DividedSeries, classical_cos, classical_sin, one_series, tan_q
from qderiv.tables import PolyTable, a_table, b_table

_ZERO = QPoly.zero()
_ONE = QPoly.one()


def _triangle(d: int, n_max: int) -> Tuple[Dict[int, int], ...]:
    """Rows 0..n_max of t(n+1,m) = (m-d) t(n,m-1) + (m+1) t(n,m+1), t(0,m) = [m=d]."""
    rows = [{d: 1}]
    for n in range(n_max):
        prev = rows[-1]
        row: Dict[int, int] = {}
        for m in range(n + 3):
            value = (m - d) * prev.get(m - 1, 0) + (m + 1) * prev.get(m + 1, 0)
            if value:
                row[m] = value
        rows.append(row)
    return tuple(rows)


def small_triangles(n_max: int) -> Tuple[Tuple[Dict[int, int], ...], Tuple[Dict[int, int], ...]]:
    """Integer derivative-polynomial triangles, as rows ``rows[n][m]``
    holding the nonzero entries in increasing m.

    a(n+1,m) = (m-1) a(n,m-1) + (m+1) a(n,m+1), seeded at a(0,m) = [m=1];
    b(n+1,m) = m b(n,m-1) + (m+1) b(n,m+1), seeded at b(0,m) = [m=0].
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return _triangle(1, n_max), _triangle(0, n_max)


def hoffman_polys(n_max: int) -> Tuple[Tuple[QPoly, ...], Tuple[QPoly, ...]]:
    """Derivative polynomials in one variable, assembled from the triangles."""
    def polys(rows) -> Tuple[QPoly, ...]:
        return tuple(QPoly(row.get(m, 0) for m in range(max(row) + 1)) for row in rows)

    tri_a, tri_b = small_triangles(n_max)
    return polys(tri_a), polys(tri_b)


# -- (t,q)-tangent and secant ---------------------------------------------


def _first_column(table: PolyTable, n: int) -> XQPoly:
    """Row n's entries with a = b = 0, as a polynomial in t with t^(k+1) for k."""
    coeffs = {k + 1: poly for (k, a, b), poly in table.row(n).items() if a == 0 and b == 0}
    top = max(coeffs, default=0)
    return XQPoly(coeffs.get(j, _ZERO) for j in range(top + 1))


def tq_tangent(n: int) -> XQPoly:
    """Assemble the (t,q)-tangent polynomial from the first table column."""
    if n % 2 == 0:
        raise ValueError("(t,q)-tangent polynomials have odd index")
    return _first_column(a_table(n), n)


def tq_secant(n: int) -> XQPoly:
    """Assemble the (t,q)-secant polynomial from the first table column.

    The empty order is the single empty permutation, contributing t.
    """
    if n % 2:
        raise ValueError("(t,q)-secant polynomials have even index")
    if n == 0:
        return XQPoly((_ZERO, _ONE))
    return _first_column(b_table(n), n)


# -- q-Eulerian polynomials and their refinement ---------------------------


def carlitz_table(n_max: int) -> Tuple[Dict[int, QPoly], ...]:
    """q-Eulerian coefficients by descent count, from their own recurrence,
    as rows ``rows[n][j]`` holding the nonzero entries."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = [{0: _ONE}]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row: Dict[int, QPoly] = {}
        for j in range(0, n):
            stay = q_bracket(j + 1) * prev.get(j, _ZERO)
            move = q_bracket(n - j).shift(j) * prev.get(j - 1, _ZERO) if j >= 1 else _ZERO
            val = stay + move
            if val:
                row[j] = val
        rows.append(row)
    return tuple(rows)


def carlitz_refinement(n: int) -> Dict[Tuple[int, int], QPoly]:
    """Refined coefficients, keyed (k, a), read off the super-diagonal a+b = n+1."""
    return {(k, a): poly for (k, a, b), poly in a_table(n).row(n).items() if a + b == n + 1}


def carlitz_refined_table(n_max: int) -> Tuple[Dict[Tuple[int, int], QPoly], ...]:
    """The same refinement from its standalone two-index recurrence, as rows
    ``rows[n][(k, a)]``."""
    rows = [{(0, 1): _ONE}]
    for n in range(n_max):
        prev = rows[-1]
        row: Dict[Tuple[int, int], QPoly] = {}
        for kp in range(0, n + 2):
            for ap in range(0, n + 3):
                acc = _ZERO
                if ap - 1 <= n:
                    for a in range(0, ap):
                        acc = acc + prev.get((kp - 1, a), _ZERO)
                if ap >= 1:
                    for a in range(ap, n + 2):
                        acc = acc + prev.get((kp, a), _ZERO)
                if acc:
                    row[(kp, ap)] = acc.shift(kp)
        rows.append(row)
    return tuple(rows)


# -- diagonal closed forms ---------------------------------------------------


class DiagonalForms(NamedTuple):
    super_a: QPoly
    sub_a: Optional[QPoly]
    sub_b: Optional[QPoly]


def _bracket_product(lo: int, hi: int) -> QPoly:
    out = _ONE
    for i in range(lo, hi + 1):
        out = out * q_bracket(i)
    return out


def diagonal_closed_forms(n: int) -> DiagonalForms:
    """Closed products for the two top diagonals of the triple tables.

    The sub-diagonal forms require n >= 3; below that they are None.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    super_a = _bracket_product(1, n)
    sub_a = None
    sub_b = None
    if n >= 3:
        tail = _bracket_product(4, n)
        sub_a = q_bracket(2) * QPoly((1, n - 1, 1)) * tail
        sub_b = QPoly((1, n - 1, n - 1)) * tail
    return DiagonalForms(super_a, sub_a, sub_b)


# -- q-Springer polynomials ---------------------------------------------------


def springer_poly_from_tables(n: int) -> QPoly:
    """Total row sum of the trailing-empty table: the outer variable at 1."""
    out = _ZERO
    for poly in b_table(n).aggregate_by_m(n).values():
        out = out + poly
    return out


def springer_poly_from_series(secant: DividedSeries) -> QPoly:
    """Divided coefficient n of secant(u) / (1 - tan_q(u)), n the order of
    ``secant``: the q-Springer polynomial for sec_q, its second-secant
    variant for Sec_q."""
    n = secant.order
    denom = one_series(n).sub(tan_q(n))
    return secant.mul(denom.invert()).coefficient(n)


def classical_springer_numbers(n_max: int) -> Tuple[int, ...]:
    """Springer numbers from the exponential generating function 1/(cos - sin)."""
    denom = classical_cos(n_max).sub(classical_sin(n_max))
    return tuple(denom.invert().coeffs)
