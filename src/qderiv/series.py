"""Truncated divided-power formal series with exact coefficients.

A series is stored as its coefficients f_0..f_N with the weights kept
implicit: f(u) = sum f_n u^n/(q;q)_n in q-mode, or sum f_n u^n/n! in
classical mode.  Multiplication and inversion then share one weighted
convolution (Gaussian binomial weights in q-mode, integer binomials in
classical mode), addition and subtraction are coefficient-wise, the
q-derivative D_q f(u) = (f(u) - f(qu))/u becomes a pure index shift, and
every coefficient stays a polynomial: no rational arithmetic anywhere.

Coefficients live in one of three rings, tagged "int" (Python ints),
"q" (``QPoly``) or "xq" (``XQPoly``).  q-mode requires the "q" or "xq"
ring.  Promotion between rings is explicit via ``promote``.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import zip_longest
from typing import Dict, Iterable, Sequence

from qderiv.ring import QPoly, XQPoly, _pack, _slot_width, _unpack, gauss_binomial

Q_MODE = "q"
CLASSICAL_MODE = "classical"

RING_INT = "int"
RING_Q = "q"
RING_XQ = "xq"

_ZERO = {RING_INT: 0, RING_Q: QPoly.zero(), RING_XQ: XQPoly.zero()}
_ONE = {RING_INT: 1, RING_Q: QPoly.one(), RING_XQ: XQPoly.one()}

# A q-ring unit (see ``DividedSeries._convolve``) whose product has fewer
# coefficients than this takes QPoly's own products.  Measured on a 2-core
# Xeon, Python 3.11: with every unit packed, the series identities at order
# 10 (many short products) ran 25 % slower than with none packed; from 32
# on they run as fast as with none, and sec_q, tan_q and Sec_q at orders
# 14-60 build as fast as with every unit packed.
_PACKED_FROM = 32


class _Operand:
    """One operand of a ``mul`` or ``invert`` call.  For the packed q-ring
    units, each coefficient is packed once per slot width and its L1 norm
    taken once, for that call only; ``invert`` appends to ``coeffs`` as it
    goes."""

    __slots__ = ("coeffs", "_packed", "_l1")

    def __init__(self, coeffs: Sequence):
        self.coeffs, self._packed, self._l1 = coeffs, {}, {}

    def size(self, i: int) -> int:
        return len(self.coeffs[i].coeffs)

    def l1(self, i: int) -> int:
        norm = self._l1.get(i)
        if norm is None:
            norm = self._l1[i] = sum(map(abs, self.coeffs[i].coeffs))
        return norm

    def packed(self, i: int, w: int) -> int:
        value = self._packed.get((i, w))
        if value is None:
            value = self._packed[i, w] = _pack(self.coeffs[i].coeffs, w)
        return value


class DividedSeries:
    """Immutable truncated series in divided-power form."""

    __slots__ = ("mode", "ring", "coeffs")

    def __init__(self, mode: str, ring: str, coeffs: Iterable):
        if mode not in (Q_MODE, CLASSICAL_MODE):
            raise ValueError("unknown mode %r" % (mode,))
        if ring not in _ZERO:
            raise ValueError("unknown ring %r" % (ring,))
        if mode == Q_MODE and ring == RING_INT:
            raise ValueError("q-mode requires the q or xq coefficient ring")
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series stores at least the order-0 coefficient")
        self.mode = mode
        self.ring = ring
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError("coefficient %d beyond order %d" % (n, self.order))
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DividedSeries)
            and self.mode == other.mode
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.mode, self.ring, self.coeffs))

    def _check_compatible(self, other: "DividedSeries") -> None:
        if self.mode != other.mode or self.ring != other.ring:
            raise ValueError(
                "series mismatch: (%s,%s) vs (%s,%s)"
                % (self.mode, self.ring, other.mode, other.ring)
            )

    def _pointwise(self, other: "DividedSeries", op) -> "DividedSeries":
        self._check_compatible(other)
        return DividedSeries(self.mode, self.ring, tuple(map(op, self.coeffs, other.coeffs)))

    def add(self, other: "DividedSeries") -> "DividedSeries":
        return self._pointwise(other, operator.add)

    def sub(self, other: "DividedSeries") -> "DividedSeries":
        return self._pointwise(other, operator.sub)

    def _convolve(self, n: int, start: int, f: "_Operand", g: "_Operand"):
        """sum_{k=start..n} weight(n, k) * f_k * g_(n-k), with f this series.

        The terms k and n - k, whose weights are equal, are one unit:
        weight(n, k) * (f_k g_(n-k) + f_(n-k) g_k).  A unit adds its terms
        one at a time with the ring's own products, unless it is a q-ring
        unit whose product has at least ``_PACKED_FROM`` coefficients.
        Those units are packed: a unit's coefficients are below the size
        bound max|weight| * sum L1(f_i) * L1(g_(n-i)) over its terms, the
        units are grouped by the slot width their bound needs
        (``ring._slot_width``), each group is sized for the sum of its
        bounds, its packed products (``ring._pack``) are added into one
        int, and that int is decoded once (``ring._unpack``).  Narrow units keep narrow slots, and a
        coefficient costs one decode per group, not one per term.
        """
        weight = gauss_binomial if self.mode == Q_MODE else math.comb
        acc = _ZERO[self.ring]
        groups: Dict[int, list] = {}
        for k in range(start, n + 1):
            j = n - k
            if start <= j < k:
                continue  # term k shares term j's weight, [n, k] = [n, j]
            ks = [i for i in ((k, j) if k < j else (k,)) if f.coeffs[i] and g.coeffs[n - i]]
            if not ks:
                continue
            wk = weight(n, k)
            if self.ring == RING_Q:
                wc = wk.coeffs if self.mode == Q_MODE else (wk,)
                size = len(wc) - 2 + max(f.size(i) + g.size(n - i) for i in ks)
                if size >= _PACKED_FROM:
                    bound = max(wc) * sum(f.l1(i) * g.l1(n - i) for i in ks)
                    groups.setdefault(_slot_width(bound), []).append((bound, wc, ks, size))
                    continue
            for i in ks:
                acc = acc + wk * (f.coeffs[i] * g.coeffs[n - i])
        if not groups:
            return acc
        parts = []
        for terms in groups.values():
            w = _slot_width(sum(term[0] for term in terms))
            total = size = 0
            for _, wc, ks, unit_size in terms:
                inner = sum(f.packed(i, w) * g.packed(n - i, w) for i in ks)
                total += _pack(wc, w) * inner
                size = max(size, unit_size)
            parts.append(_unpack(total, size, w))
        return QPoly(map(sum, zip_longest(acc.coeffs, *parts, fillvalue=0)))

    def mul(self, other: "DividedSeries") -> "DividedSeries":
        self._check_compatible(other)
        order = min(self.order, other.order)
        f, g = _Operand(self.coeffs), _Operand(other.coeffs)
        out = [self._convolve(n, 0, f, g) for n in range(order + 1)]
        return DividedSeries(self.mode, self.ring, out)

    def invert(self) -> "DividedSeries":
        """Multiplicative inverse; requires constant coefficient 1."""
        one = _ONE[self.ring]
        if self.coeffs[0] != one:
            raise ValueError("only series with constant coefficient 1 are inverted")
        inv = [one]
        f, g = _Operand(self.coeffs), _Operand(inv)
        for n in range(1, self.order + 1):
            inv.append(-self._convolve(n, 1, f, g))
        return DividedSeries(self.mode, self.ring, inv)

    def scale(self, scalar) -> "DividedSeries":
        """Multiply every coefficient by a ring scalar."""
        return DividedSeries(self.mode, self.ring, tuple(scalar * c for c in self.coeffs))

    def d_q(self) -> "DividedSeries":
        """q-derivative: an index shift in divided-power form."""
        if self.mode != Q_MODE:
            raise ValueError("d_q is defined on q-mode series")
        if self.order == 0:
            raise ValueError("d_q of an order-0 series is empty")
        return DividedSeries(self.mode, self.ring, self.coeffs[1:])

    def scale_arg(self, k: int) -> "DividedSeries":
        """Substitute u -> q^k u, i.e. multiply f_n by q^(k n)."""
        if self.mode != Q_MODE:
            raise ValueError("scale_arg is defined on q-mode series")
        if k < 0:
            raise ValueError("scale_arg needs k >= 0")
        if k == 0:
            return self
        return DividedSeries(
            self.mode,
            self.ring,
            tuple(QPoly.monomial(k * n) * c for n, c in enumerate(self.coeffs)),
        )

    def promote(self, ring: str) -> "DividedSeries":
        """Embed coefficients into the next larger ring: int -> q, q -> xq."""
        if ring == self.ring:
            return self
        if self.ring == RING_INT and ring == RING_Q:
            coeffs = tuple(QPoly((c,)) for c in self.coeffs)
        elif self.ring == RING_Q and ring == RING_XQ:
            coeffs = tuple(XQPoly((c,)) if c else XQPoly.zero() for c in self.coeffs)
        else:
            raise ValueError("cannot promote ring %s to %s" % (self.ring, ring))
        return DividedSeries(self.mode, ring, coeffs)

    def to_json(self) -> dict:
        if self.ring == RING_INT:
            coeffs = [str(c) for c in self.coeffs]
        else:
            coeffs = [c.to_json() for c in self.coeffs]
        return {"mode": self.mode, "order": self.order, "ring": self.ring, "coeffs": coeffs}

    def __repr__(self) -> str:
        return "DividedSeries(%s, %s, order=%d)" % (self.mode, self.ring, self.order)


def zero_series(order: int, mode: str = Q_MODE, ring: str = RING_Q) -> DividedSeries:
    return DividedSeries(mode, ring, (_ZERO[ring],) * (order + 1))


def one_series(order: int, mode: str = Q_MODE, ring: str = RING_Q) -> DividedSeries:
    return DividedSeries(mode, ring, (_ONE[ring],) + (_ZERO[ring],) * order)


# -- q-exponentials and q-trigonometric constructors -------------------


def e_q(order: int) -> DividedSeries:
    """First q-exponential: every divided coefficient is 1."""
    return DividedSeries(Q_MODE, RING_Q, (QPoly.one(),) * (order + 1))


def E_q(order: int) -> DividedSeries:
    """Second q-exponential: f_n = q^(n(n-1)/2)."""
    return DividedSeries(
        Q_MODE, RING_Q, tuple(QPoly.monomial(n * (n - 1) // 2) for n in range(order + 1))
    )


def _alternating(order: int, odd: bool, exponent) -> DividedSeries:
    coeffs = []
    for n in range(order + 1):
        if n % 2 == (0 if not odd else 1):
            m = n // 2
            coeffs.append(QPoly.monomial(exponent(n), -1 if m % 2 else 1))
        else:
            coeffs.append(QPoly.zero())
    return DividedSeries(Q_MODE, RING_Q, coeffs)


def sin_q(order: int) -> DividedSeries:
    return _alternating(order, odd=True, exponent=lambda n: 0)


def cos_q(order: int) -> DividedSeries:
    return _alternating(order, odd=False, exponent=lambda n: 0)


def Sin_q(order: int) -> DividedSeries:
    return _alternating(order, odd=True, exponent=lambda n: n * (n - 1) // 2)


def Cos_q(order: int) -> DividedSeries:
    return _alternating(order, odd=False, exponent=lambda n: n * (n - 1) // 2)


@lru_cache(maxsize=None)
def tan_q(order: int) -> DividedSeries:
    return sin_q(order).mul(sec_q(order))


@lru_cache(maxsize=None)
def sec_q(order: int) -> DividedSeries:
    return cos_q(order).invert()


@lru_cache(maxsize=None)
def Sec_q(order: int) -> DividedSeries:
    return Cos_q(order).invert()


def Tan_q(order: int) -> DividedSeries:
    """Quotient of the second q-sine/cosine; equals ``tan_q``."""
    return Sin_q(order).mul(Sec_q(order))


def classical_tan(order: int) -> DividedSeries:
    return classical_sin(order).mul(classical_sec(order))


@lru_cache(maxsize=None)
def classical_cos(order: int) -> DividedSeries:
    return DividedSeries(
        CLASSICAL_MODE,
        RING_INT,
        tuple((-1) ** (n // 2) if n % 2 == 0 else 0 for n in range(order + 1)),
    )


@lru_cache(maxsize=None)
def classical_sin(order: int) -> DividedSeries:
    return DividedSeries(
        CLASSICAL_MODE,
        RING_INT,
        tuple((-1) ** (n // 2) if n % 2 else 0 for n in range(order + 1)),
    )


@lru_cache(maxsize=None)
def classical_sec(order: int) -> DividedSeries:
    return classical_cos(order).invert()


@lru_cache(maxsize=None)
def scaled(series, k: int, order: int) -> DividedSeries:
    """``series(order)`` at q^k u, e.g. tan_q(q^k u); cached for reuse
    across identity checks."""
    return series(order).scale_arg(k)


@lru_cache(maxsize=None)
def scaled_tan_power(k: int, e: int, order: int) -> DividedSeries:
    """(tan_q(q^k u))^e."""
    if e == 0:
        return one_series(order)
    return scaled_tan_power(k, e - 1, order).mul(scaled(tan_q, k, order))


def tan_product(parts, order: int) -> DividedSeries:
    """Product of tan_q(q^s u) over the proper prefix sums s of ``parts``.

    The last part never contributes; a single-part sequence yields the
    unit series.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("tan_product needs at least one part")
    out = one_series(order)
    s = 0
    for p in parts[:-1]:
        s += p
        out = out.mul(scaled(tan_q, s, order))
    return out


# -- named coefficients -------------------------------------------------


@lru_cache(maxsize=None)
def q_tangent_number(n: int) -> QPoly:
    """Divided coefficient of u^n in tan_q (n odd)."""
    if n % 2 == 0:
        raise ValueError("q-tangent numbers have odd index")
    return tan_q(n).coefficient(n)


@lru_cache(maxsize=None)
def q_secant_number(n: int) -> QPoly:
    """Divided coefficient of u^n in sec_q = 1/cos_q (n even)."""
    if n % 2:
        raise ValueError("q-secant numbers have even index")
    return sec_q(n).coefficient(n)


@lru_cache(maxsize=None)
def q_secant2_number(n: int) -> QPoly:
    """Divided coefficient of u^n in the second q-secant 1/Cos_q (n even)."""
    if n % 2:
        raise ValueError("second q-secant numbers have even index")
    return Sec_q(n).coefficient(n)


def q_tan_sec_number(n: int) -> QPoly:
    """Coefficient family A_n: q-tangent number for odd n, q-secant for even."""
    return q_tangent_number(n) if n % 2 else q_secant_number(n)
