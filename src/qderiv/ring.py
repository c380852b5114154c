"""Exact dense polynomial arithmetic over arbitrary-precision integers.

``QPoly`` is the ring Z[q]; the variable name is presentational, so the
same type doubles as Z[x] for integer polynomials in a single variable.
``XQPoly`` nests one level: dense polynomials in an outer variable whose
coefficients are ``QPoly``.  Values are immutable after construction and
every operation returns a canonical result (no trailing zeros), so
equality and hashing are structural and instances are safe to share
between threads.  Short products run the schoolbook loop; long ones pack
each operand into one integer and multiply once (Kronecker substitution).

The q-combinatorial constants live here as well: ``q_bracket``,
``q_pochhammer``, Gaussian binomials and q-multinomials.  Gaussian
binomials are computed with the Pascal-type recurrence, keeping the whole
ring division-free.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, Sequence, Tuple


def _trimmed(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class QPoly:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of q^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _trimmed(coeffs)

    @staticmethod
    def zero() -> "QPoly":
        return _Q_ZERO

    @staticmethod
    def one() -> "QPoly":
        return _Q_ONE

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "QPoly":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        return QPoly((0,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "QPoly":
        if isinstance(other, int):
            other = QPoly((other,))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "QPoly":
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _Q_ZERO
            return QPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _Q_ZERO
        if len(a) * len(b) >= _KRONECKER_CUTOFF * (len(a) + len(b)):
            return QPoly(_kronecker_mul(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, d: int) -> "QPoly":
        """Multiply by q^d."""
        if d < 0:
            raise ValueError("shift must be nonnegative")
        if not self.coeffs:
            return _Q_ZERO
        return QPoly((0,) * d + self.coeffs)

    def reverse(self, d: int) -> "QPoly":
        """Return q^d * p(1/q); requires d >= degree."""
        if d < self.degree:
            raise ValueError("reversal degree %d below degree %d" % (d, self.degree))
        out = [0] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return QPoly(out)

    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "QPoly":
        return QPoly(int(c) for c in data["coeffs"])

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return "QPoly(%r)" % (self.coeffs,)


_Q_ZERO = QPoly()
_Q_ONE = QPoly((1,))

# Schoolbook costs one step per term pair, Kronecker a few per coefficient
# in or out, so the choice rests on len(a)*len(b) / (len(a)+len(b)).
_KRONECKER_CUTOFF = 7  # measured crossover: 14x14, 8x100, 6x400 (2-core Xeon, Python 3.11)


def _pack(cs: tuple, w: int) -> int:
    """Value of ``cs`` at 2^(8w); the positive and negative parts are packed apart."""
    value = 0
    if max(cs) > 0:
        data = b"".join([(c if c > 0 else 0).to_bytes(w, "little") for c in cs])
        value = int.from_bytes(data, "little")
    if min(cs) < 0:
        data = b"".join([(-c if c < 0 else 0).to_bytes(w, "little") for c in cs])
        value -= int.from_bytes(data, "little")
    return value


def _kronecker_mul(a: tuple, b: tuple) -> list:
    """Coefficients of a*b from one big-integer product (Kronecker substitution).

    Both operands are evaluated at X = 2^(8w), with w bytes a slot.  Every
    product coefficient is at most ``bound`` in size, and w is the least
    width with bound < X/2.  Adding X/2 to every slot makes each digit of
    the product nonnegative, so a coefficient reads back as its unsigned
    w-byte digit minus X/2.
    """
    max_a, max_b = max(map(abs, a)), max(map(abs, b))
    bound = min(sum(map(abs, a)) * max_b, max_a * sum(map(abs, b)))
    w = bound.bit_length() // 8 + 1
    n = len(a) + len(b) - 1
    halves = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    digits = (_pack(a, w) * _pack(b, w) + halves).to_bytes(n * w, "little")
    half = 1 << (8 * w - 1)
    from_bytes = int.from_bytes
    return [from_bytes(digits[i : i + w], "little") - half for i in range(0, n * w, w)]


class XQPoly:
    """Polynomial in an outer variable with ``QPoly`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[QPoly] = ()):
        self.coeffs = _trimmed(coeffs)

    @staticmethod
    def zero() -> "XQPoly":
        return _XQ_ZERO

    @staticmethod
    def one() -> "XQPoly":
        return _XQ_ONE

    @staticmethod
    def monomial(exp: int, coeff: QPoly = _Q_ONE) -> "XQPoly":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        return XQPoly((_Q_ZERO,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, exp: int) -> QPoly:
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return _Q_ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, XQPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "XQPoly":
        return XQPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "XQPoly":
        if isinstance(other, (int, QPoly)):
            other = XQPoly((_as_qpoly(other),))
        if not isinstance(other, XQPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XQPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "XQPoly":
        if isinstance(other, (int, QPoly)):
            other = XQPoly((_as_qpoly(other),))
        if not isinstance(other, XQPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "XQPoly":
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, QPoly)):
            s = _as_qpoly(other)
            if not s:
                return _XQ_ZERO
            return XQPoly(tuple(c * s for c in self.coeffs))
        if not isinstance(other, XQPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _XQ_ZERO
        out = [_Q_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = out[i + j] + ai * bj
        return XQPoly(out)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "XQPoly":
        return XQPoly(QPoly.from_json(c) for c in data["coeffs"])

    def __str__(self) -> str:
        return xpoly_str(self)

    def __repr__(self) -> str:
        return "XQPoly(%r)" % (self.coeffs,)


_XQ_ZERO = XQPoly()
_XQ_ONE = XQPoly((_Q_ONE,))


def _as_qpoly(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    return QPoly((value,))


# -- q-combinatorial constants ----------------------------------------


def q_bracket(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q_bracket needs n >= 0")
    return QPoly((1,) * n)


@lru_cache(maxsize=None)
def q_pochhammer(n: int) -> QPoly:
    """(q;q)_n = (1-q)(1-q^2)...(1-q^n), a signed integer polynomial."""
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    out = _Q_ONE
    for k in range(1, n + 1):
        out = out - out.shift(k)
    return out


# Entries [r, j] of the Gaussian Pascal triangle computed so far.  An entry
# is stored only after the two it is built from, so no call recurses.
# Entries are never removed and two threads filling the same entry store
# equal values, so the fill needs no lock.
_GAUSS: Dict[Tuple[int, int], QPoly] = {}


def gauss_binomial(n: int, m: int) -> QPoly:
    """Gaussian binomial via [n,m] = [n-1,m-1] + q^m [n-1,m], bottom-up.

    Only the band of columns [n, m] depends on is filled, starting at the
    highest row below n whose band is already known."""
    if not 0 <= m <= n:
        raise ValueError("gauss_binomial needs 0 <= m <= n")
    known = _GAUSS.get((n, m))
    if known is not None:
        return known

    def band(r: int) -> range:
        return range(max(0, m - (n - r)), min(r, m) + 1)

    low = n
    while low > 0 and any((low - 1, j) not in _GAUSS for j in band(low - 1)):
        low -= 1
    for r in range(low, n + 1):
        for j in band(r):
            if (r, j) not in _GAUSS:
                _GAUSS[r, j] = (
                    _Q_ONE
                    if j == 0 or j == r
                    else _GAUSS[r - 1, j - 1] + _GAUSS[r - 1, j].shift(j)
                )
    return _GAUSS[n, m]


def q_multinomial(n: int, parts: Sequence[int]) -> QPoly:
    """q-multinomial coefficient as an iterated product of Gaussian binomials."""
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise ValueError("parts must be nonnegative and sum to n")
    out = _Q_ONE
    rem = n
    for p in parts:
        out = out * gauss_binomial(rem, p)
        rem -= p
    return out


def int_binomial(n: int, m: int) -> int:
    if not 0 <= m <= n:
        raise ValueError("int_binomial needs 0 <= m <= n")
    return math.comb(n, m)


# -- pretty-printing ---------------------------------------------------


def poly_str(p: QPoly, var: str = "q") -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = head + var + ("" if e == 1 else "^%d" % e)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def xpoly_str(p: XQPoly, outer: str = "x", inner: str = "q") -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if not c:
            continue
        cs = poly_str(c, inner)
        if e == 0:
            body = cs
        else:
            power = outer + ("" if e == 1 else "^%d" % e)
            if c == _Q_ONE:
                body = power
            elif len(c.coeffs) - c.coeffs.count(0) == 1:
                body = "%s*%s" % (cs, power)
            else:
                body = "(%s)*%s" % (cs, power)
        parts.append(body)
    return " + ".join(parts)
