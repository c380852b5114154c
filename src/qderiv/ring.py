"""Exact dense polynomial arithmetic over arbitrary-precision integers.

``QPoly`` is the ring Z[q]; the variable name is presentational, so the
same type doubles as Z[x] for integer polynomials in a single variable.
``XQPoly`` nests one level: dense polynomials in an outer variable whose
coefficients are ``QPoly``.  Both share one dense-polynomial base that
holds construction, equality, hashing, addition, negation and the JSON
codec; each type adds only its coefficient ring, its product and its
printing.  Values are immutable after construction and every operation
returns a canonical result (no trailing zeros), so equality and hashing
are structural and instances are safe to share between threads.  Short
``QPoly`` products run the schoolbook loop; long ones pack each operand
into one integer and multiply once (Kronecker substitution).  The
packed-slot codec behind that product is the package's only one: the
series convolution and the recurrence rows of ``tables`` pack with it too,
and ``_slot_width`` is the one rule for a slot's width.

The q-combinatorial constants live here as well: ``q_bracket``,
``q_pochhammer``, Gaussian binomials and q-multinomials.  Gaussian
binomials are computed with the Pascal-type recurrence, keeping the whole
ring division-free.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import Dict, Iterable, Sequence, Tuple


class _DensePoly:
    """Dense polynomial over a coefficient ring; ``coeffs[i]`` is the
    coefficient of the i-th power of the variable.

    A subclass names its coefficient ring: ``_COEFF_ZERO``/``_COEFF_ONE``,
    the ``_SCALARS`` it accepts as constant polynomials, and the JSON form
    of one coefficient (``_coeff_to_json``).  It also brings its own
    ``__mul__`` and ``__str__``.  Equality is same-type only.
    """

    __slots__ = ("coeffs",)

    def __init_subclass__(cls):
        cls._ZERO, cls._ONE = cls(), cls((cls._COEFF_ONE,))

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls._ZERO

    @classmethod
    def one(cls):
        return cls._ONE

    @classmethod
    def monomial(cls, exp: int, coeff=None):
        """``coeff`` (default: the coefficient one) times the exp-th power."""
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((cls._COEFF_ZERO,) * exp + (cls._COEFF_ONE if coeff is None else coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __add__(self, other):
        cls = type(self)
        if not isinstance(other, cls):
            if not isinstance(other, cls._SCALARS):
                return NotImplemented
            other = cls((cls._COEFF_ZERO + other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return cls(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def to_json(self) -> dict:
        return {"coeffs": list(map(self._coeff_to_json, self.coeffs))}

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.coeffs)


class QPoly(_DensePoly):
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of q^i."""

    __slots__ = ()
    _COEFF_ZERO, _COEFF_ONE, _SCALARS = 0, 1, int
    _coeff_to_json = str

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

    def __str__(self) -> str:
        return poly_str(self)


_Q_ZERO, _Q_ONE = QPoly.zero(), QPoly.one()

# Schoolbook costs one step per term pair, Kronecker a few per coefficient
# in or out, so the choice rests on len(a)*len(b) / (len(a)+len(b)).
_KRONECKER_CUTOFF = 7  # measured crossover: 14x14, 8x100, 6x400 (2-core Xeon, Python 3.11)

# ``array("Q")`` holds native-order words; packed values are little-endian
_BIG_ENDIAN = sys.byteorder == "big"


def _slot_width(bound: int) -> int:
    """Least slot width w, in bytes, with bound < 2^(8w - 1): a w-byte slot
    holds every coefficient of size at most ``bound``, signed or not."""
    return bound.bit_length() // 8 + 1


def _pack_slots(cs: Sequence[int], w: int) -> int:
    """Value of ``cs`` at X = 2^(8w): coefficient i fills the w bytes from
    byte w*i on, so each must be nonnegative and below X.  A sum of packed
    values, shifted by X^s as ``<< 8*w*s``, is the packed coefficient sum
    while each of its coefficients stays below X: no slot carries."""
    if w == 8:
        words = array("Q", cs)
        if _BIG_ENDIAN:
            words.byteswap()
        return int.from_bytes(words, "little")
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")


def _unpack_slots(value: int, w: int) -> list:
    """The w-byte slots of a nonnegative ``value``, lowest first, up to its
    highest nonzero slot."""
    data = value.to_bytes(-(-value.bit_length() // (8 * w)) * w, "little")
    if w == 8:
        words = array("Q", data)
        if _BIG_ENDIAN:
            words.byteswap()
        return words.tolist()
    from_bytes = int.from_bytes
    return [from_bytes(data[i : i + w], "little") for i in range(0, len(data), w)]


def _pack(cs: Sequence[int], w: int) -> int:
    """Value of ``cs`` at 2^(8w); the positive and negative parts are packed apart."""
    value = 0
    if max(cs, default=0) > 0:
        value = _pack_slots([c if c > 0 else 0 for c in cs], w)
    if min(cs, default=0) < 0:
        value -= _pack_slots([-c if c < 0 else 0 for c in cs], w)
    return value


def _kronecker_mul(a: tuple, b: tuple) -> list:
    """Coefficients of a*b from one big-integer product (Kronecker substitution).

    Both operands are evaluated at X = 2^(8w), with w bytes a slot.  Every
    product coefficient is at most ``bound`` in size, and w is the least
    width with bound < X/2 (``_slot_width``), so ``_unpack`` reads the
    product back.
    """
    max_a, max_b = max(map(abs, a)), max(map(abs, b))
    bound = min(sum(map(abs, a)) * max_b, max_a * sum(map(abs, b)))
    w = _slot_width(bound)
    return _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w)


def _unpack(value: int, n: int, w: int) -> list:
    """The n coefficients of ``value``, a polynomial evaluated at X = 2^(8w)
    whose coefficients are all below X/2 in size.  Adding X/2 to every slot
    makes each digit nonnegative and nonzero, so exactly n slots read back
    and a coefficient is its unsigned w-byte digit minus X/2."""
    halves = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    half = 1 << (8 * w - 1)
    return [digit - half for digit in _unpack_slots(value + halves, w)]


class XQPoly(_DensePoly):
    """Polynomial in an outer variable with ``QPoly`` coefficients."""

    __slots__ = ()
    _COEFF_ZERO, _COEFF_ONE, _SCALARS = _Q_ZERO, _Q_ONE, (int, QPoly)
    _coeff_to_json = staticmethod(QPoly.to_json)

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            if not other:
                return _XQ_ZERO
            return XQPoly(tuple(c * other for c in self.coeffs))
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

    def __str__(self) -> str:
        return xpoly_str(self)


_XQ_ZERO = XQPoly.zero()


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
