"""The three q-derivative polynomial families, each computed three ways.

Route 1 (recurrences): bottom-up filling of the triple-indexed tables
A_{n,k,a,b}, B_{n,k,a,b} and the composition-indexed table A_{n,c}.
Each step packs the polynomials of row n into ints with the codec of
``ring``, one slot of 8 bytes (or a wider multiple of 8, when a bound
computed on row n needs it) per coefficient, sums every target as ints,
summing each diagonal of a triple row once, and decodes each target once.

Route 2 (rewrite engines): iterated symbolic q-differentiation of formal
sums of monomials in scaled q-tangent/secant factors.  The symbols are
never normalized; coefficients are collected as they fall out.

Route 3 (oracles): brute-force statistics sums over t-permutations.

The routes are deliberately independent code paths; their agreement is
checked by the verification suite, not assumed.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from functools import lru_cache, partial
from typing import Dict, Iterator, List, NamedTuple, Tuple

from qderiv import tcomb
from qderiv.ring import QPoly, _pack_slots, _slot_width, _unpack_slots, q_multinomial
from qderiv.series import q_secant2_number, q_tan_sec_number
from qderiv.tcomb import enumerate_t_compositions, is_t_composition

KIND_A = "A"
KIND_B = "B"
KIND_AC = "Ac"

_ZERO = QPoly.zero()
_ONE = QPoly.one()


class PolyTable(NamedTuple):
    """Rows 0..n_max of one family, shared with every other view of it.

    Row n maps (k, a, b) to a polynomial for the triple families and the
    parts of a t-composition for ``Ac``.  Flat keys prepend n: (n, k, a, b)
    or (n, parts).  Rows are shared, so callers must not mutate them.
    """

    kind: str
    rows: Tuple[dict, ...]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def _flat(self, n: int, key) -> tuple:
        return (n, key) if self.kind == KIND_AC else (n,) + key

    def get(self, key) -> QPoly:
        n = key[0]
        if not 0 <= n < len(self.rows):
            return _ZERO
        return self.rows[n].get(key[1] if self.kind == KIND_AC else key[1:], _ZERO)

    def row(self, n: int) -> dict:
        return self.rows[n]

    def items(self) -> Iterator[Tuple[tuple, QPoly]]:
        """Flat ``(key, poly)`` pairs, row by row in insertion order."""
        for n, row in enumerate(self.rows):
            for key, poly in row.items():
                yield self._flat(n, key), poly

    def sorted_items(self) -> Iterator[Tuple[tuple, QPoly]]:
        """As ``items`` with each row sorted; compositions by part count first."""
        order = _comp_order if self.kind == KIND_AC else None
        for n, row in enumerate(self.rows):
            for key in sorted(row, key=order):
                yield self._flat(n, key), row[key]

    def aggregate_by_m(self, n: int) -> Dict[int, QPoly]:
        """Row sums grouped by a+b (triple tables) or by the part count mu."""
        out: Dict[int, QPoly] = {}
        for key, poly in self.rows[n].items():
            m = len(key) - 1 if self.kind == KIND_AC else key[1] + key[2]
            out[m] = out.get(m, _ZERO) + poly
        return out


def _comp_order(parts: Tuple[int, ...]) -> tuple:
    return (len(parts), parts)


# -- route 1: recurrences ------------------------------------------------


def _slot_bytes(row: dict, summands: int) -> int:
    """Slot width, in bytes, that holds every coefficient of the next row.

    A coefficient of a target is a sum of at most ``summands``
    coefficients of ``row``, all nonnegative, so it is at most ``summands``
    times the row's largest coefficient; the slot is the width that bound
    needs (``ring._slot_width``), rounded up to whole 8-byte words.
    """
    largest = max(max(poly.coeffs, default=0) for poly in row.values())
    return -(-_slot_width(summands * largest) // 8) * 8


def _diagonal_sums(packed: dict, k: int, d: int) -> List[int]:
    """Prefix sums of the packed row along the anti-diagonal a + b = d at one k.

    Entry i of the result sums the a < i, for i in 0..d+1, so the last
    entry is the diagonal's total.
    """
    acc = 0
    out = [acc]
    for a in range(0, d + 1):
        acc += packed.get((k, a, d - a), 0)
        out.append(acc)
    return out


def _fill_triple_row(prev: dict, n: int, relaxed_first_sum: bool) -> dict:
    """One recurrence step shared by the A and B triples.

    ``prev`` maps (k, a, b) of row n to polynomials; the result is row
    n+1.  The B variant relaxes the cap on the first sum (a' may reach
    a'+b'), which is the only difference between the two recurrences.

    Target (k', a', b') with m' = a' + b' sums row n along the
    anti-diagonals a + b = m' - 1 and a + b = m' + 1: the a below a cut at
    k = k' - 1 and the a from the cut on at k = k'.  Each diagonal's prefix
    sums are built once per k, and only those at k' - 1 and k' are kept;
    a range from the cut on is the diagonal's total less a prefix.  The
    sums run on packed polynomials (``ring._pack_slots``): a target adds
    distinct entries of row n, m' + 2 on the upper diagonal and at most m'
    on the lower, and m' <= n + 2, so 2n + 6 summands bound its slots.
    """
    w = _slot_bytes(prev, 2 * n + 6)
    packed = {key: _pack_slots(poly.coeffs, w) for key, poly in prev.items()}
    diagonals = range(-1, n + 4)
    heads = {d: _diagonal_sums(packed, -1, d) for d in diagonals}  # at k' - 1
    cur: dict = {}
    for kp in range(0, n + 1):
        sums = {d: _diagonal_sums(packed, kp, d) for d in diagonals}  # at k'
        shift = 8 * w * kp
        for mp in range(0, n + 3):
            below_head, below = heads[mp - 1], sums[mp - 1]
            above_head, above = heads[mp + 1], sums[mp + 1]
            below_total, above_total = below[-1], above[-1]
            for ap in range(0, mp + 1):
                acc = above_head[ap + 1] + above_total - above[ap + 1]
                if relaxed_first_sum or ap <= mp - 1:
                    acc += below_head[ap]
                if ap >= 1:
                    acc += below_total - below[ap]
                if acc:
                    cur[(kp, ap, mp - ap)] = QPoly(_unpack_slots(acc << shift, w))
        heads = sums
    return cur


def _fill_comp_row(row: dict, n: int) -> dict:
    """Composition-indexed row n+1, filled by part surgery on each target.

    Each target lists its sources in row n with their shifts and adds them
    as packed polynomials (``ring._pack_slots``).  A target c' of n + 1 has
    at most (c'_0 + 1)/2 sources from its first part, c'_i/2 from a later
    part of size at least 2 and one from a part of size 1, so at most n + 2
    in all, which bounds its slots.
    """
    w = _slot_bytes(row, n + 2)
    bits = 8 * w
    packed = {key: _pack_slots(poly.coeffs, w) for key, poly in row.items()}
    get = packed.get
    cur: dict = {}
    for cp in enumerate_t_compositions(n + 1):
        mp = len(cp) - 1
        c0, rest = cp[0], cp[1:]
        acc = 0
        for j in range(0, (c0 - 1) // 2 + 1):
            acc += get((2 * j, c0 - 2 * j - 1) + rest, 0) << (bits * 2 * j)
        prefix = 0
        for i in range(1, mp + 1):
            prefix += cp[i - 1]
            ci, head, tail = cp[i], cp[:i], cp[i + 1 :]
            for j in range(1, ci // 2 + 1):
                acc += get(head + (2 * j - 1, ci - 2 * j) + tail, 0) << (bits * (prefix + 2 * j - 1))
            if ci == 1 and i <= mp - 1:
                acc += get(head + tail, 0) << (bits * prefix)
        if acc:
            cur[cp] = QPoly(_unpack_slots(acc, w))
    return cur


# One growing row list per family: each row is computed once per process.
_ROWS: Dict[str, List[dict]] = {
    KIND_A: [{(0, 1, 0): _ONE}],
    KIND_B: [{(-1, 0, 0): _ONE}],
    KIND_AC: [{(0, 0): _ONE}],
}
_STEPS = {
    KIND_A: partial(_fill_triple_row, relaxed_first_sum=False),
    KIND_B: partial(_fill_triple_row, relaxed_first_sum=True),
    KIND_AC: _fill_comp_row,
}
_GROW_LOCK = threading.Lock()


def _recurrence_table(kind: str, n_max: int) -> PolyTable:
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = _ROWS[kind]
    with _GROW_LOCK:
        while len(rows) <= n_max:
            rows.append(_STEPS[kind](rows[-1], len(rows) - 1))
    return PolyTable(kind, tuple(rows[: n_max + 1]))


@lru_cache(maxsize=None)
def a_table(n_max: int) -> PolyTable:
    return _recurrence_table(KIND_A, n_max)


@lru_cache(maxsize=None)
def b_table(n_max: int) -> PolyTable:
    return _recurrence_table(KIND_B, n_max)


@lru_cache(maxsize=None)
def ac_table(n_max: int) -> PolyTable:
    return _recurrence_table(KIND_AC, n_max)


# -- route 2: symbolic rewrite engines -----------------------------------


def _accumulate(acc: dict, symbol, coeff: QPoly) -> None:
    cur = acc.get(symbol)
    acc[symbol] = coeff if cur is None else cur + coeff


def _step_triple(terms: dict, secant: bool) -> dict:
    # The secant engine's last sum runs one step further, absorbing the
    # derivative of the secant factor.  Its seed sits at k = -1, where
    # only the shifted-by-k+1 sums fire.
    nxt: dict = {}
    for (k, a, b), coeff in terms.items():
        ck = coeff.shift(k) if a else None
        ck1 = coeff.shift(k + 1)
        for i in range(0, a):
            _accumulate(nxt, (k, i, a + b - 1 - i), ck)
        for i in range(0, b):
            _accumulate(nxt, (k + 1, a + i, b - 1 - i), ck1)
        for i in range(1, a + 1):
            _accumulate(nxt, (k, i, a + b + 1 - i), ck)
        for i in range(1, b + 1 + secant):
            _accumulate(nxt, (k + 1, a + i, b + 1 - i), ck1)
    return {s: c for s, c in nxt.items() if c}


def _merge_parts(c: tuple, i: int) -> tuple:
    return c[: i - 1] + (c[i - 1] + 1 + c[i],) + c[i + 1 :]


def _insert_one(c: tuple, i: int) -> tuple:
    return c[:i] + (1,) + c[i:]


def _step_comp(terms: dict, secant: bool) -> dict:
    # Secant symbols are s-compositions (trailing zero part); the secant
    # factor differentiates into one extra insertion just before the zero.
    nxt: dict = {}
    for c, coeff in terms.items():
        m = len(c) - 1 - secant
        prefix = 0
        for i in range(1, m + 1):
            prefix += c[i - 1]
            shifted = coeff.shift(prefix)
            _accumulate(nxt, _merge_parts(c, i), shifted)
            _accumulate(nxt, _insert_one(c, i), shifted)
        if secant:
            _accumulate(nxt, _insert_one(c, m + 1), coeff.shift(sum(c)))
    return {s: c for s, c in nxt.items() if c}


def _rewrite(start, step, n: int) -> dict:
    terms = {start: _ONE}
    for _ in range(n):
        terms = step(terms)
    return terms


def rewrite_tan(n: int) -> dict:
    """n-fold q-derivative of the tangent symbol [0,1,0], as row n of A."""
    return _rewrite((0, 1, 0), partial(_step_triple, secant=False), n)


def rewrite_sec(n: int) -> dict:
    """n-fold q-derivative of the secant symbol <-1,0,0>, as row n of B."""
    return _rewrite((-1, 0, 0), partial(_step_triple, secant=True), n)


def rewrite_comp_tan(n: int) -> dict:
    """n-fold q-derivative of the empty composition symbol, as row n of Ac."""
    return _rewrite((0, 0), partial(_step_comp, secant=False), n)


def rewrite_comp_sec(n: int) -> dict:
    """n-fold q-derivative of the secant-weighted empty s-composition."""
    return _rewrite((0, 0), partial(_step_comp, secant=True), n)


# -- route 3: brute-force statistics oracles ------------------------------


def _insertion_tally(n: int) -> Tuple[Counter, Counter]:
    """Every permutation of 1..n, n >= 1, tallied by (descent word,
    position of 1, ides, imaj) and by (descent word, inv).

    S_k is built from S_{k-1} by inserting k at each position p.  With q
    the position of k - 1: inv gains the k - 1 - p letters after k; k - 1
    joins iligne (ides + 1, imaj + k - 1) exactly when p <= q; the letter 1
    moves right when p <= its position; and only the two bits around p
    change in the descent word.  A node of the explicit stack is one
    permutation of 1..k, k = len(desc) + 1, as (desc, position of 1, ides,
    imaj, inv, position of k); the children of the last inner level are
    tallied without being built.
    """
    if n == 1:
        return Counter({((), 0, 0, 0): 1}), Counter({((), 0): 1})
    by_pos, by_inv = Counter(), Counter()
    stack = [((), 0, 0, 0, 0, 0)]  # the permutation (1)
    while stack:
        desc, pos1, ides, imaj, inv, top = stack.pop()
        k = len(desc) + 2  # the letter to insert
        last = k == n
        for p in range(k):
            if p == 0:
                child = (True,) + desc
            elif p == k - 1:
                child = desc + (False,)
            else:
                child = desc[: p - 1] + (False, True) + desc[p:]
            if p <= top:
                c_ides, c_imaj = ides + 1, imaj + k - 1
            else:
                c_ides, c_imaj = ides, imaj
            c_pos1 = pos1 + 1 if p <= pos1 else pos1
            c_inv = inv + k - 1 - p
            if last:
                by_pos[(child, c_pos1, c_ides, c_imaj)] += 1
                by_inv[(child, c_inv)] += 1
            else:
                stack.append((child, c_pos1, c_ides, c_imaj, c_inv, p))
    return by_pos, by_inv


@lru_cache(maxsize=None)
def oracle_all(n: int) -> Tuple[dict, dict, dict]:
    """Statistics sums over all t-permutations of order n, one sweep.

    Returns row n of A, B and Ac, keyed like the recurrence rows: the
    imaj-generating triple rows and the inv-generating composition row.
    Callers bound n: ``cli.build_oracle`` by its brute-force bound and ``tcomb.BRUTE_FORCE_LIMIT``,
    verify's triple checks by ``_N_LIMITS``.

    Every permutation of S_n is visited once by ``_insertion_tally``, which
    builds S_n by inserting letters and carries each descent word, inv,
    ides and imaj, so this route shares nothing with the recurrences or the
    rewrite engines.  Which cuts are t-permutations depends only on the
    descent word, so permutations are tallied by (descent word, position of
    1, ides, imaj) and by (descent word, inv), and each class is expanded
    over its valid cuts once.
    """
    if n == 0:
        return {(0, 1, 0): _ONE}, {(-1, 0, 0): _ONE}, {(0, 0): _ONE}
    by_pos, by_inv = _insertion_tally(n)
    # block_of[parts][i]: the component holding position i of the cut
    block_of = {
        parts: tuple(b for b, p in enumerate(parts) for _ in range(p))
        for parts in enumerate_t_compositions(n)
    }
    # coefficient lists; imaj and inv are at most n(n-1)/2
    width = n * (n - 1) // 2 + 1
    a_acc, b_acc, c_acc = (defaultdict(lambda: [0] * width) for _ in range(3))
    for (desc, inv), count in by_inv.items():
        for parts in tcomb._valid_cuts(n, desc):
            c_acc[parts][inv] += count
    for (desc, pos1, ides, imaj), count in by_pos.items():
        for parts in tcomb._valid_cuts(n, desc):
            blk = block_of[parts][pos1]
            mu = len(parts) - 1
            a_acc[(ides, blk, mu - blk)][imaj] += count
            if parts[-1] == 0:
                b_acc[(ides, blk, mu - blk - 1)][imaj] += count
    return tuple(
        {key: QPoly(coeffs) for key, coeffs in acc.items()} for acc in (a_acc, b_acc, c_acc)
    )


# -- the product formula ---------------------------------------------------


def product_formula(n: int, parts: Tuple[int, ...]) -> QPoly:
    """Closed product form of the composition-indexed polynomials.

    q-multinomial of the parts times a tangent/secant coefficient per
    part, the last part contributing a second-kind secant coefficient.
    """
    if not is_t_composition(parts):
        raise ValueError("not a t-composition: %r" % (parts,))
    if sum(parts) != n:
        raise ValueError("composition sums to %d, not %d" % (sum(parts), n))
    if len(parts) == 1:
        return q_tan_sec_number(n)
    poly = q_multinomial(n, parts)
    for part in parts[:-1]:
        poly = poly * q_tan_sec_number(part)
    return poly * q_secant2_number(parts[-1])
