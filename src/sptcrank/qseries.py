"""Builders for the named q-series of the verification pipeline.

Covers the infinite-product prefixes (q^a; q^b)_oo, the alternating
theta-quotient sums X^(m), Y^(m), Z^(m), the generating functions of
M_C1(m, .) and M_C5(m, .), and the finite T-series decomposition used to
settle the n <= 20m window.

Every outer summation includes a term exactly when its minimal exponent is
at most the truncation order; all later exponents of that term are larger,
so the truncation is exact with no heuristic slack.

M_C1 and M_C5 share one kernel, P2 = 1/(q^2; q^2)_oo = sum_k p(k) q^(2k):

    sum_n M_C1(m, n) q^n = P2 * (inner difference of X^(m)),
    sum_n M_C5(m, n) q^n = P2 * Y^(m),

and each of those sums is a signed sum of terms q^a / (1 - q^b).  P2 comes
from Euler's pentagonal-number recurrence in O(N^1.5) and is cached per
order N; each series is then a signed sum of O(sqrt N) shifted copies of
P2 / (1 - q^b), each built in O(N), so a series costs O(N^1.5) additions.

The sweeps build a series for a run of consecutive m.  Every term
s * q^a / (1 - q^b) of X^(m), Y^(m), Z^(m), T and the T-decomposition
tables has an exponent a that grows by exactly its modulus b per unit of
m, and

    q^(a+b) / (1 - q^b) = q^a / (1 - q^b) - q^a,

so each step m -> m+1 subtracts s * q^a(m) for each term with a(m) <= N.
Terms only leave as m grows.  A run generates its terms once, for the
direct build at its first m, and each step carries every live term
(a, b, s) on to (a + b, b, s); _sweep is the one stepping loop.
lambert_sweep steps the plain sums: one monomial per term, with no
division.  mc_sweep steps their products with P2: one shifted copy of P2
per term.  It starts from the first sums of X^(m) and Y^(m) and the
shared Z^(m), which both families add.  Its series are PackedSeries, two
ints of fixed-width fields each, highest power first, so q^a times P2 is
a right shift that drops every field past q^N: a step costs one shift and
one subtraction of whole ints per term and nonzero part of P2 (P2's
positive and negative parts are kept apart, as a right shift is exact
only on nonnegative fields), and one AND tells whether a series has a
negative coefficient.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial
from itertools import chain, islice, repeat
from operator import add, sub
from typing import NamedTuple

from .series import TruncatedSeries, divide_by_one_minus_qk, over_one_minus_qk


def euler_product(offset: int, step: int, order: int) -> TruncatedSeries:
    """Truncated prefix of prod_{j>=0} (1 - q^(offset + j*step)).

    Factors whose exponent exceeds the order are omitted; they cannot
    affect any retained coefficient.
    """
    if offset < 1:
        raise ValueError("offset must be >= 1 (offset 0 makes the product vanish)")
    if step < 1:
        raise ValueError("step must be >= 1")
    out = [0] * (order + 1)
    out[0] = 1
    e = offset
    while e <= order:
        # multiply in place by (1 - q^e)
        for i in range(order, e - 1, -1):
            out[i] -= out[i - e]
        e += step
    return TruncatedSeries(order, tuple(out))


def _lambert_terms(order: int, exponent, modulus, sign: int):
    """Terms (a, b, s) of sign * sum_{n>=1} (-1)^n q^exponent(n) / (1 - q^modulus(n)).

    Each term is s * q^a / (1 - q^b); terms enter while a <= order.
    """
    n = 1
    while (a := exponent(n)) <= order:
        yield a, modulus(n), -sign if n % 2 else sign
        n += 1


def _z_terms(m: int, order: int):
    """Z^(m) = -sum_{n>=1} (-1)^n q^(n(n+1)/2+mn) / (1-q^n); also the second
    sum of both X^(m) and Y^(m)."""
    return _lambert_terms(order, lambda n: n * (n + 1) // 2 + m * n, lambda n: n, -1)


def _x_lead_terms(m: int, order: int):
    """The first sum of X^(m)'s inner difference: exponents n(3n+1)+2mn over 1-q^(2n)."""
    return _lambert_terms(order, lambda n: n * (3 * n + 1) + 2 * m * n, lambda n: 2 * n, 1)


def _y_lead_terms(m: int, order: int):
    """The first sum of Y^(m): exponents n(n+1)+2mn over 1-q^(2n)."""
    return _lambert_terms(order, lambda n: n * (n + 1) + 2 * m * n, lambda n: 2 * n, 1)


def _c1_terms(m: int, order: int):
    """The inner difference of X^(m): its first sum plus Z^(m)."""
    return chain(_x_lead_terms(m, order), _z_terms(m, order))


def _c5_terms(m: int, order: int):
    """Y^(m): its first sum plus Z^(m)."""
    return chain(_y_lead_terms(m, order), _z_terms(m, order))


def _lambert_list(terms, order: int) -> list:
    """sum of s * q^a / (1 - q^b) over the terms, truncated at `order`, as
    a coefficient list.

    The one loop that expands terms: X, Y, Z, T, the T-components and R2
    all go through it, directly or as a sweep's start.  A term whose step b
    exceeds the order is the monomial s * q^a.
    """
    acc = [0] * (order + 1)
    for a, b, s in terms:
        acc[a::b] = map(add, acc[a::b], repeat(s))
    return acc


def _lambert_series(terms, order: int) -> TruncatedSeries:
    return TruncatedSeries(order, tuple(_lambert_list(terms, order)))


def y_series(m: int, order: int) -> TruncatedSeries:
    """Generating series of Y^(m): the difference of two alternating
    Lambert-type sums, with exponents n(n+1)+2mn over 1-q^(2n) and
    n(n+1)/2+mn over 1-q^n."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return _lambert_series(_c5_terms(m, order), order)


def z_series(m: int, order: int) -> TruncatedSeries:
    """Generating series of Z^(m) = -sum_{n>=1} (-1)^n q^(n(n+1)/2+mn)/(1-q^n)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return _lambert_series(_z_terms(m, order), order)


def x_inner_series(m: int, order: int) -> TruncatedSeries:
    """The parenthesized difference inside the X^(m) definition (before 1/(1-q^2))."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return _lambert_series(_c1_terms(m, order), order)


def x_series(m: int, order: int) -> TruncatedSeries:
    """Generating series of X^(m): 1/(1-q^2) times the inner difference."""
    return divide_by_one_minus_qk(x_inner_series(m, order), 2)


@lru_cache(maxsize=4)
def _p2_kernel(order: int) -> tuple:
    """Coefficients of P2 = 1/(q^2; q^2)_oo up to q^order.

    P2 holds the partition number p(k) at q^(2k) and 0 at odd powers; p(k)
    comes from Euler's pentagonal-number recurrence
    p(k) = sum_{j>=1} (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)).
    """
    half = order // 2
    p = [1] + [0] * half
    for k in range(1, half + 1):
        total = 0
        j = 1
        while (g := j * (3 * j - 1) // 2) <= k:
            pair = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += pair if j % 2 else -pair
            j += 1
        p[k] = total
    out = [0] * (order + 1)
    out[::2] = p
    return tuple(out)


# -- packed series: P2 times Lambert sums in fixed-width integer fields -------
#
# A series c_0..c_N is held as two ints, one per parity of the power of q,
# each highest power first: the int for parity p has F_p fields, width bits
# wide, and c_(2i+p) is its signed field F_p - 1 - i, so c_0 (or c_1) is
# the top field and the last coefficient of the parity is field 0.  The int
# is sum_i c_(2i+p) << (width*(F_p - 1 - i)) reduced modulo 2^(width*F_p);
# the reduction respects + and -, so the builds add and subtract whole ints
# and only _families reduces them.  Decoding is exact while every
# |c| < 2^(width-1), the width being chosen to make it so.
#
# Times q^a, a series moves a//2 fields down, so a shifted copy is a right
# shift, and the fields that would pass q^N fall off the bottom: no field
# past q^N is ever built.  A right shift by k fields is floor division by
# 2^(width*k), and it keeps the fields above the cut exactly only when the
# fields below it add to less than one unit of the lowest kept field, that
# is, when they are all nonnegative; a negative field below the cut would
# borrow one from the field above it.  So P2 is held as two such ints, its
# positive part and its negative part (0 for the real kernel), and each is
# doubled into its part of P2/(1 - q^(2c)) and shifted on its own: every
# field of either, a partial sum of |P2|, lies in 0..2^(width-1) - 1.
#
# P2 vanishes at odd powers, so each s * q^a * P2/(1 - q^b) with even b
# lies in one parity's int, and with odd b it is split as
# (1 + q^b) * P2/(1 - q^(2b)), one copy per parity.  The parts are packed
# as even ints; the copy for an odd a goes into the odd int, which has
# F_0 - F_1 fewer fields (1 at even N, 0 at odd N), so it is shifted that
# many fields further down.


def _parity_fields(order: int) -> tuple:
    """How many coefficients of each parity, even then odd, a series of the
    order has: the fields of its two ints."""
    return order // 2 + 1, (order + 1) // 2


def _masks(width: int, order: int) -> list:
    """The masks of all fields of the even and the odd int of a series."""
    return [(1 << width * k) - 1 for k in _parity_fields(order)]


@lru_cache(maxsize=8)
def _top_bits(width: int, fields: int) -> int:
    """The top bit of each of `fields` width-bit fields."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * fields, "little")


def _pack(coeffs, width: int) -> int:
    """The coefficients as one int of signed width-bit fields, the first
    lowest; each must lie strictly between -2^(width-1) and 2^(width-1)."""
    half = 1 << (width - 1)
    raw = b"".join((c + half).to_bytes(width // 8, "little") for c in coeffs)
    return (int.from_bytes(raw, "little") - _top_bits(width, len(coeffs))) & ((1 << len(raw) * 8) - 1)


def _unpack(v: int, width: int, fields: int) -> list:
    """The `fields` signed width-bit fields of v, the first lowest.  Fields
    of at most 64 bits are widened to 8-byte lanes, one slice assignment per
    byte, and read by one cast; wider fields are read one at a time."""
    step = width // 8
    half = 1 << (width - 1)
    top = _top_bits(width, fields)
    # biased by half, every field is in 0..2^width - 1, so no field borrows
    raw = ((v + top) & ((1 << width * fields) - 1)).to_bytes(step * fields, "little")
    if step > 8:
        return [int.from_bytes(raw[i:i + step], "little") - half for i in range(0, len(raw), step)]
    lanes = bytearray(8 * fields)
    for j in range(step):  # byte j of each field is the lane's byte of weight 2^(8j)
        lanes[j if sys.byteorder == "little" else 7 - j :: 8] = raw[j::step]
    return [x - half for x in memoryview(lanes).cast("Q").tolist()]


class PackedSeries(NamedTuple):
    """The coefficients c_0..c_order of a series as two ints of signed
    width-bit fields, highest power first: `even` holds c_0, c_2, ... with
    c_0 in its top field, `odd` holds c_1, c_3, ... with c_1 in its top
    field (see the comment above _parity_fields)."""

    order: int
    width: int
    even: int
    odd: int

    def has_negative(self) -> bool:
        """Whether some coefficient is negative, by one AND per int.

        The lowest negative field has only nonnegative fields below it, so
        it borrows nothing and its top bit is set; with no negative field
        no field borrows, and every top bit is clear.
        """
        e, o = _parity_fields(self.order)
        return bool(self.even & _top_bits(self.width, e) or self.odd & _top_bits(self.width, o))

    @property
    def coeffs(self) -> tuple:
        e, o = _parity_fields(self.order)
        out = [0] * (self.order + 1)
        out[::2] = _unpack(self.even, self.width, e)[::-1]
        out[1::2] = _unpack(self.odd, self.width, o)[::-1]
        return tuple(out)


def _field_width(terms: int, order: int) -> int:
    """Bits per field for P2 times a sum of `terms` Lambert terms up to
    q^order: the least multiple of 8 with 2^(width-1) > 2 * max(terms, 1) * S,
    S = sum_k |P2_k|.

    Each coefficient of P2/(1 - q^b) is a partial sum of P2, at most S in
    absolute value, so terms * S bounds every coefficient of such a sum,
    and of the sum of two such sums of `terms` terms between them; S bounds
    P2's own.  The absolute values keep the bound whatever the signs of P2.
    """
    bound = 2 * max(terms, 1) * sum(map(abs, _p2_kernel(order)))
    return (bound.bit_length() + 8) // 8 * 8


def _p2_parts(order: int, width: int) -> list:
    """(sign, part) for P2's positive part and its negative part, each
    packed highest power first as an even int of nonnegative fields, so
    that P2 is the sum of sign * part; a part that is 0 is left out."""
    p2 = _p2_kernel(order)[::2][::-1]  # _pack puts the first lowest, so q^0 goes on top
    parts = [(1, [max(c, 0) for c in p2]), (-1, [max(-c, 0) for c in p2])]
    return [(sign, _pack(fields, width)) for sign, fields in parts if any(fields)]


def _copier(order: int, width: int, parts: list):
    """(acc, a, s) -> add s * q^a times the sum of sign * part over the
    (sign, part) pairs, parts packed as even ints, into acc's int of a's
    parity.  Each part is shifted down a//2 fields, and for odd a by the
    F_0 - F_1 fields that the odd int lacks as well."""
    e, o = _parity_fields(order)
    offsets = (0, width * (e - o))

    def add_copy(acc, a, s):
        p = a & 1
        k = width * (a >> 1) + offsets[p]
        for sign, g in parts:
            acc[p] = (add if s * sign > 0 else sub)(acc[p], g >> k)

    return add_copy


def _times_p2(live, order: int, width: int) -> list:
    """For each term list, P2 times the sum of s * q^a / (1 - q^b) over its
    terms, truncated at `order`, as [even, odd] packed ints, not yet
    reduced to their fields.

    Each copy s * q^a * P2/(1 - q^(2c)) is each part of P2/(1 - q^(2c))
    shifted down a//2 fields (see _copier) and added, with its sign, to
    the int of a's parity.  Each part of P2/(1 - q^(2c)) is built once for
    all copies that share c, by doubling: g (1 + q^(2c)) (1 + q^(4c)) ...
    """
    p2 = _p2_parts(order, width)
    accs = [[0, 0] for _ in live]
    copies = {}  # c -> (acc, a, s) of each copy of P2/(1 - q^(2c))
    for acc, terms in zip(accs, live):
        for a, b, s in terms:
            if b % 2:
                copies.setdefault(b, []).extend(((acc, a, s), (acc, a + b, s)))
            else:
                copies.setdefault(b // 2, []).append((acc, a, s))
    for c, hits in copies.items():
        parts = []
        for sign, g in p2:
            k = c
            while 2 * k <= order:
                g += g >> width * k
                k *= 2
            parts.append((sign, g))
        add_copy = _copier(order, width, parts)
        for acc, a, s in hits:
            if a <= order:
                add_copy(acc, a, s)
    return accs


def _families(x_lead, y_lead, z, width: int, order: int) -> tuple:
    """The M_C1 and M_C5 series from the packed P2 products of X's and Y's
    first sums and of Z^(m), which both families add."""
    masks = _masks(width, order)
    return tuple(
        PackedSeries(order, width, *((a + b) & mask for a, b, mask in zip(lead, z, masks)))
        for lead in (x_lead, y_lead)
    )


def mc_packed(m: int, order: int, width: int | None = None) -> tuple:
    """(M_C1 series, M_C5 series) of |m| as PackedSeries, built directly.

    The width defaults to the least that fits; a sweep passes its own, so
    that its series at m and these are equal as whole ints.
    """
    live = _first_terms((_x_lead_terms, _y_lead_terms, _z_terms), abs(m), order)
    width = width or _field_width(sum(map(len, live)), order)
    return _families(*_times_p2(live, order, width), width, order)


def mc1_series(m: int, order: int) -> TruncatedSeries:
    """Generating function of M_C1(m, .); symmetric in m, so |m| is used."""
    return TruncatedSeries(order, mc_packed(m, order)[0].coeffs)


def mc5_series(m: int, order: int) -> TruncatedSeries:
    """Generating function of M_C5(m, .); symmetric in m, so |m| is used."""
    return TruncatedSeries(order, mc_packed(m, order)[1].coeffs)


def _first_terms(sources, m_lo: int, order: int) -> list:
    """The terms of each source (m, order) -> terms at m_lo, as lists."""
    if m_lo < 0:
        raise ValueError("m must be non-negative")
    return [list(terms(m_lo, order)) for terms in sources]


def _sweep(live, accs, m_lo: int, m_hi: int, order: int, leave, on_drop=None):
    """Yield (m, accs) for each m_lo <= m <= m_hi, accs[i] accumulating the
    terms live[i] at m.

    The caller gives the terms at m_lo and their accumulators, built there.
    Each later m is one step of the identity in the module docstring:
    leave(acc, a, s) takes each term s * q^a / (1 - q^b) at m - 1 down to
    the same term at m, carried on as (a + b, b, s) while a + b is at most
    the order; then on_drop(acc, terms), if given, gets the list of the
    terms at m - 1 that acc has just left.  The next step updates the
    accumulators in place.
    """
    for m in range(m_lo, m_hi + 1):
        if m > m_lo:
            for acc, terms in zip(accs, live):
                for a, _, s in terms:
                    leave(acc, a, s)
                if on_drop is not None:
                    on_drop(acc, terms)
            live = [[(a + b, b, s) for a, b, s in terms if a + b <= order] for terms in live]
        yield m, accs


def mc_sweep(m_lo: int, m_hi: int, order: int):
    """Yield (m, M_C1 series, M_C5 series) for each m_lo <= m <= m_hi, as
    PackedSeries.

    The same series as mc_packed at the same width: m_lo is built directly,
    and each later m by one step of the identity in the module docstring,
    one copy of each part of P2 per term, shifted down to q^a, where the
    fields past q^order fall off.  The width fits the terms at m_lo, the
    most that any m of the run has.
    """
    live = _first_terms((_x_lead_terms, _y_lead_terms, _z_terms), m_lo, order)
    width = _field_width(sum(map(len, live)), order)
    add_copy = _copier(order, width, _p2_parts(order, width))

    def leave(acc, a, s):  # subtract P2 * s * q^a, which lies in a's parity
        add_copy(acc, a, -s)

    accs = _times_p2(live, order, width)
    for m, accs in _sweep(live, accs, m_lo, m_hi, order, leave):
        yield (m, *_families(*accs, width, order))


# -- finite T-series decomposition for the n <= 20m window -------------------
#
# T(q) truncates both alternating sums of X^(m) to their first 9 and 19
# terms; for n <= 20m the discarded tails cannot reach q^n.  The components
# below regroup those 28 geometric terms by modulus; exponents are
# transcribed verbatim, and the regrouping identity T = T1+T3+T5+T7+T9+T'
# is asserted mechanically in the test suite and the verifier.
#
# Each component is a table of rows (alpha, beta, b, s), a row meaning
# s * q^(alpha + beta*m) / (1 - q^b); every component is over (1 - q^2).

T_ROWS = {
    "T1": (
        (1, 1, 1, 1), (3, 2, 2, -1), (4, 2, 2, -1), (10, 4, 4, -1), (14, 4, 4, 1),
        (52, 8, 8, 1), (200, 16, 16, 1), (136, 16, 16, -1), (36, 8, 8, -1),
    ),
    "T3": ((6, 3, 3, 1), (21, 6, 6, -1), (30, 6, 6, -1), (78, 12, 12, -1), (114, 12, 12, 1)),
    "T5": ((15, 5, 5, 1), (55, 10, 10, -1), (80, 10, 10, -1)),
    "T7": ((28, 7, 7, 1), (154, 14, 14, -1), (105, 14, 14, -1)),
    "T9": ((45, 9, 9, 1), (171, 18, 18, -1), (252, 18, 18, -1)),
    "Tprime": tuple((n * (n + 1) // 2, n, n, 1) for n in (11, 13, 15, 17, 19)),
}


def _t_terms(m: int, order: int):
    """T(q)'s numerator: the first 9 terms of X^(m)'s first sum and the first
    19 of Z^(m)."""
    return chain(islice(_x_lead_terms(m, order), 9), islice(_z_terms(m, order), 19))


def _rows_terms(tables, m: int, order: int):
    """Terms s * q^(alpha + beta*m) / (1 - q^b) of the named T_ROWS tables
    whose exponent is at most the order."""
    for name in tables:
        for alpha, beta, b, s in T_ROWS[name]:
            if (a := alpha + beta * m) <= order:
                yield a, b, s


# Term sources (m, order) -> terms (a, b, s), by name: the sums that
# lambert_sweep steps and lambert_part builds.  X, T, the T-components and
# R1 are numerators over (1 - q^2).
LAMBERT_PARTS = {
    "X": _c1_terms,
    "Y": _c5_terms,
    "Z": _z_terms,
    "T": _t_terms,
    "T-components": partial(_rows_terms, tuple(T_ROWS)),
    "R1": partial(_rows_terms, ("T7", "T9", "Tprime")),
}


def lambert_part(name: str, m: int, order: int) -> list:
    """The coefficient list of LAMBERT_PARTS[name] at m, built directly."""
    return _lambert_list(LAMBERT_PARTS[name](m, order), order)


def _drop_monomial(acc: list, a: int, s: int) -> None:
    acc[a] -= s


def lambert_sweep(parts, m_lo: int, m_hi: int, order: int, on_drop=None):
    """Yield (m, lists) for each m_lo <= m <= m_hi, lists[i] being
    lambert_part(parts[i], m, order).

    m_lo is built directly, and each later m by one step of the identity in
    the module docstring: _drop_monomial(acc, a, s) per term.  The next step
    updates the lists in place; on_drop(acc, terms), if given, is called once
    per list and step, after that list's drops, with the list of the terms
    (a, b, s) at m - 1 whose monomials s * q^a it dropped (an exponent can
    repeat), so that a caller can carry what it read of a list across m.
    """
    live = _first_terms([LAMBERT_PARTS[name] for name in parts], m_lo, order)
    accs = [_lambert_list(terms, order) for terms in live]
    return _sweep(live, accs, m_lo, m_hi, order, _drop_monomial, on_drop)


def t_series(m: int, order: int) -> TruncatedSeries:
    """The 9-term/19-term truncation of X^(m)'s defining double sum."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return _over_q2(lambert_part("T", m, order))


def _r2_progressions(m: int) -> tuple:
    """R2's leftover monomials q^e, each with coefficient +1, as slices
    (start, stop, step) of the exponents e: 1+m..2m+1; 3k for
    2+m <= k <= 6+2m without k = 2+2m, 4+2m, 6+2m; 5k for 3+m <= k <= 10+2m
    without k = 2+2m, 4+2m, 6+2m, 8+2m; and 70+10m."""
    return (
        (1 + m, 2 * m + 2, 1),
        (3 * (2 + m), 3 * (2 * m + 2), 3),  # 3k, k = 2+m..2m+1
        (3 * (3 + 2 * m), 3 * (6 + 2 * m), 6),  # 3k, k = 2m+3, 2m+5
        (5 * (3 + m), 5 * (2 * m + 2), 5),  # 5k, k = 3+m..2m+1
        (5 * (3 + 2 * m), 5 * (10 + 2 * m), 10),  # 5k, k = 2m+3, 2m+5, 2m+7, 2m+9
        (5 * (10 + 2 * m), 5 * (11 + 2 * m), 5),  # 5k, k = 2m+10
        (70 + 10 * m, 71 + 10 * m, 1),
    )


def r2_numerator(r1: list, m: int) -> list:
    """R2's numerator from R1's coefficient list at the same m: r1 itself,
    with q^e added in place for each leftover exponent e within its order."""
    for start, stop, step in _r2_progressions(m):
        r1[start:stop:step] = map(add, r1[start:stop:step], repeat(1))
    return r1


def _over_q2(coeffs: list) -> TruncatedSeries:
    """coeffs / (1 - q^2), truncated where coeffs end."""
    return TruncatedSeries(len(coeffs) - 1, over_one_minus_qk(coeffs, 2))


def _table_series(tables, m: int, order: int) -> TruncatedSeries:
    """(sum of the named T_ROWS tables at shift m) / (1 - q^2)."""
    return _over_q2(_lambert_list(_rows_terms(tables, m, order), order))


def t1(m: int, order: int) -> TruncatedSeries:
    return _table_series(("T1",), m, order)


def t3(m: int, order: int) -> TruncatedSeries:
    return _table_series(("T3",), m, order)


def t5(m: int, order: int) -> TruncatedSeries:
    return _table_series(("T5",), m, order)


def t7(m: int, order: int) -> TruncatedSeries:
    return _table_series(("T7",), m, order)


def t9(m: int, order: int) -> TruncatedSeries:
    return _table_series(("T9",), m, order)


def tprime(m: int, order: int) -> TruncatedSeries:
    return _table_series(("Tprime",), m, order)


def r1(m: int, order: int) -> TruncatedSeries:
    """T7 + T9 + T'."""
    return _over_q2(lambert_part("R1", m, order))


def r2(m: int, order: int) -> TruncatedSeries:
    """R1 plus the leftover monomial groups from the T(q) rearrangement;
    nonnegative coefficient-wise for every m >= 0."""
    return _over_q2(r2_numerator(lambert_part("R1", m, order), m))
