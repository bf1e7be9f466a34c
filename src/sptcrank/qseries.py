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
shared Z^(m), which both families add.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate, chain, islice, repeat
from operator import add, sub

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


def _times_p2(terms, order: int) -> list:
    """P2 times the sum of s * q^a / (1 - q^b) over the terms, truncated at
    `order`, as a coefficient list.

    Each term adds s * q^a * P2/(1 - q^b): the kernel prefix of length
    order+1-a, summed cumulatively along each residue class mod b, shifted
    up by a.  P2 vanishes at odd powers, so for even b the odd residue
    classes stay zero and are skipped.
    """
    p2 = _p2_kernel(order)
    acc = [0] * (order + 1)
    for a, b, s in terms:
        g = list(p2[: order + 1 - a])
        for r in range(0, b, 2 - b % 2):
            g[r::b] = accumulate(g[r::b])
        acc[a:] = map(add if s > 0 else sub, acc[a:], g)
    return acc


def mc1_series(m: int, order: int) -> TruncatedSeries:
    """Generating function of M_C1(m, .); symmetric in m, so |m| is used."""
    return TruncatedSeries(order, tuple(_times_p2(_c1_terms(abs(m), order), order)))


def mc5_series(m: int, order: int) -> TruncatedSeries:
    """Generating function of M_C5(m, .); symmetric in m, so |m| is used."""
    return TruncatedSeries(order, tuple(_times_p2(_c5_terms(abs(m), order), order)))


def _sweep(sources, m_lo: int, m_hi: int, order: int, start, leave):
    """Yield (m, lists) for each m_lo <= m <= m_hi, one coefficient list per
    term source (m, order) -> terms.

    Each source is called once, at m_lo, where the lists are start(terms,
    order).  Each later m is one step of the identity in the module
    docstring: leave(acc, a, s) takes each term s * q^a / (1 - q^b) at m - 1
    down to the same term at m, carried on as (a + b, b, s) while a + b is
    at most the order.  The next step updates the lists in place.
    """
    if m_lo < 0:
        raise ValueError("m must be non-negative")
    live = [list(terms(m_lo, order)) for terms in sources]
    accs = [start(terms, order) for terms in live]
    for m in range(m_lo, m_hi + 1):
        if m > m_lo:
            for acc, terms in zip(accs, live):
                for a, _, s in terms:
                    leave(acc, a, s)
            live = [[(a + b, b, s) for a, b, s in terms if a + b <= order] for terms in live]
        yield m, accs


def mc_sweep(m_lo: int, m_hi: int, order: int):
    """Yield (m, M_C1 series, M_C5 series) for each m_lo <= m <= m_hi.

    The same series as mc1_series and mc5_series: m_lo is built directly,
    and each later m by one step of the identity in the module docstring.
    """
    p2_even = _p2_kernel(order)[::2]

    def leave(acc, a, s):  # subtract P2 * s * q^a
        # P2 vanishes at odd powers: only acc[a], acc[a+2], ... change
        acc[a::2] = map(sub if s > 0 else add, acc[a::2], p2_even)

    sources = (_x_lead_terms, _y_lead_terms, _z_terms)
    for m, (x_lead, y_lead, z) in _sweep(sources, m_lo, m_hi, order, _times_p2, leave):
        yield (
            m,
            TruncatedSeries(order, tuple(map(add, x_lead, z))),
            TruncatedSeries(order, tuple(map(add, y_lead, z))),
        )


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


def lambert_sweep(parts, m_lo: int, m_hi: int, order: int):
    """Yield (m, lists) for each m_lo <= m <= m_hi, lists[i] being
    lambert_part(parts[i], m, order).

    m_lo is built directly, and each later m by one step of the identity in
    the module docstring, one monomial per term.  The next step updates the
    lists in place.
    """
    sources = [LAMBERT_PARTS[name] for name in parts]
    return _sweep(sources, m_lo, m_hi, order, _lambert_list, _drop_monomial)


def t_series(m: int, order: int) -> TruncatedSeries:
    """The 9-term/19-term truncation of X^(m)'s defining double sum."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return _over_q2(lambert_part("T", m, order))


def _r2_extra(m: int) -> list:
    """Exponents of R2's leftover monomial groups, each with coefficient +1."""
    skip3 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m}
    skip5 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m, 8 + 2 * m}
    return [
        70 + 10 * m,
        *range(1 + m, 2 * m + 2),
        *(3 * k for k in range(2 + m, 6 + 2 * m + 1) if k not in skip3),
        *(5 * k for k in range(3 + m, 10 + 2 * m + 1) if k not in skip5),
    ]


def r2_numerator(r1: list, m: int) -> list:
    """R2's numerator from R1's coefficient list at the same m: a copy of it
    plus q^e for each leftover exponent e within its order."""
    out = list(r1)
    for e in _r2_extra(m):
        if e < len(out):
            out[e] += 1
    return out


def _over_q2(coeffs: list) -> TruncatedSeries:
    """coeffs / (1 - q^2), truncated where coeffs end."""
    return TruncatedSeries(len(coeffs) - 1, over_one_minus_qk(coeffs, 2))


def _table_series(tables, m: int, order: int) -> TruncatedSeries:
    """(sum of the named T_ROWS tables at shift m) / (1 - q^2)."""
    return _over_q2(_lambert_list(_rows_terms(tables, m, order), order))


def t_components(m: int, order: int) -> TruncatedSeries:
    """T1 + T3 + T5 + T7 + T9 + T', built from all their rows at once."""
    return _over_q2(lambert_part("T-components", m, order))


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
