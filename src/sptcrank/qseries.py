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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, sub

from .series import (
    TruncatedSeries,
    divide_by_one_minus_qk,
    geometric_term,
    sum_series,
)

_SERIES_TAGS = frozenset(
    {
        "X",
        "Y",
        "Z",
        "InnerC1",
        "MC1",
        "MC5",
        "T",
        "T1",
        "T3",
        "T5",
        "T7",
        "T9",
        "Tprime",
        "R1",
        "R2",
    }
)


@dataclass(frozen=True)
class SeriesId:
    """Closed name set for the series families, plus the shift parameter m >= 0."""

    tag: str
    shift: int = 0

    def __post_init__(self) -> None:
        if self.tag not in _SERIES_TAGS:
            raise ValueError(f"unknown series tag {self.tag!r}")
        if self.shift < 0:
            raise ValueError("shift must be non-negative (callers pass |m|)")


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


def _c1_terms(m: int, order: int):
    """The inner difference of X^(m): exponents n(3n+1)+2mn over 1-q^(2n), plus Z^(m)."""
    yield from _lambert_terms(
        order, lambda n: n * (3 * n + 1) + 2 * m * n, lambda n: 2 * n, 1
    )
    yield from _z_terms(m, order)


def _c5_terms(m: int, order: int):
    """Y^(m): exponents n(n+1)+2mn over 1-q^(2n), plus Z^(m)."""
    yield from _lambert_terms(order, lambda n: n * (n + 1) + 2 * m * n, lambda n: 2 * n, 1)
    yield from _z_terms(m, order)


def _lambert_series(terms, order: int) -> TruncatedSeries:
    """sum of s * q^a / (1 - q^b) over the terms, truncated at `order`."""
    acc = [0] * (order + 1)
    for a, b, s in terms:
        for e in range(a, order + 1, b):
            acc[e] += s
    return TruncatedSeries(order, tuple(acc))


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


def _times_p2(terms, order: int) -> TruncatedSeries:
    """P2 times the sum of s * q^a / (1 - q^b) over the terms, truncated at `order`.

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
    return TruncatedSeries(order, tuple(acc))


def mc1_series(m: int, order: int) -> TruncatedSeries:
    """Generating function of M_C1(m, .); symmetric in m, so |m| is used."""
    return _times_p2(_c1_terms(abs(m), order), order)


def mc5_series(m: int, order: int) -> TruncatedSeries:
    """Generating function of M_C5(m, .); symmetric in m, so |m| is used."""
    return _times_p2(_c5_terms(abs(m), order), order)


# -- finite T-series decomposition for the n <= 20m window -------------------
#
# T(q) truncates both alternating sums of X^(m) to their first 9 and 19
# terms; for n <= 20m the discarded tails cannot reach q^n.  The components
# below regroup those 28 geometric terms by modulus; exponents are
# transcribed verbatim, and the regrouping identity T = T1+T3+T5+T7+T9+T'
# is asserted mechanically in the test suite and the verifier.


def _over_one_minus_q2(terms, order: int) -> TruncatedSeries:
    return divide_by_one_minus_qk(sum_series(terms, order), 2)


def t_series(m: int, order: int) -> TruncatedSeries:
    """The 9-term/19-term truncation of X^(m)'s defining double sum."""
    if m < 0:
        raise ValueError("m must be non-negative")
    acc = [0] * (order + 1)

    def fold(a: int, b: int, sign: int) -> None:
        e = a
        while e <= order:
            acc[e] += sign
            e += b

    for n in range(1, 10):
        fold(n * (3 * n + 1) + 2 * m * n, 2 * n, -1 if n % 2 else 1)
    for n in range(1, 20):
        fold(n * (n + 1) // 2 + m * n, n, 1 if n % 2 else -1)
    return divide_by_one_minus_qk(TruncatedSeries(order, tuple(acc)), 2)


def t1(m: int, order: int) -> TruncatedSeries:
    g = geometric_term
    terms = [
        g(1 + m, 1, order),
        -g(3 + 2 * m, 2, order),
        -g(4 + 2 * m, 2, order),
        -g(10 + 4 * m, 4, order),
        g(14 + 4 * m, 4, order),
        g(52 + 8 * m, 8, order),
        g(200 + 16 * m, 16, order),
        -g(136 + 16 * m, 16, order),
        -g(36 + 8 * m, 8, order),
    ]
    return _over_one_minus_q2(terms, order)


def t3(m: int, order: int) -> TruncatedSeries:
    g = geometric_term
    terms = [
        g(6 + 3 * m, 3, order),
        -g(21 + 6 * m, 6, order),
        -g(30 + 6 * m, 6, order),
        -g(78 + 12 * m, 12, order),
        g(114 + 12 * m, 12, order),
    ]
    return _over_one_minus_q2(terms, order)


def t5(m: int, order: int) -> TruncatedSeries:
    g = geometric_term
    terms = [
        g(15 + 5 * m, 5, order),
        -g(55 + 10 * m, 10, order),
        -g(80 + 10 * m, 10, order),
    ]
    return _over_one_minus_q2(terms, order)


def t7(m: int, order: int) -> TruncatedSeries:
    g = geometric_term
    terms = [
        g(28 + 7 * m, 7, order),
        -g(154 + 14 * m, 14, order),
        -g(105 + 14 * m, 14, order),
    ]
    return _over_one_minus_q2(terms, order)


def t9(m: int, order: int) -> TruncatedSeries:
    g = geometric_term
    terms = [
        g(45 + 9 * m, 9, order),
        -g(171 + 18 * m, 18, order),
        -g(252 + 18 * m, 18, order),
    ]
    return _over_one_minus_q2(terms, order)


def tprime(m: int, order: int) -> TruncatedSeries:
    terms = [
        geometric_term(n * (n + 1) // 2 + n * m, n, order)
        for n in (11, 13, 15, 17, 19)
    ]
    return _over_one_minus_q2(terms, order)


def r1(m: int, order: int) -> TruncatedSeries:
    return t7(m, order) + t9(m, order) + tprime(m, order)


def r2(m: int, order: int) -> TruncatedSeries:
    """R1 plus the leftover monomial groups from the T(q) rearrangement;
    nonnegative coefficient-wise for every m >= 0."""
    extra = [0] * (order + 1)

    def put(e: int) -> None:
        if 0 <= e <= order:
            extra[e] += 1

    put(70 + 10 * m)
    for k in range(1 + m, 1 + 2 * m + 1):
        put(k)
    skip3 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m}
    for k in range(2 + m, 6 + 2 * m + 1):
        if k not in skip3:
            put(3 * k)
    skip5 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m, 8 + 2 * m}
    for k in range(3 + m, 10 + 2 * m + 1):
        if k not in skip5:
            put(5 * k)
    extra_series = divide_by_one_minus_qk(TruncatedSeries(order, tuple(extra)), 2)
    return r1(m, order) + extra_series


_BUILDERS = {
    "X": x_series,
    "Y": y_series,
    "Z": z_series,
    "InnerC1": x_inner_series,
    "MC1": mc1_series,
    "MC5": mc5_series,
    "T": t_series,
    "T1": t1,
    "T3": t3,
    "T5": t5,
    "T7": t7,
    "T9": t9,
    "Tprime": tprime,
    "R1": r1,
    "R2": r2,
}


def build_series(sid: SeriesId, order: int) -> TruncatedSeries:
    """Dispatch a SeriesId to its builder."""
    return _BUILDERS[sid.tag](sid.shift, order)
