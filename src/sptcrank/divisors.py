"""Divisor-pair evaluation of Y^(m) and Z^(m).

The combinatorial computation path, independent of the q-series path and
cross-checked against it: a coefficient counts the factorizations (d1, d2)
of the odd part of n that meet parity and size conditions.  One block
reader, `_tallies`, finds the pairs of every n of a block together, with
no trial division of each n and no table; `census` and `census_rows`
(cross) read through it, and the y-nonneg worker reads it directly.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple


class _OddPart(NamedTuple):
    e: int
    odd_part: int


class OddPartDecomposition(_OddPart):
    """n = 2^e * odd_part with odd_part odd."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.odd_part < 1 or self.odd_part % 2 == 0:
            raise ValueError("odd_part must be an odd positive integer")
        if self.e < 0:
            raise ValueError("e must be non-negative")
        return self

    @property
    def n(self) -> int:
        return (1 << self.e) * self.odd_part

    @classmethod
    def of(cls, n: int) -> "OddPartDecomposition":
        if n < 1:
            raise ValueError("n must be a positive integer")
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        return cls(e, n)


class DivisorPairCensus(NamedTuple):
    """Cardinalities of the four divisor-pair sets A1, A2, B1, B2."""

    a1: int
    a2: int
    b1: int
    b2: int

    @property
    def y(self) -> int:
        """Y^(m)(n) = #A1 + #B1 - #A2 - #B2."""
        return self.a1 + self.b1 - self.a2 - self.b2

    @property
    def z(self) -> int:
        """Z^(m)(n) = #B1 - #A2."""
        return self.b1 - self.a2


def _tallies(n_lo: int, n_hi: int, top: int) -> list:
    """[(e, counts, keys), ...] for n_lo <= n <= n_hi = 2^e * N, N odd: each
    divisor pair (d1, d2) of N read once, its value v in each set of census
    classified against top >= 1.  counts = [#A1, #A2, #B1, #B2] of the odd
    v >= top; keys holds 4*(v//2) + i for each odd positive v < top of the
    i-th set, in any order.  For each p = 2^e, the smaller factor s runs over
    the odd s <= sqrt(n_hi // p), and the cofactor t >= s over the odd t with
    p*s*t in the block.

    Each set's value is a linear form v = a*t + b*s of the pair: the table
    below gives (a, b, i) for (d1, d2) = (s, t), then for (t, s) when t > s,
    whose A1 and A2 values s - p*t, s - q*t are < 0.  s and t are odd, so v
    is odd exactly when a + b is, and the forms of even v are dropped."""
    rows = [None] * (n_hi - n_lo + 1)
    for e in range(n_hi.bit_length()):
        p, q = 1 << e, 2 << e
        lo, hi = -(-n_lo // p) | 1, n_hi // p  # the odd N of this e
        if lo > hi:
            continue
        table = ((1, -p, 0), (1, -q, 1), (q, -1, 2), (p, -1, 3), (-1, q, 2), (-1, p, 3))
        both = [(a, b, i) for a, b, i in table if (a + b) & 1]  # the forms of odd v
        same = [(a, b, i) for a, b, i in both if a > 0]  # of (s, t) alone, for t == s
        tallies = [[0, 0, 0, 0, []] for _ in range(lo, hi + 1, 2)]  # per odd N
        for s in [s for s in range(1, math.isqrt(hi) + 1, 2) if hi % s <= hi - lo]:
            for t in range(max(s, -(-lo // s)) | 1, hi // s + 1, 2):
                tally = tallies[(s * t - lo) >> 1]
                for a, b, i in both if t > s else same:
                    v = a * t + b * s
                    if v >= top:
                        tally[i] += 1
                    elif v > 0:
                        tally[4].append(4 * (v >> 1) + i)
        rows[p * lo - n_lo :: 2 * p] = [(e, t[:4], t[4]) for t in tallies]
    return rows


def census(m: int, n: int) -> DivisorPairCensus:
    """Count the divisor pairs (d1, d2) of the odd part N of n = 2^e * N in:

      A1: d2 - 2^e     * d1 >= 2m+1 and odd
      A2: d2 - 2^(e+1) * d1 >= 2m+1 and odd
      B1: 2^(e+1) * d2 - d1 >= 2m+1 and odd
      B2: 2^e     * d2 - d1 >= 2m+1 and odd
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return DivisorPairCensus._make(_tallies(n, n, 2 * m + 1)[0][1])


def census_rows(m_lo: int, m_hi: int, n_max: int):
    """Yield (ys, zs) for each 0 <= m_lo <= m <= m_hi in ascending order, with
    ys[n-1], zs[n-1] == census(m, n).y, .z for 1 <= n <= n_max.  One _tallies
    at 2*m_hi+1 reads every pair.  An odd v is >= 2m+1 exactly when v // 2 >= m,
    so a key at v // 2 == k counts at every m <= k: the row at m_lo adds every
    key at v // 2 >= m_lo, and each step m -> m+1 subtracts the keys at
    v // 2 == m, kept per m.  The next step updates the lists in place."""
    units = [DivisorPairCensus(*(int(i == j) for j in range(4))) for i in range(4)]
    y_sign, z_sign = [u.y for u in units], [u.z for u in units]  # of #A1, #A2, #B1, #B2
    ys, zs = [], []
    steps = [[] for _ in range(m_lo, m_hi)]  # 4*(n-1) + set of each key at v // 2 == m
    for i, (_, counts, keys) in enumerate(_tallies(1, n_max, 2 * m_hi + 1)):
        for key in keys:
            if key >> 2 >= m_lo:
                counts[key & 3] += 1
                steps[(key >> 2) - m_lo].append(4 * i + (key & 3))
        ys.append(sum(map(mul, y_sign, counts)))
        zs.append(sum(map(mul, z_sign, counts)))
    yield ys, zs
    for step in steps:
        for code in step:
            ys[code >> 2] -= y_sign[code & 3]
            zs[code >> 2] -= z_sign[code & 3]
        yield ys, zs


def containment_violation(c: DivisorPairCensus, e: int) -> str | None:
    """Check the structural set containments for the given 2-adic valuation e.

    e = 0:  A1 and B2 are empty, and A2 is contained in B1.
    e >= 1: A2 is contained in A1, and B2 in B1.
    Returns a description of the first violated containment, or None.
    """
    if e == 0:
        if c.a1 != 0:
            return f"A1 must be empty when e=0, got #A1={c.a1}"
        if c.b2 != 0:
            return f"B2 must be empty when e=0, got #B2={c.b2}"
        if c.a2 > c.b1:
            return f"A2 must be contained in B1 when e=0, got #A2={c.a2} > #B1={c.b1}"
    else:
        if c.a2 > c.a1:
            return f"A2 must be contained in A1 when e>=1, got #A2={c.a2} > #A1={c.a1}"
        if c.b2 > c.b1:
            return f"B2 must be contained in B1 when e>=1, got #B2={c.b2} > #B1={c.b1}"
    return None


def y_direct(m: int, n: int) -> int:
    """Y^(m)(n) = #A1 + #B1 - #A2 - #B2; nonnegative by the containments."""
    return census(m, n).y


def z_direct(m: int, n: int) -> int:
    """Z^(m)(n) = #B1 - #A2; always nonnegative."""
    return census(m, n).z
