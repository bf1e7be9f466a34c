"""Divisor-pair evaluation of Y^(m) and Z^(m).

This is the combinatorial computation path: each coefficient is obtained
by enumerating factorizations (d1, d2) of the odd part of n and testing
parity/size conditions on linear combinations of the factors.  It is
independent of the q-series path and is cross-checked against it.  The
divisors of each odd part come by trial division to its square root; no
table is kept.  One loop reads each divisor pair once: `census` counts
the pairs for one (m, n), `census_sweep` for one n and every m up to a
bound (the verifier's y-nonneg check), and `census_rows` for a block of m
and every n up to a bound, one read per n (its cross check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul


@dataclass(frozen=True)
class OddPartDecomposition:
    """n = 2^e * odd_part with odd_part odd."""

    e: int
    odd_part: int

    def __post_init__(self) -> None:
        if self.odd_part < 1 or self.odd_part % 2 == 0:
            raise ValueError("odd_part must be an odd positive integer")
        if self.e < 0:
            raise ValueError("e must be non-negative")

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


@dataclass(frozen=True)
class DivisorPairCensus:
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


def _odd_divisors(n: int) -> list:
    """The divisors of the odd n, ascending: the d <= sqrt(n) by trial
    division, then their cofactors n // d in reverse, a square's root once."""
    small = [d for d in range(1, math.isqrt(n) + 1, 2) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _tally(dec: OddPartDecomposition, top: int) -> tuple:
    """Read each divisor pair (d1, d2) of dec.odd_part once, classifying its
    four values v, one per set of census, against top >= 1.

    Returns ((#A1, #A2, #B1, #B2), keys): each set's number of odd v >= top,
    and the key 4*(v//2) + i for each odd positive v < top of the i-th set.
    """
    divs = _odd_divisors(dec.odd_part)
    p = 1 << dec.e
    q = 2 * p
    a1 = a2 = b1 = b2 = 0
    keys = []
    # The divisors ascend, so read backwards they are the cofactors d2 = N / d1.
    for d1, d2 in zip(divs, reversed(divs)):
        v = d2 - p * d1  # A1
        if v & 1:
            if v >= top:
                a1 += 1
            elif v > 0:
                keys.append(4 * (v // 2))
        v = d2 - q * d1  # A2
        if v & 1:
            if v >= top:
                a2 += 1
            elif v > 0:
                keys.append(4 * (v // 2) + 1)
        v = q * d2 - d1  # B1
        if v & 1:
            if v >= top:
                b1 += 1
            elif v > 0:
                keys.append(4 * (v // 2) + 2)
        v = p * d2 - d1  # B2
        if v & 1:
            if v >= top:
                b2 += 1
            elif v > 0:
                keys.append(4 * (v // 2) + 3)
    return (a1, a2, b1, b2), keys


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
    counts, _ = _tally(OddPartDecomposition.of(n), 2 * m + 1)
    return DivisorPairCensus(*counts)


def census_sweep(dec: OddPartDecomposition, m_max: int) -> list:
    """census(m, dec.n) for every 0 <= m <= m_max, in runs of equal censuses.

    Returns [(m_lo, m_hi, c), ...] ascending and covering 0..m_max, with
    c == census(m, dec.n) for m_lo <= m <= m_hi.  In census, m enters only
    through the threshold 2m+1, and an odd v is >= 2m+1 exactly when
    v // 2 >= m.  So each divisor pair is read once: the counts at m_max
    come with a key for each odd positive v below 2*m_max+1, and a set's
    count at m < m_max adds its keys at v // 2 >= m.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    counts, keys = _tally(dec, 2 * m_max + 1)
    counts = list(counts)
    # Walk the keys from the highest v down, adding each to its set's count.
    keys.sort(reverse=True)
    runs = []
    hi = m_max
    for key in keys:
        k = key // 4
        if k < hi:
            runs.append((k + 1, hi, DivisorPairCensus(*counts)))
            hi = k
        counts[key % 4] += 1
    runs.append((0, hi, DivisorPairCensus(*counts)))
    return runs[::-1]


def census_rows(m_lo: int, m_hi: int, n_max: int) -> list:
    """[(ys, zs), ...] for 0 <= m_lo <= m <= m_hi, with ys[n-1], zs[n-1] ==
    census(m, n).y, .z for 1 <= n <= n_max.  One _tally per n at 2*m_hi+1
    gives the row at m_hi.  A key at v // 2 == k counts at every m <= k (see
    census_sweep), so the row at m is the row at m+1 plus the keys at v // 2 == m."""
    units = [DivisorPairCensus(*(int(i == j) for j in range(4))) for i in range(4)]
    y_sign, z_sign = [u.y for u in units], [u.z for u in units]  # of #A1, #A2, #B1, #B2
    ys, zs = [], []
    dys = [[0] * n_max for _ in range(m_lo, m_hi)]  # the keys' terms at m_lo..m_hi-1
    dzs = [[0] * n_max for _ in range(m_lo, m_hi)]
    for i in range(n_max):
        counts, keys = _tally(OddPartDecomposition.of(i + 1), 2 * m_hi + 1)
        ys.append(sum(map(mul, y_sign, counts)))
        zs.append(sum(map(mul, z_sign, counts)))
        for key in keys:
            if key >> 2 >= m_lo:
                dys[(key >> 2) - m_lo][i] += y_sign[key & 3]
                dzs[(key >> 2) - m_lo][i] += z_sign[key & 3]
    rows = [(ys, zs)]
    for deltas in zip(reversed(dys), reversed(dzs)):
        rows.append(tuple(list(map(add, row, d)) for row, d in zip(rows[-1], deltas)))
    return rows[::-1]


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
