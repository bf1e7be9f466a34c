"""Divisor-pair evaluation of Y^(m), Z^(m) and X^(m).

This is the combinatorial computation path: each coefficient is obtained
by enumerating factorizations (d1, d2) of the odd part of n and testing
parity/size conditions on linear combinations of the factors.  It is
independent of the q-series path and is cross-checked against it.  The
divisors come from a sieved table shared by every m in the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import lattice


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


@lru_cache(maxsize=None)
def _odd_divisor_table(bits: int) -> tuple:
    """The divisors of every odd N < 2^bits, ascending, at index N // 2.

    The table for 2^bits extends the one for 2^(bits-1) by sieving the
    odd N in [2^(bits-1), 2^bits): each odd d is entered at its odd
    multiples there.  So every N is sieved once per process, and the
    cached tables share their divisor tuples.
    """
    if bits == 0:
        return ()
    lo, hi = 1 << (bits - 1), 1 << bits
    block = [[] for _ in range(hi // 2 - lo // 2)]
    for d in range(1, hi, 2):
        first = -(-lo // d) * d  # the first multiple of d at or above lo
        for k in range(first if first % 2 else first + d, hi, 2 * d):
            block[(k >> 1) - (lo >> 1)].append(d)
    return _odd_divisor_table(bits - 1) + tuple(map(tuple, block))


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
    dec = OddPartDecomposition.of(n)
    odd = dec.odd_part
    divs = _odd_divisor_table(odd.bit_length())[odd >> 1]
    p = 1 << dec.e
    lo = 2 * m + 1
    a1 = a2 = b1 = b2 = 0
    # The divisors ascend, so read backwards they are the cofactors d2 = N / d1.
    for d1, d2 in zip(divs, reversed(divs)):
        v = d2 - p * d1
        if v >= lo and v % 2 == 1:
            a1 += 1
        v = d2 - 2 * p * d1
        if v >= lo and v % 2 == 1:
            a2 += 1
        v = 2 * p * d2 - d1
        if v >= lo and v % 2 == 1:
            b1 += 1
        v = p * d2 - d1
        if v >= lo and v % 2 == 1:
            b2 += 1
    return DivisorPairCensus(a1, a2, b1, b2)


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


def x_direct(m: int, n: int) -> int:
    """X^(m)(n) by the parity split: odd n sums Z^(m) over odd k <= n;
    even n >= 2 is the odd-y lattice count difference M2 - M1; n = 0 is 0."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0
    if n % 2 == 1:
        return sum(z_direct(m, k) for k in range(1, n + 1, 2))
    omega = lattice.count_region(lattice.RegionSpec(lattice.RegionKind.OMEGA, m, n))
    omega_p = lattice.count_region(
        lattice.RegionSpec(lattice.RegionKind.OMEGA_PRIME, m, n)
    )
    return omega_p.odd_y - omega.odd_y
