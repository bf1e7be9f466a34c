"""Truncated formal power series in q with exact integer coefficients.

Every generating function in the verification pipeline is represented as
a finite prefix c_0..c_N of its power-series expansion.  Coefficients are
arbitrary-precision Python ints, because the nonnegativity checks
downstream must be exact.  The two fixed-width formats, qseries'
PackedSeries and bivariate's packed z-rows, take their field width from a
bound on every coefficient they can hold, so they are exact too.

The truncation order is explicit data on each value.  Mixed-order
arithmetic truncates to the shorter operand, so an operation can never
fabricate coefficients beyond its inputs' common valid prefix.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable


class TruncatedSeries:
    """Prefix of a formal power series: coeffs[n] is the coefficient of q^n.

    Immutable after construction; all operations are pure functions, so
    values are safe to share across threads and processes.  coeffs must be
    a tuple of ints: anything else (a float, a bool, a string) is a
    TypeError, never silently converted.

    A plain class, not a tuple, so that +, * and [] are series arithmetic
    and coefficient access; __init__ validates through __post_init__.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"coeffs must have order+1={self.order + 1} entries, "
                f"got {len(self.coeffs)}"
            )
        if type(self.coeffs) is not tuple or {*map(type, self.coeffs)} - {int}:
            raise TypeError(f"coeffs must be a tuple of ints, got {self.coeffs!r:.60}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.coeffs) == (other.order, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(order={self.order!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return type(self), (self.order, self.coeffs)

    # -- inspection ---------------------------------------------------------

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a series beyond its valid prefix")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            n, tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            n, tuple(a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy convolution truncated at the minimum operand order.

        Plain O(N^2) schoolbook convolution, skipping zero coefficients of
        the sparser operand.  This is the correctness baseline every faster
        path must match bit-for-bit.
        """
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        if sum(1 for c in a[: n + 1] if c) > sum(1 for c in b[: n + 1] if c):
            a, b = b, a
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai:
                for j in range(n + 1 - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        return TruncatedSeries(n, tuple(out))


def geometric_term(a: int, b: int, order: int) -> TruncatedSeries:
    """q^a / (1 - q^b) = q^a + q^(a+b) + q^(a+2b) + ... truncated at `order`."""
    if a < 0:
        raise ValueError("leading exponent must be non-negative")
    if b < 1:
        raise ValueError("geometric step must be positive")
    c = [0] * (order + 1)
    e = a
    while e <= order:
        c[e] = 1
        e += b
    return TruncatedSeries(order, tuple(c))


def over_one_minus_qk(coeffs, k: int) -> tuple:
    """The coefficients coeffs[0..N] times 1/(1 - q^k), truncated at q^N.

    The one 1/(1 - q^k) pass: out[n] = coeffs[n] + out[n-k], a running sum
    along each residue class mod k.
    """
    if k < 1:
        raise ValueError("geometric step must be positive")
    out = list(coeffs)
    for r in range(min(k, len(out))):
        out[r::k] = accumulate(out[r::k])
    return tuple(out)


def negative_running_sum(coeffs: list, negatives) -> bool:
    """Whether coeffs / (1 - q^2) has a negative coefficient, that is some
    running sum of a parity class of coeffs is negative, given the indices
    of coeffs' negative terms: a running sum falls only at a negative term,
    so each class's sums are read up to those terms, chained from one to
    the next."""
    sums, starts = [0, 0], [0, 1]
    for n in sorted(negatives):
        r = n & 1
        sums[r] += sum(coeffs[starts[r]:n + 1:2])
        starts[r] = n + 2
        if sums[r] < 0:
            return True
    return False


def _negative_sum(coeffs) -> int:
    return sum(filter((0).__gt__, coeffs))


class ParitySums:
    """Whether a list over 1 - q^2 has a negative coefficient on a window
    lo <= n <= hi, read after read of one list, from sums carried between
    the reads: a read costs what its window's ends moved, and the window
    only where the sums leave it open.

    For each parity class r it carries two sums of the list last read:
    - sums[r], the class's sum up to its first n >= lo, at index ends[r],
      where the window's running sums start;
    - lows[r], the sum of the negative terms after that index, up to the
      class's last n <= hi, at index tops[r].
    No running sum in the window is below sums[r] + lows[r]; only where that
    is negative are the class's running sums read.  A read adds the terms
    that its window's ends moved past and takes off those that left, and
    drop(acc, terms) follows the changes acc[a] -= s, one per term (a, b, s),
    made to the list between two reads.  A read of another list, or of a
    window with an end below the last read's, starts over.
    """

    __slots__ = ("coeffs", "window", "sums", "ends", "lows", "tops")

    def __init__(self) -> None:
        self.coeffs = None

    def drop(self, acc: list, terms) -> None:
        """Follow acc[a] -= s for each term (a, b, s), all just made, if acc
        is the list last read.  An exponent can repeat, so the s of each index
        in the window are summed first: acc[a] + that sum is its old value."""
        if acc is self.coeffs:
            sums, ends, tops, moved = self.sums, self.ends, self.tops, {}
            for a, _, s in terms:
                r = a & 1
                if a <= ends[r]:
                    sums[r] -= s
                elif a <= tops[r]:
                    moved[a] = moved.get(a, 0) + s
            for a, s in moved.items():
                self.lows[a & 1] += min(acc[a], 0) - min(acc[a] + s, 0)

    def negative(self, coeffs: list, lo: int, hi: int) -> bool:
        """Whether some coefficient lo <= n <= hi of coeffs / (1 - q^2) is
        negative: min(over_one_minus_qk(coeffs[: hi + 1], 2)[lo:]) < 0."""
        if coeffs is not self.coeffs or lo < self.window[0] or hi < self.window[1]:
            self.coeffs, self.sums, self.lows = coeffs, [0, 0], [0, 0]
            self.ends, self.tops = [-2, -1], [-2, -1]  # nothing summed
        self.window = lo, hi
        sums, ends, lows, tops = self.sums, self.ends, self.lows, self.tops
        negative = False
        for r in (0, 1):
            first, last = lo + (lo - r) % 2, hi - (hi - r) % 2  # the class's n in the window
            if first > last:
                continue
            end, top = ends[r], tops[r]
            sums[r] += sum(coeffs[end + 2 : first + 1 : 2])
            entered = coeffs[max(first, top) + 2 : last + 1 : 2]
            left = coeffs[end + 2 : min(first, top) + 1 : 2] if top > end else ()
            lows[r] += _negative_sum(entered) - _negative_sum(left)
            ends[r], tops[r] = first, last
            if sums[r] + lows[r] < 0:
                negative = negative or min(
                    accumulate(coeffs[first + 2 : last + 1 : 2], initial=sums[r])) < 0
        return negative


def divide_by_one_minus_qk(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Multiply by the geometric series 1/(1 - q^k) via an O(N) prefix recurrence.

    Bit-identical to s * geometric_term(0, k, s.order).
    """
    return TruncatedSeries(s.order, over_one_minus_qk(s.coeffs, k))


def sum_series(terms: Iterable[TruncatedSeries], order: int) -> TruncatedSeries:
    """Sum of same-order terms; returns the zero series when empty."""
    acc = [0] * (order + 1)
    for t in terms:
        if t.order != order:
            t = t.truncate(order)
        for i, c in enumerate(t.coeffs):
            acc[i] += c
    return TruncatedSeries(order, tuple(acc))
