"""Truncated formal power series in q with exact integer coefficients.

Every generating function in the verification pipeline is represented as
a finite prefix c_0..c_N of its power-series expansion.  Coefficients are
arbitrary-precision Python ints; there are no modular or fixed-width
shortcuts anywhere, because the nonnegativity checks downstream must be
exact.

The truncation order is explicit data on each value.  Mixed-order
arithmetic truncates to the shorter operand, so an operation can never
fabricate coefficients beyond its inputs' common valid prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class TruncatedSeries:
    """Prefix of a formal power series: coeffs[n] is the coefficient of q^n.

    Immutable after construction; all operations are pure functions, so
    values are safe to share across threads and processes.
    """

    order: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"coeffs must have order+1={self.order + 1} entries, "
                f"got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], order: int | None = None) -> "TruncatedSeries":
        """Build from a coefficient list, zero-padding up to `order` if given."""
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) < order + 1:
            coeffs += [0] * (order + 1 - len(coeffs))
        return cls(order, tuple(coeffs[: order + 1]))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (1,) + (0,) * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "TruncatedSeries":
        """coeff * q^exponent, or zero if the exponent exceeds the order."""
        c = [0] * (order + 1)
        if 0 <= exponent <= order:
            c[exponent] = coeff
        return cls(order, tuple(c))

    # -- inspection ---------------------------------------------------------

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def min_coefficient(self) -> int:
        return min(self.coeffs)

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

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

    def scale(self, k: int) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(k * c for c in self.coeffs))

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

    def invert_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with constant term +1 or -1.

        Standard recursive convolution: with a_0 = s, b_0 = s and
        b_n = -s * sum_{k=1..n} a_k b_{n-k}.
        """
        a = self.coeffs
        if a[0] not in (1, -1):
            raise ValueError(
                f"constant term must be +1 or -1 to invert over the integers, got {a[0]}"
            )
        s = a[0]
        n = self.order
        b = [0] * (n + 1)
        b[0] = s
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                if a[i]:
                    acc += a[i] * b[k - i]
            b[k] = -s * acc
        return TruncatedSeries(n, tuple(b))


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


def divide_by_one_minus_qk(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Multiply by the geometric series 1/(1 - q^k) via an O(N) prefix recurrence.

    Bit-identical to s * geometric_term(0, k, s.order); the identity is
    out[n] = s[n] + out[n-k].
    """
    if k < 1:
        raise ValueError("geometric step must be positive")
    out = list(s.coeffs)
    for n in range(k, s.order + 1):
        out[n] += out[n - k]
    return TruncatedSeries(s.order, tuple(out))


def sum_series(terms: Iterable[TruncatedSeries], order: int) -> TruncatedSeries:
    """Sum of same-order terms; returns the zero series when empty."""
    acc = [0] * (order + 1)
    for t in terms:
        if t.order != order:
            t = t.truncate(order)
        for i, c in enumerate(t.coeffs):
            acc[i] += c
    return TruncatedSeries(order, tuple(acc))
