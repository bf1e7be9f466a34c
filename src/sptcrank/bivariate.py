"""Two-variable spt-crank generating functions S_X(z, q).

Garvan and Jennings-Shaffer define eight such families; the conjecture
reads two, C1 and C5, and FAMILIES holds only their rows.  Each is
expanded from its single-sum product form

    sum_n  c_n / ((z q^n; q)_oo (z^-1 q^n; q)_oo),   c_n = sign_n * q^(e(n)) * Num_n(q),

where Num_n is a pure q-product.  With D_k = 1/((1 - z q^k)(1 - z^-1 q^k))
the denominator of term n is D_n D_(n+1) ..., so the sum is the Horner
scheme (((c_1 D_1 + c_2) D_2 + c_3) D_3 ...).  D_k is 1 modulo q^(N+1)
for k > N, so N steps give the truncation at order N exactly.  Each step
adds c_k to the z^0 row, then multiplies by 1/(1 - z q^k) in one ascending
pass over the z-rows and by 1/(1 - z^-1 q^k) in one descending pass:
O(N^3) additions in all, on one dense table of z-rows.  Every power z^d
comes with at least q^|d|, so |d| <= N.

The result is that table, one row per power of z, so a fixed-m slice is
one row.  The slices are the cross-oracle for the univariate M_C1/M_C5
generating functions; the build reads only the product form, never the
Lambert sums that M_C1/M_C5 are built from.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul
from typing import NamedTuple

from .series import TruncatedSeries
from .qseries import euler_product


class _Laurent(NamedTuple):
    order: int
    rows: tuple


class LaurentSeries(_Laurent):
    """Truncated-in-q series in z, stored by powers of z.

    rows[order + d] is the tuple of q^0..q^order coefficients of z^d for
    |d| <= order; z^d is zero below q^|d|.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        N = self.order
        if len(self.rows) != 2 * N + 1 or any(len(r) != N + 1 for r in self.rows):
            raise ValueError("rows must be 2*order+1 rows of order+1 coefficients")
        for d, row in enumerate(self.rows, -N):
            if any(row[: abs(d)]):
                raise ValueError(f"z^{d} is nonzero below q^{abs(d)}")
        return self


def extract_m(s: LaurentSeries, m: int) -> TruncatedSeries:
    """The univariate q-series of z^m coefficients (zero for |m| > order)."""
    if abs(m) > s.order:
        return TruncatedSeries(s.order, (0,) * (s.order + 1))
    return TruncatedSeries(s.order, s.rows[s.order + m])


# One row per family name: (s, (a, b, c), runs) gives sign_n = s^n, the prefactor
# exponent e(n) = (a*n^2 + b*n) / c, and Num_n as the product over the runs
# (p, r, step) of euler_product(p*n + r, step) = prod_j (1 - q^(p*n + r + j*step)).
FAMILIES = {
    "C1": (1, (0, 1, 1), ((2, 1, 2), (1, 1, 1))),
    "C5": (1, (1, 1, 2), ((2, 1, 2), (1, 1, 1))),
}


def spt_crank_bivariate(family: str, order: int) -> LaurentSeries:
    """Truncated bivariate expansion of the product form FAMILIES[family]."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if order < 1:
        raise ValueError("order must be >= 1")
    N = order
    base, (a, b, c), runs = FAMILIES[family]
    rows = [[0] * (N + 1) for _ in range(2 * N + 1)]  # rows[N + d]: z^d over q
    for k in range(1, N + 1):
        pref = (a * k * k + b * k) // c
        if pref <= N:
            sign = base**k
            num = reduce(
                mul, (euler_product(p * k + r, step, N - pref) for p, r, step in runs)
            )
            rows[N][pref:] = [x + sign * y for x, y in zip(rows[N][pref:], num.coeffs)]
        # z^d comes with at least q^|d|, so only the rows |d| <= N - k reach
        # q^N after the shift by q^k
        span = range(k, 2 * N + 1 - k)
        for i in span:  # times 1/(1 - z q^k): ascending, row d+1 gains row d
            rows[i + 1][k:] = map(add, rows[i + 1][k:], rows[i])
        for i in reversed(span):  # times 1/(1 - z^-1 q^k): descending
            rows[i - 1][k:] = map(add, rows[i - 1][k:], rows[i])
    return LaurentSeries(N, tuple(map(tuple, rows)))
