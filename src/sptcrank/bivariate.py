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
pass over the z-rows and by 1/(1 - z^-1 q^k) in one descending pass, one
shift-add per row: each z-row (z^d comes with at least q^|d|, so |d| <= N)
is one int of signed W-bit fields over q^0..q^N, q^0 lowest, in the
field format that qseries._unpack reads.  That is a ring homomorphism
Z[q]/(q^(N+1)) -> Z/2^(W(N+1)), q -> 2^W, so only the final coefficients
must fit: W is the least multiple of 8 with 2^(W-1) above the majorant
(see _majorant).  The rows are decoded to one
tuple per power of z, so a fixed-m slice is one row.  The slices are the
cross-oracle for the univariate M_C1/M_C5 generating functions; the build
reads only the product form, never the Lambert sums that M_C1/M_C5 are
built from.
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple

from .qseries import _unpack
from .series import TruncatedSeries


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
# (p, r, step), with step | p, of prod_j (1 - q^(p*n + r + j*step)).
FAMILIES = {
    "C1": (1, (0, 1, 1), ((2, 1, 2), (1, 1, 1))),
    "C5": (1, (1, 1, 2), ((2, 1, 2), (1, 1, 1))),
}


def _terms(row, order: int, width: int, plus: bool) -> list:
    """[c_1, ..., c_order] of a FAMILIES row, packed at width, with every sign
    + if plus.  As step | p, Num_k is Num_(k+1) times the factors (1 - q^e),
    pk + r <= e < p(k+1) + r, of each run: descending k takes each once."""
    base, (a, b, c), runs = row
    mask, op = (1 << width * (order + 1)) - 1, add if plus else sub
    num, out = 1, []
    for k in range(order, 0, -1):
        for p, r, step in runs:
            for e in range(p * k + r, min(p * k + p + r, order + 1), step):
                num = op(num, num << width * e) & mask  # times (1 -+ q^e)
        pref = (a * k * k + b * k) // c
        v = (num << width * pref) & mask if pref <= order else 0
        out.append(v if plus or base**k > 0 else -v)
    return out[::-1]


def _majorant(row, order: int) -> list:
    """The coefficients of a FAMILIES row's sum with every sign + and z = 1,
    so with steps times 1/(1 - q^k)^2: they bound |each coefficient| of
    each z-row.  They are packed at a width that holds N * (R+3)^N, N = order,
    R runs (N * 5^N for C1 and C5): as 1 + q^e <= 1/(1 - q^e), each of the
    N terms is at most q^(e(k))/(q;q)_oo^(R+2), whose coefficients are at
    most (R+3)^n, as (R+2)-coloured partitions inject into compositions."""
    N = order
    width = ((N * (len(row[2]) + 3) ** N).bit_length() + 8) // 8 * 8
    mask, v = (1 << width * (N + 1)) - 1, 0
    for k, ck in enumerate(_terms(row, N, width, True), 1):
        v += ck
        # times 1/(1 - q^k)^2 = ((1 + q^k)(1 + q^2k)(1 + q^4k)...)^2
        for shift in [k << j for j in range(N.bit_length()) if k << j <= N] * 2:
            v = (v + (v << width * shift)) & mask
    return _unpack(v, width, N + 1)


def spt_crank_bivariate(family: str, order: int) -> LaurentSeries:
    """Truncated bivariate expansion of the product form FAMILIES[family]."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if order < 1:
        raise ValueError("order must be >= 1")
    N = order
    row = FAMILIES[family]
    width = (max(_majorant(row, N)).bit_length() + 8) // 8 * 8
    rows = [0] * (2 * N + 1)  # rows[N + d]: z^d over q, packed at width
    for k, ck in enumerate(_terms(row, N, width, False), 1):
        rows[N] += ck
        # Only the rows |d| <= N - k reach q^N after the shift by q^k, and
        # only their fields up to q^(N-k); what sums carry past q^N, _unpack drops.
        shift, low = width * k, (1 << width * (N + 1 - k)) - 1
        span = range(k, 2 * N + 1 - k)
        for i in span:  # times 1/(1 - z q^k): ascending, row d+1 gains row d
            rows[i + 1] += (rows[i] & low) << shift
        for i in reversed(span):  # times 1/(1 - z^-1 q^k): descending
            rows[i - 1] += (rows[i] & low) << shift
    return LaurentSeries(N, tuple(tuple(_unpack(v, width, N + 1)) for v in rows))
