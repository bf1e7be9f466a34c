"""Exact lattice-point enumeration in the hyperbola-bounded regions.

Two open regions in the positive quadrant are used, both cut off by the
hyperbola x*y < (n+1)/2 and a pair of lines with slope parameters tied
to 2m:

    Omega:       y - 6x < 2m,  y - 4x > 2m
    Omega':      2x - 3y < 2m, 4x - y > 2m

Membership of a lattice point is decided purely in integer arithmetic
(x*y < (n+1)/2 becomes 2*x*y <= n); floating point enters only in the
closed-form areas, the vertices (on conjugate roots, see _area_columns) and
the bounds, whose sqrt(n+1) coefficients are OMEGA_LENGTH,
OMEGA_PRIME_LENGTH, M1_SQRT and M2_SQRT.  RegionSpec admits only (m, n)
with 4m^2 + 12(n+1) and 8m(n+1) in the float range, so no figure overflows.
"""

from __future__ import annotations

import enum
import math
import sys
from itertools import accumulate
from typing import NamedTuple


class RegionKind(enum.Enum):
    OMEGA = "omega"
    OMEGA_PRIME = "omega-prime"


class _Region(NamedTuple):
    kind: RegionKind
    m: int
    n: int


class RegionSpec(_Region):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.m < 0 or self.n < 0:
            raise ValueError("m and n must be non-negative")
        if 4 * self.m * self.m + 12 * (self.n + 1) > sys.float_info.max:
            raise ValueError("m and n too large: 4m^2 + 12(n+1) exceeds the largest float")
        if 8 * self.m * (self.n + 1) > sys.float_info.max:
            raise ValueError("m and n too large: 8m(n+1) exceeds the largest float")
        return self


class _Count(NamedTuple):
    total: int
    odd_y: int


class LatticeCount(_Count):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.odd_y <= self.total:
            raise ValueError("odd_y must lie between 0 and total")
        return self


class GeometryFigures(NamedTuple):
    area: float
    length_bound: float
    x_extent_bound: float
    vertices: tuple  # ((x, y), ...) in the region's conventional order


# sqrt(n+1) coefficients of the Jarnik length bounds of Omega and Omega' and
# of the M1 and M2 bounds (bounds.derivation_margins decides how they are derived)
OMEGA_LENGTH = 3.6
OMEGA_PRIME_LENGTH = 5.5
M1_SQRT = 2.2
M2_SQRT = 3.7


def _columns(kind: RegionKind, m: int, n: int):
    """(x, y_lo, y_hi) for each nonempty column of the region at bound n.

    The y-interval at integer x comes from the region's two lines and
    the hyperbola x*y < (n+1)/2, which is 2*x*y <= n for integers.
    y_lo never decreases as x grows, so no column after the first with
    2*x*y_lo > n holds a point.
    """
    omega = kind is RegionKind.OMEGA
    x = 1
    while True:
        if omega:
            # y - 4x > 2m and y - 6x < 2m
            lo, hi = 4 * x + 2 * m + 1, 6 * x + 2 * m - 1
        else:
            # 2x - 3y < 2m and 4x - y > 2m, with y >= 1
            lo, hi = max(1, (2 * x - 2 * m + 3) // 3), 4 * x - 2 * m - 1
        if 2 * x * lo > n:
            return
        hi = min(hi, n // (2 * x))
        if hi >= lo:
            yield x, lo, hi
        x += 1


def count_region(spec: RegionSpec) -> LatticeCount:
    """Exact count of lattice points in the region, and of those with odd y."""
    total = 0
    odd = 0
    for _, lo, hi in _columns(spec.kind, spec.m, spec.n):
        total += hi - lo + 1
        odd += (hi + 1) // 2 - lo // 2  # the odd y in [lo, hi]
    return LatticeCount(total, odd)


def count_sweep(kind: RegionKind, m: int, n_max: int) -> tuple:
    """(totals, odds): count_region(RegionSpec(kind, m, n))'s total and
    odd_y at index n of each list, for every 0 <= n <= n_max.

    A point of the region at bound n_max lies in the region at bound n
    exactly when 2*x*y <= n.  So the points are enumerated once, each is
    tallied at key 2*x*y, and prefix sums give every n: O(n_max) work in
    all, where count_region takes O(sqrt(n)) per n.
    """
    total = [0] * (n_max + 1)
    odd = [0] * (n_max + 1)
    for x, lo, hi in _columns(kind, m, n_max):
        step = 2 * x
        for key in range(step * lo, step * hi + 1, step):
            total[key] += 1
        for key in range(step * (lo | 1), step * hi + 1, 2 * step):  # odd y
            odd[key] += 1
    return list(accumulate(total)), list(accumulate(odd))


def _area_columns(m: int, ns) -> tuple:
    """Closed-form areas of Omega and Omega' over the n of ns, in one pass:
    (n+1)/2 * (log(k*u12/u8) - 8m(n+1)/((s8+s12)*u8*u12)), k = 1 and 2, with
    s8 = sqrt(4m^2+8(n+1)), s12 = sqrt(4m^2+12(n+1)).  As (s8-2m)(s8+2m) =
    8(n+1) and (s12-2m)(s12+2m) = 12(n+1), they take the conjugates u8 = s8+2m
    and u12 = s12+2m, where s8-2m and s12-2m would cancel once m >> sqrt(n).
    By s12-s8 = 4(n+1)/(s8+s12), the rational part is Omega's triangle
    2*x2^2 - 3*x3^2 and Omega''s (n+1)*(m/u12 - m/u8).  With r = u12/u8,
    log(r + r) is log(2*u12/u8) bit for bit, as doubling a float is exact."""
    sqrt, log = math.sqrt, math.log
    two_m, eight_m, four_mm = 2 * m, 8 * m, 4 * m * m
    pairs = [
        ((h := 0.5 * (k := n + 1))
         * (log(r := (u12 := (s12 := sqrt(four_mm + 12 * k)) + two_m)
                / (u8 := (s8 := sqrt(four_mm + 8 * k)) + two_m))
            - (t := eight_m * k / ((s8 + s12) * u8 * u12))),
         h * (log(r + r) - t))
        for n in ns
    ]
    return tuple(zip(*pairs)) if pairs else ((), ())


def sqrt_columns(ns) -> tuple:
    """Columns over the n of ns of n, sqrt(n+1), OMEGA_LENGTH*sqrt(n+1),
    sqrt(2(n+1))/4, OMEGA_PRIME_LENGTH*sqrt(n+1), sqrt(3(n+1))/2,
    M1_SQRT*sqrt(n+1) and M2_SQRT*sqrt(n+1): the m-free terms of the figures
    and M1/M2 bounds; adding the m terms in order gives their floats."""
    roots = [math.sqrt(n + 1) for n in ns]
    return (
        ns, roots, [OMEGA_LENGTH * r for r in roots], [math.sqrt(2 * (n + 1)) / 4 for n in ns],
        [OMEGA_PRIME_LENGTH * r for r in roots], [math.sqrt(3 * (n + 1)) / 2 for n in ns],
        [M1_SQRT * r for r in roots], [M2_SQRT * r for r in roots],
    )


def figure_columns(m: int, terms: tuple) -> tuple:
    """((area, length, extent) of Omega, the same of Omega'): columns over
    the n of terms = sqrt_columns(ns) of geometry_figures' numbers."""
    ns, _, length_o, extent_o, length_p, extent_p, _, _ = terms
    area_o, area_p = _area_columns(m, ns)
    return (
        (area_o, length_o, extent_o),
        (area_p, [x + m for x in length_p], [x + m / 2 for x in extent_p]),
    )


def bound_columns(m: int, terms: tuple, area_o: list, area_p: list) -> tuple:
    """(m1_bound, m2_bound): m1_upper_bound and m2_lower_bound over the n of
    terms = sqrt_columns(ns), at the areas of figure_columns, as plain floats."""
    return (
        [a / 2 + s + 1 for a, s in zip(area_o, terms[6])],
        [a / 2 - s - m - 1 for a, s in zip(area_p, terms[7])],
    )


def geometry_figures(spec: RegionSpec) -> GeometryFigures:
    """Area, boundary-length bound, x-extent bound, and vertex list.  The
    hyperbola vertices are at x2 = (n+1)/u8, x3 = (n+1)/u12 for Omega and at
    x6 = u8/8, x7 = u12/4 for Omega' (u8, u12 as in _area_columns), so
    x3 <= x2 and x6 < x7 as s8 <= s12."""
    m, n = spec.m, spec.n
    u8 = math.sqrt(4 * m * m + 8 * (n + 1)) + 2 * m
    u12 = math.sqrt(4 * m * m + 12 * (n + 1)) + 2 * m
    omega, omega_prime = figure_columns(m, sqrt_columns((n,)))
    if spec.kind is RegionKind.OMEGA:
        fig = omega
        corners = ((0.0, 2.0 * m),)
        xs = (n + 1) / u8, (n + 1) / u12
    else:
        fig = omega_prime
        corners = ((m / 2, 0.0), (float(m), 0.0))
        xs = u8 / 8, u12 / 4
    on_hyperbola = tuple((x, (n + 1) / (2 * x)) for x in xs)
    return GeometryFigures(*(c[0] for c in fig), vertices=corners + on_hyperbola)


def m1_upper_bound(m: int, n: int, area: float) -> float:
    """Strict upper bound on the odd-y count in Omega:
    area/2 + M1_SQRT*sqrt(n+1) + 1, where area is Omega's geometry_figures area."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return area / 2 + M1_SQRT * math.sqrt(n + 1) + 1


def m2_lower_bound(m: int, n: int, area: float) -> float:
    """Strict lower bound on the odd-y count in Omega':
    area/2 - M2_SQRT*sqrt(n+1) - m - 1, where area is Omega''s geometry_figures area."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return area / 2 - M2_SQRT * math.sqrt(n + 1) - m - 1


def parity_lemma_check(count: LatticeCount, fig) -> bool:
    """|total/2 - odd_y| <= x_extent_bound + 1 for a region's count and its
    GeometryFigures.

    The gap is |total - 2*odd_y| / 2, an exact integer divided once, so it
    is the correctly rounded float of the exact rational gap.
    """
    return abs(count.total - 2 * count.odd_y) / 2 <= fig.x_extent_bound + 1
