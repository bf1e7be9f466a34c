"""Exact lattice-point enumeration in the hyperbola-bounded regions.

Two open regions in the positive quadrant are used, both cut off by the
hyperbola x*y < (n+1)/2 and a pair of lines with slope parameters tied
to 2m:

    Omega:       y - 6x < 2m,  y - 4x > 2m
    Omega':      2x - 3y < 2m, 4x - y > 2m

Membership of a lattice point is decided purely in integer arithmetic
(x*y < (n+1)/2 becomes 2*x*y <= n); floating point enters only in the
closed-form areas and the analytic bound values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction


class RegionKind(enum.Enum):
    OMEGA = "omega"
    OMEGA_PRIME = "omega-prime"


@dataclass(frozen=True)
class RegionSpec:
    kind: RegionKind
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("m and n must be non-negative")


@dataclass(frozen=True)
class LatticeCount:
    total: int
    odd_y: int

    def __post_init__(self) -> None:
        if not 0 <= self.odd_y <= self.total:
            raise ValueError("odd_y must lie between 0 and total")


@dataclass(frozen=True)
class GeometryFigures:
    area: float
    length_bound: float
    x_extent_bound: float
    vertices: tuple  # ((x, y), ...) in the region's conventional order


class DegenerateRegionError(ValueError):
    """Raised when the computed vertex ordering of a region collapses."""


def _odd_count(lo: int, hi: int) -> int:
    """Number of odd integers in [lo, hi]; assumes lo <= hi."""
    return (hi + 1) // 2 - lo // 2


def count_region(spec: RegionSpec) -> LatticeCount:
    """Exact count of lattice points in the region, and of those with odd y.

    For each admissible integer x the y-interval is derived from the three
    strict inequalities; the hyperbola bound x*y < (n+1)/2 is equivalent to
    2*x*y <= n for integers.
    """
    m, n = spec.m, spec.n
    total = 0
    odd = 0
    if spec.kind is RegionKind.OMEGA:
        # y >= 4x + 2m + 1,  y <= 6x + 2m - 1,  2xy <= n
        x = 1
        while 2 * x * (4 * x + 2 * m + 1) <= n:
            y_lo = 4 * x + 2 * m + 1
            y_hi = min(6 * x + 2 * m - 1, n // (2 * x))
            if y_hi >= y_lo:
                total += y_hi - y_lo + 1
                odd += _odd_count(y_lo, y_hi)
            x += 1
    else:
        # y >= ceil((2x - 2m + 1)/3),  y <= 4x - 2m - 1,  y >= 1,  2xy <= n
        # real x-extent is bounded by x7 = (sqrt(4m^2 + 12(n+1)) + 2m)/4
        x_max = (math.isqrt(4 * m * m + 12 * (n + 1)) + 2 * m) // 4 + 1
        for x in range(1, x_max + 1):
            y_hi = min(4 * x - 2 * m - 1, n // (2 * x))
            if y_hi < 1:
                continue
            p = 2 * x - 2 * m + 1
            y_lo = max(1, -((-p) // 3))
            if y_hi >= y_lo:
                total += y_hi - y_lo + 1
                odd += _odd_count(y_lo, y_hi)
    return LatticeCount(total, odd)


def _vertices_omega(m: int, n: int):
    s8 = math.sqrt(4 * m * m + 8 * (n + 1))
    s12 = math.sqrt(4 * m * m + 12 * (n + 1))
    x1, y1 = 0.0, 2.0 * m
    x2 = (-2 * m + s8) / 8
    y2 = (n + 1) / (2 * x2)
    x3 = (s12 - 2 * m) / 12
    y3 = (n + 1) / (2 * x3)
    return (x1, y1), (x2, y2), (x3, y3)


def _vertices_omega_prime(m: int, n: int):
    s8 = math.sqrt(4 * m * m + 8 * (n + 1))
    s12 = math.sqrt(4 * m * m + 12 * (n + 1))
    x4, y4 = m / 2, 0.0
    x5, y5 = float(m), 0.0
    x6 = (s8 + 2 * m) / 8
    y6 = (n + 1) / (2 * x6)
    x7 = (s12 + 2 * m) / 4
    y7 = (n + 1) / (2 * x7)
    return (x4, y4), (x5, y5), (x6, y6), (x7, y7)


def area_omega(m: int, n: int) -> float:
    """Closed-form area of Omega in the 2m-parameterization (no limit needed at m=0).

    The triangle correction equals 2*x2^2 - 3*x3^2 =
    -(m/24)*(3*sqrt(4m^2+8(n+1)) - 2*sqrt(4m^2+12(n+1)) - 2m), which also
    matches the t = (n+1)/m^2 form of the expression for m >= 1.
    """
    s8 = math.sqrt(4 * m * m + 8 * (n + 1))
    s12 = math.sqrt(4 * m * m + 12 * (n + 1))
    return 0.5 * (n + 1) * math.log(3 * (s8 - 2 * m) / (2 * (s12 - 2 * m))) - (
        m / 24.0
    ) * (3 * s8 - 2 * s12 - 2 * m)


def area_omega_prime(m: int, n: int) -> float:
    """Closed-form area of Omega' in the 2m-parameterization."""
    s8 = math.sqrt(4 * m * m + 8 * (n + 1))
    s12 = math.sqrt(4 * m * m + 12 * (n + 1))
    return (
        0.5
        * (n + 1)
        * (
            2 * m / (s12 + 2 * m)
            - 2 * m / (s8 + 2 * m)
            + math.log(2 * (s12 + 2 * m) / (s8 + 2 * m))
        )
    )


def geometry_figures(spec: RegionSpec) -> GeometryFigures:
    """Area, boundary-length bound, x-extent bound, and vertex list."""
    m, n = spec.m, spec.n
    if spec.kind is RegionKind.OMEGA:
        v1, v2, v3 = _vertices_omega(m, n)
        if v3[0] > v2[0]:
            raise DegenerateRegionError(
                f"vertex ordering collapsed for Omega at m={m}, n={n}"
            )
        return GeometryFigures(
            area=area_omega(m, n),
            length_bound=3.6 * math.sqrt(n + 1),
            x_extent_bound=math.sqrt(2 * (n + 1)) / 4,
            vertices=(v1, v2, v3),
        )
    v4, v5, v6, v7 = _vertices_omega_prime(m, n)
    if v7[0] < v6[0]:
        raise DegenerateRegionError(
            f"vertex ordering collapsed for Omega' at m={m}, n={n}"
        )
    return GeometryFigures(
        area=area_omega_prime(m, n),
        length_bound=5.5 * math.sqrt(n + 1) + m,
        x_extent_bound=math.sqrt(3 * (n + 1)) / 2 + m / 2,
        vertices=(v4, v5, v6, v7),
    )


def lambda_length_term(m: int, n: int) -> float:
    """lambda(m,n) = 2*sqrt(m^2+3(n+1)) - sqrt(m^2+2(n+1)) + m, the slanted
    boundary-length contribution of Omega'."""
    return (
        2 * math.sqrt(m * m + 3 * (n + 1))
        - math.sqrt(m * m + 2 * (n + 1))
        + m
    )


def m1_upper_bound(m: int, n: int) -> float:
    """Strict upper bound on the odd-y count in Omega:
    area/2 + 2.2*sqrt(n+1) + 1, with the area in (m,n)-form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return area_omega(m, n) / 2 + 2.2 * math.sqrt(n + 1) + 1


def m2_lower_bound(m: int, n: int) -> float:
    """Strict lower bound on the odd-y count in Omega':
    area/2 - 3.7*sqrt(n+1) - m - 1, with the area in (m,n)-form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return area_omega_prime(m, n) / 2 - 3.7 * math.sqrt(n + 1) - m - 1


def parity_lemma_check(spec: RegionSpec) -> bool:
    """|total/2 - odd_y| <= x_extent_bound + 1, with total/2 exact rational."""
    count = count_region(spec)
    fig = geometry_figures(spec)
    gap = abs(Fraction(count.total, 2) - count.odd_y)
    return float(gap) <= fig.x_extent_bound + 1
