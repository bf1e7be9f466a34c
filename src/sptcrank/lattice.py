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
from itertools import accumulate


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


# sqrt(n+1) coefficients of the Jarnik length bounds of Omega and Omega' and
# of the M1 and M2 bounds (tests/test_bounds.py checks how they are derived)
OMEGA_LENGTH = 3.6
OMEGA_PRIME_LENGTH = 5.5
M1_SQRT = 2.2
M2_SQRT = 3.7


class DegenerateRegionError(ValueError):
    """Raised when the computed vertex ordering of a region collapses."""


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


def _roots(m: int, n: int) -> tuple:
    """s8 = sqrt(4m^2+8(n+1)) and s12 = sqrt(4m^2+12(n+1)), which every
    vertex, area and ordering guard of the two regions reads from here.

    They satisfy (s8-2m)(s8+2m) = 8(n+1) and (s12-2m)(s12+2m) = 12(n+1).
    """
    return math.sqrt(4 * m * m + 8 * (n + 1)), math.sqrt(4 * m * m + 12 * (n + 1))


def area_omega(m: int, n: int, roots: tuple | None = None) -> float:
    """Closed-form area of Omega in the 2m-parameterization (no limit needed at m=0).

    The triangle correction equals 2*x2^2 - 3*x3^2 =
    -(m/24)*(3*sqrt(4m^2+8(n+1)) - 2*sqrt(4m^2+12(n+1)) - 2m), which also
    matches the t = (n+1)/m^2 form of the expression for m >= 1.  roots,
    when the caller has them, is _roots(m, n).
    """
    s8, s12 = roots or _roots(m, n)
    return 0.5 * (n + 1) * math.log(3 * (s8 - 2 * m) / (2 * (s12 - 2 * m))) - (
        m / 24.0
    ) * (3 * s8 - 2 * s12 - 2 * m)


def area_omega_prime(m: int, n: int, roots: tuple | None = None) -> float:
    """Closed-form area of Omega' in the 2m-parameterization; roots, when
    the caller has them, is _roots(m, n)."""
    s8, s12 = roots or _roots(m, n)
    return 0.5 * (n + 1) * (
        2 * m / (s12 + 2 * m) - 2 * m / (s8 + 2 * m) + math.log(2 * (s12 + 2 * m) / (s8 + 2 * m))
    )


def _hyperbola_xs(kind: RegionKind, m: int, n: int, roots: tuple) -> tuple:
    """The x of the region's two vertices on the hyperbola, (x2, x3) for
    Omega and (x6, x7) for Omega', from roots = _roots(m, n).

    Raises DegenerateRegionError when the floats give x3 > x2 or x7 < x6,
    which exact arithmetic never does, before any vertex's y or the area
    is computed.
    """
    s8, s12 = roots
    if kind is RegionKind.OMEGA:
        xs = (s8 - 2 * m) / 8, (s12 - 2 * m) / 12
        if xs[1] > xs[0]:
            raise DegenerateRegionError(f"vertex ordering collapsed for Omega at m={m}, n={n}")
    else:
        xs = (s8 + 2 * m) / 8, (s12 + 2 * m) / 4
        if xs[1] < xs[0]:
            raise DegenerateRegionError(f"vertex ordering collapsed for Omega' at m={m}, n={n}")
    return xs


def sqrt_terms(n: int) -> tuple:
    """(n, sqrt(n+1), 3.6*sqrt(n+1), sqrt(2(n+1))/4, 5.5*sqrt(n+1),
    sqrt(3(n+1))/2, 2.2*sqrt(n+1), 3.7*sqrt(n+1)): the m-free leading terms of
    the figures and M1/M2 bounds; adding the m terms in order gives their floats."""
    root = math.sqrt(n + 1)
    return (
        n, root, OMEGA_LENGTH * root, math.sqrt(2 * (n + 1)) / 4,
        OMEGA_PRIME_LENGTH * root, math.sqrt(3 * (n + 1)) / 2, M1_SQRT * root, M2_SQRT * root,
    )


def figure_rows(m: int, terms):
    """For each sqrt_terms(n) row of terms yield, after both ordering guards,
    (n, area_o, length_o, extent_o, m1_bound, area_p, length_p, extent_p, m2_bound):
    geometry_figures' numbers for Omega and Omega', and m1_upper_bound and
    m2_lower_bound at those areas, as plain floats."""
    omega, omega_p = RegionKind.OMEGA, RegionKind.OMEGA_PRIME
    for n, _, length_o, extent_o, length_p, extent_p, m1_sqrt, m2_sqrt in terms:
        roots = _roots(m, n)
        _hyperbola_xs(omega, m, n, roots)
        _hyperbola_xs(omega_p, m, n, roots)
        area_o = area_omega(m, n, roots)
        area_p = area_omega_prime(m, n, roots)
        yield (
            n, area_o, length_o, extent_o, area_o / 2 + m1_sqrt + 1,
            area_p, length_p + m, extent_p + m / 2, area_p / 2 - m2_sqrt - m - 1,
        )


def geometry_figures(spec: RegionSpec) -> GeometryFigures:
    """Area, boundary-length bound, x-extent bound, and vertex list."""
    m, n = spec.m, spec.n
    roots = _roots(m, n)
    xs = _hyperbola_xs(spec.kind, m, n, roots)
    _, _, length_o, extent_o, length_p, extent_p, _, _ = sqrt_terms(n)
    if spec.kind is RegionKind.OMEGA:
        fig = area_omega(m, n, roots), length_o, extent_o
        corners = ((0.0, 2.0 * m),)
    else:
        fig = area_omega_prime(m, n, roots), length_p + m, extent_p + m / 2
        corners = ((m / 2, 0.0), (float(m), 0.0))
    on_hyperbola = tuple((x, (n + 1) / (2 * x)) for x in xs)
    return GeometryFigures(*fig, vertices=corners + on_hyperbola)


def m1_upper_bound(m: int, n: int, area: float) -> float:
    """Strict upper bound on the odd-y count in Omega:
    area/2 + 2.2*sqrt(n+1) + 1, where area = area_omega(m, n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return area / 2 + M1_SQRT * math.sqrt(n + 1) + 1


def m2_lower_bound(m: int, n: int, area: float) -> float:
    """Strict lower bound on the odd-y count in Omega':
    area/2 - 3.7*sqrt(n+1) - m - 1, where area = area_omega_prime(m, n)."""
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
