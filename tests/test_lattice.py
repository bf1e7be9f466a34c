"""Lattice-point counts, closed-form areas, and geometric bound figures."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from sptcrank.lattice import (
    DegenerateRegionError,
    LatticeCount,
    RegionKind,
    RegionSpec,
    area_omega,
    area_omega_prime,
    count_region,
    geometry_figures,
    lambda_length_term,
    m1_upper_bound,
    m2_lower_bound,
    parity_lemma_check,
)

REGIONS = (RegionKind.OMEGA, RegionKind.OMEGA_PRIME)


def count_region_bruteforce(spec: RegionSpec) -> LatticeCount:
    """Independent O(n^2) double-loop reference count."""
    m, n = spec.m, spec.n
    total = 0
    odd = 0
    for x in range(1, n + 2):
        for y in range(1, n + 2):
            if 2 * x * y > n:
                continue
            if spec.kind is RegionKind.OMEGA:
                ok = y - 6 * x < 2 * m < y - 4 * x
            else:
                ok = 2 * x - 3 * y < 2 * m < 4 * x - y
            if ok:
                total += 1
                if y % 2 == 1:
                    odd += 1
    return LatticeCount(total, odd)


def quadrature_area(kind: RegionKind, m: int, n: int) -> float:
    """Numeric area oracle: integrate the admissible y-interval length in x."""
    half = (n + 1) / 2.0

    def width(x):
        if x <= 0:
            return 0.0
        hyper = half / x
        if kind is RegionKind.OMEGA:
            lo, hi = 4 * x + 2 * m, min(6 * x + 2 * m, hyper)
        else:
            lo, hi = max(0.0, (2 * x - 2 * m) / 3.0), min(4 * x - 2 * m, hyper)
        return max(0.0, hi - lo)

    hi_x = math.sqrt(4 * m * m + 12 * (n + 1)) / 2 + m + 1
    spots = [x for x, _ in geometry_figures(RegionSpec(kind, m, n)).vertices]
    val, err = integrate.quad(width, 0, hi_x, limit=800, points=spots)
    assert err < 1e-6 * max(1.0, val)
    return val


def test_spec_small_counts():
    o = count_region(RegionSpec(RegionKind.OMEGA, 0, 10))
    assert (o.total, o.odd_y) == (1, 1)
    p = count_region(RegionSpec(RegionKind.OMEGA_PRIME, 0, 10))
    assert (p.total, p.odd_y) == (4, 2)


def test_empty_region_for_tiny_n():
    assert count_region(RegionSpec(RegionKind.OMEGA, 5, 2)) == LatticeCount(0, 0)


@given(st.integers(0, 8), st.integers(0, 160), st.sampled_from(REGIONS))
@settings(max_examples=200, deadline=None)
def test_fast_count_matches_bruteforce(m, n, kind):
    spec = RegionSpec(kind, m, n)
    assert count_region(spec) == count_region_bruteforce(spec)


def test_area_matches_quadrature():
    for m, n in ((0, 10), (0, 500), (1, 100), (3, 800), (8, 2000)):
        assert area_omega(m, n) == pytest.approx(
            quadrature_area(RegionKind.OMEGA, m, n), rel=1e-6, abs=1e-6
        )
        assert area_omega_prime(m, n) == pytest.approx(
            quadrature_area(RegionKind.OMEGA_PRIME, m, n), rel=1e-6, abs=1e-6
        )


def test_area_difference_is_log2_band():
    # Omega' exceeds Omega by exactly (n+1) ln(2) / 2
    for m, n in ((0, 50), (2, 300), (7, 1500)):
        diff = area_omega_prime(m, n) - area_omega(m, n)
        assert diff == pytest.approx((n + 1) * math.log(2) / 2, rel=1e-12)


def test_vertices_lie_on_boundary():
    for kind in REGIONS:
        for m, n in ((0, 40), (2, 200), (5, 900)):
            fig = geometry_figures(RegionSpec(kind, m, n))
            for x, y in fig.vertices:
                if x > 0 and y > 0:
                    # hyperbola vertices satisfy 2xy = n+1
                    if abs(2 * x * y - (n + 1)) < 1e-6:
                        continue
                # remaining vertices sit on a boundary line
                on_line = (
                    abs(y - 4 * x - 2 * m) < 1e-9
                    or abs(y - 6 * x - 2 * m) < 1e-9
                    or abs(2 * x - 3 * y - 2 * m) < 1e-9
                    or abs(4 * x - y - 2 * m) < 1e-9
                )
                assert on_line, (kind, m, n, x, y)


def test_vertex_ordering():
    fig = geometry_figures(RegionSpec(RegionKind.OMEGA, 1, 100))
    (x1, _), (x2, _), (x3, _) = fig.vertices
    assert x1 == 0.0 and x3 < x2
    fig = geometry_figures(RegionSpec(RegionKind.OMEGA_PRIME, 1, 100))
    xs = [v[0] for v in fig.vertices]
    assert xs[0] < xs[1] < xs[2] < xs[3]


def test_bound_figures_scale():
    fig = geometry_figures(RegionSpec(RegionKind.OMEGA, 0, 99))
    assert fig.length_bound == pytest.approx(36.0)
    assert fig.x_extent_bound == pytest.approx(math.sqrt(200) / 4)
    fig = geometry_figures(RegionSpec(RegionKind.OMEGA_PRIME, 4, 99))
    assert fig.length_bound == pytest.approx(59.0)
    assert fig.x_extent_bound == pytest.approx(math.sqrt(300) / 2 + 2)


def test_length_bound_dominates_lambda_term():
    # 5.5 sqrt(n+1) + m majorizes the slanted-boundary length lambda(m, n)
    # in the regime n >= m^2 where the bound is ever applied
    for m in range(0, 31, 5):
        for n in range(max(2, m * m), 3001, 97):
            assert lambda_length_term(m, n) < 5.5 * math.sqrt(n + 1) + m


def test_jarnik_on_grid():
    for m in (0, 1, 4):
        for n in range(2, 1200, 37):
            for kind in REGIONS:
                spec = RegionSpec(kind, m, n)
                cnt = count_region(spec)
                fig = geometry_figures(spec)
                if cnt.total == 0 or fig.length_bound < 1:
                    continue
                assert abs(cnt.total - fig.area) < fig.length_bound


def test_parity_lemma_on_grid():
    for m in (0, 2, 6):
        for n in range(2, 1200, 53):
            for kind in REGIONS:
                assert parity_lemma_check(RegionSpec(kind, m, n))


def test_m1_m2_bounds_on_grid():
    for m in (0, 1, 5, 12):
        for n in range(2, 2001, 41):
            o = count_region(RegionSpec(RegionKind.OMEGA, m, n))
            p = count_region(RegionSpec(RegionKind.OMEGA_PRIME, m, n))
            assert o.odd_y < m1_upper_bound(m, n)
            assert p.odd_y > m2_lower_bound(m, n)


def test_validation():
    with pytest.raises(ValueError):
        RegionSpec(RegionKind.OMEGA, -1, 5)
    with pytest.raises(ValueError):
        LatticeCount(2, 3)
    with pytest.raises(ValueError):
        m1_upper_bound(0, 0)


def test_degenerate_guard_never_fires_on_valid_inputs():
    # the vertex ordering x3 < x2 (and x6 < x7) holds for every valid (m, n);
    # the DegenerateRegionError path is a safety net, so it must stay silent
    # even at extreme aspect ratios, and must be catchable as a ValueError
    assert issubclass(DegenerateRegionError, ValueError)
    for kind in REGIONS:
        geometry_figures(RegionSpec(kind, 10**6, 2))
        geometry_figures(RegionSpec(kind, 0, 10**6))
