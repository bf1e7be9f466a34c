"""Lattice-point counts, closed-form areas, and geometric bound figures."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from sptcrank import bounds, lattice
from sptcrank.lattice import (
    GeometryFigures,
    LatticeCount,
    RegionKind,
    RegionSpec,
    bound_columns,
    count_region,
    count_sweep,
    figure_columns,
    geometry_figures,
    m1_upper_bound,
    m2_lower_bound,
    parity_lemma_check,
    sqrt_columns,
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


def parity_gap_rational(count: LatticeCount) -> float:
    """The parity gap |total/2 - odd_y| through exact rationals."""
    return float(abs(Fraction(count.total, 2) - count.odd_y))


def area(kind: RegionKind, m: int, n: int) -> float:
    return geometry_figures(RegionSpec(kind, m, n)).area


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
        for kind in REGIONS:
            assert area(kind, m, n) == pytest.approx(
                quadrature_area(kind, m, n), rel=1e-6, abs=1e-6
            )


def test_area_difference_is_log2_band():
    # Omega' exceeds Omega by exactly (n+1) ln(2) / 2
    for m, n in ((0, 50), (2, 300), (7, 1500)):
        diff = area(RegionKind.OMEGA_PRIME, m, n) - area(RegionKind.OMEGA, m, n)
        assert diff == pytest.approx((n + 1) * math.log(2) / 2, rel=1e-12)


def recorded_radicands(monkeypatch, m, ns):
    """The numbers lattice._area_columns(m, ns) takes square roots of, as
    (radicand of s8, radicand of s12) per n; it takes two per n, and s8's
    is the smaller."""
    seen = []
    real = math.sqrt
    monkeypatch.setattr(math, "sqrt", lambda v: seen.append(v) or real(v))
    lattice._area_columns(m, ns)
    monkeypatch.undo()
    assert len(seen) == 2 * len(ns)
    return [sorted(pair) for pair in zip(seen[::2], seen[1::2])]


@pytest.mark.parametrize("m", [0, 1, 7, 30, 120, 1000])
def test_area_identity_is_exact(monkeypatch, m):
    """Omega''s area - Omega's area == (ln 2/2)(n+1) for every even n <= 2000.

    The code's roots are square roots of integers R8 and R12 with
    R8 - (2m)^2 = 8(n+1) and R12 - (2m)^2 = 12(n+1), so the conjugate
    products (s8-2m)(s8+2m) and (s12-2m)(s12+2m) are 8(n+1) and 12(n+1):
    the logs combine to ln 2 and the rational terms cancel.  A 50-digit
    transcription of both areas satisfies the identity to 1e-40, and the
    code's float areas equal it to 1e-9 (relative, at least 1 absolute),
    so a changed coefficient in either area breaks the test.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    ns = range(2, 2001, 2)
    for n, (r8, r12) in zip(ns, recorded_radicands(monkeypatch, m, ns)):
        assert type(r8) is int and type(r12) is int
        assert (r8 - (2 * m) ** 2, r12 - (2 * m) ** 2) == (8 * (n + 1), 12 * (n + 1)), n
        t8, t12 = mp.sqrt(r8), mp.sqrt(r12)
        a_o = (n + 1) * mp.log(3 * (t8 - 2 * m) / (2 * (t12 - 2 * m))) / 2 - (
            mp.mpf(m) / 24 * (3 * t8 - 2 * t12 - 2 * m))
        a_p = (n + 1) * (
            2 * m / (t12 + 2 * m) - 2 * m / (t8 + 2 * m) + mp.log(2 * (t12 + 2 * m) / (t8 + 2 * m))
        ) / 2
        assert abs(a_p - a_o - mp.log(2) * (n + 1) / 2) < mp.mpf(10) ** -40 * (n + 1), n
        for code, exact in zip((area(kind, m, n) for kind in REGIONS), (a_o, a_p)):
            assert abs(code - exact) <= 1e-9 * max(1, abs(exact)), n


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


def lambda_length_term(m: int, n: int) -> float:
    """lambda(m,n) = 2*sqrt(m^2+3(n+1)) - sqrt(m^2+2(n+1)) + m, the slanted
    boundary-length contribution of Omega'."""
    return (
        2 * math.sqrt(m * m + 3 * (n + 1))
        - math.sqrt(m * m + 2 * (n + 1))
        + m
    )


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


@pytest.mark.parametrize("kind", REGIONS)
@pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 30])
def test_sweep_matches_count_region(kind, m):
    totals, odds = count_sweep(kind, m, 600)
    assert len(totals) == len(odds) == 601
    for n in range(601):
        assert LatticeCount(totals[n], odds[n]) == count_region(RegionSpec(kind, m, n)), n


def figures_reference(kind, m, n):
    """The area, bound and vertex expressions, one transcription per region."""
    s8 = math.sqrt(4 * m * m + 8 * (n + 1))
    s12 = math.sqrt(4 * m * m + 12 * (n + 1))
    u8, u12 = s8 + 2 * m, s12 + 2 * m
    k = 1 if kind is RegionKind.OMEGA else 2
    closed_form = 0.5 * (n + 1) * (
        math.log(k * u12 / u8) - 8 * m * (n + 1) / ((s8 + s12) * u8 * u12))
    if kind is RegionKind.OMEGA:
        x2, x3 = (n + 1) / (2 * m + s8), (n + 1) / (s12 + 2 * m)
        return (
            closed_form, 3.6 * math.sqrt(n + 1), math.sqrt(2 * (n + 1)) / 4,
            ((0.0, 2.0 * m), (x2, (n + 1) / (2 * x2)), (x3, (n + 1) / (2 * x3))),
        )
    x6, x7 = (s8 + 2 * m) / 8, (s12 + 2 * m) / 4
    return (
        closed_form, 5.5 * math.sqrt(n + 1) + m,
        math.sqrt(3 * (n + 1)) / 2 + m / 2,
        ((m / 2, 0.0), (float(m), 0.0), (x6, (n + 1) / (2 * x6)), (x7, (n + 1) / (2 * x7))),
    )


def even_terms(n_max):
    return sqrt_columns(range(2, n_max + 1, 2))


@pytest.mark.parametrize("kind", REGIONS)
@pytest.mark.parametrize("m", [0, 1, 7, 30, 120])
def test_figure_sweep_matches_geometry_figures(kind, m):
    """The figure columns give geometry_figures' floats bit for bit at every
    even n <= 2000, and both give the reference expressions' floats."""
    terms = even_terms(2000)
    assert list(terms[0]) == list(range(2, 2001, 2))
    cols = figure_columns(m, terms)[REGIONS.index(kind)]
    for n, *fig in zip(terms[0], *cols):
        full = geometry_figures(RegionSpec(kind, m, n))
        assert tuple(fig) == (full.area, full.length_bound, full.x_extent_bound), n
        assert (*fig, full.vertices) == figures_reference(kind, m, n), n


@pytest.mark.parametrize("m", [0, 1, 7, 30, 120])
def test_hoisted_bounds_match_the_single_point_functions(m):
    """The bound columns' M1 and M2 bounds at the figure columns' areas, and
    theorem 2's bound from its m-free term, equal the single-point
    functions' floats at every even n <= 2000."""
    terms = even_terms(2000)
    (area_o, _, _), (area_p, _, _) = figure_columns(m, terms)
    m1_bound, m2_bound = bound_columns(m, terms, area_o, area_p)
    for n, root, a_o, m1, a_p, m2 in zip(*terms[:2], area_o, m1_bound, area_p, m2_bound):
        assert (a_o, a_p) == tuple(area(kind, m, n) for kind in REGIONS), n
        assert m1 == m1_upper_bound(m, n, a_o), n
        assert m2 == m2_lower_bound(m, n, a_p), n
        assert bounds.theorem2_m_free(n, root) - m - 2 == bounds.theorem2_lower_bound(m, n), n


def test_vertices_stay_on_the_hyperbola_at_extreme_m():
    """At m = 10^9, n = 22 the differences s8 - 2m and s12 - 2m would cancel
    to 0.0; every vertex stays finite, and each hyperbola vertex has
    2xy = n+1 to 1e-12."""
    m, n = 10**9, 22
    for kind in REGIONS:
        fig = geometry_figures(RegionSpec(kind, m, n))
        assert all(map(math.isfinite, (fig.area, *sum(fig.vertices, ())))), kind
        for x, y in fig.vertices[-2:]:
            assert 2 * x * y == pytest.approx(n + 1, rel=1e-12, abs=0), (kind, x)


def test_sweep_of_empty_bound():
    for kind in REGIONS:
        assert count_sweep(kind, 0, 0) == ([0], [0])


def test_parity_lemma_on_grid():
    for m in (0, 2, 6):
        for n in range(2, 1200, 53):
            for kind in REGIONS:
                spec = RegionSpec(kind, m, n)
                assert parity_lemma_check(count_region(spec), geometry_figures(spec))


@given(st.integers(0, 2**64), st.data())
@settings(max_examples=300, deadline=None)
def test_parity_gap_matches_rational_gap(total, data):
    """The integer gap decides exactly as the rational one, for any count."""
    count = LatticeCount(total, data.draw(st.integers(0, total)))
    gap = parity_gap_rational(count)
    base = geometry_figures(RegionSpec(RegionKind.OMEGA, 0, 99))
    for x_extent in (0.0, 0.4, 1.5, gap - 1, base.x_extent_bound):
        fig = GeometryFigures(base.area, base.length_bound, x_extent, base.vertices)
        assert parity_lemma_check(count, fig) is (gap <= x_extent + 1)


def test_parity_lemma_rejects_lopsided_count():
    fig = geometry_figures(RegionSpec(RegionKind.OMEGA_PRIME, 0, 99))
    gap_limit = fig.x_extent_bound + 1
    total = 2 * math.ceil(gap_limit) + 2
    assert parity_lemma_check(LatticeCount(total, total // 2), fig)
    assert not parity_lemma_check(LatticeCount(total, 0), fig)
    assert not parity_lemma_check(LatticeCount(total, total), fig)


def test_m1_m2_bounds_on_grid():
    for m in (0, 1, 5, 12):
        for n in range(2, 2001, 41):
            o = count_region(RegionSpec(RegionKind.OMEGA, m, n))
            p = count_region(RegionSpec(RegionKind.OMEGA_PRIME, m, n))
            assert o.odd_y < m1_upper_bound(m, n, area(RegionKind.OMEGA, m, n))
            assert p.odd_y > m2_lower_bound(m, n, area(RegionKind.OMEGA_PRIME, m, n))


def test_validation():
    with pytest.raises(ValueError):
        RegionSpec(RegionKind.OMEGA, -1, 5)
    with pytest.raises(ValueError):
        LatticeCount(2, 3)
    with pytest.raises(ValueError):
        m1_upper_bound(0, 0, 0.0)


# m a multiple of 1000 up to 2*10^5, and two m where the differences
# s8 - 2m, s12 - 2m collapsed Omega's vertices, at every even n < 40
WIDE_MS = (*range(0, 200001, 1000), 13758, 22000)
WIDE_NS = range(0, 40, 2)


def test_figures_hold_where_differences_would_cancel():
    """On 4,060 points with m >> sqrt(n), both regions' areas from
    figure_columns and geometry_figures are within 1e-12 * max(1, |A|) of a
    60-digit transcription of the difference forms
    Omega: (n+1)/2 * log(3(s8-2m)/(2(s12-2m))) - (m/24)(3s8 - 2s12 - 2m),
    Omega': (n+1)/2 * (2m/(s12+2m) - 2m/(s8+2m) + log(2(s12+2m)/(s8+2m))),
    where 60 digits leave room for their cancellation."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 60
    terms = sqrt_columns(WIDE_NS)
    assert len(WIDE_MS) * len(WIDE_NS) == 4060
    for m in WIDE_MS:
        (area_o, _, _), (area_p, _, _) = figure_columns(m, terms)
        for n, a_o, a_p in zip(WIDE_NS, area_o, area_p):
            t8, t12 = mp.sqrt(4 * m * m + 8 * (n + 1)), mp.sqrt(4 * m * m + 12 * (n + 1))
            exact_o = (n + 1) * mp.log(3 * (t8 - 2 * m) / (2 * (t12 - 2 * m))) / 2 - (
                mp.mpf(m) / 24 * (3 * t8 - 2 * t12 - 2 * m))
            exact_p = (n + 1) * (
                2 * m / (t12 + 2 * m) - 2 * m / (t8 + 2 * m) + mp.log(2 * (t12 + 2 * m) / (t8 + 2 * m))
            ) / 2
            for kind, code, exact in ((REGIONS[0], a_o, exact_o), (REGIONS[1], a_p, exact_p)):
                assert geometry_figures(RegionSpec(kind, m, n)).area == code, (kind, m, n)
                assert abs(code - exact) <= 1e-12 * max(1, abs(exact)), (kind, m, n)


def test_hyperbola_vertices_are_ordered_and_finite():
    """At every even n < 40, for each m of WIDE_MS and m = 10^9, 10^15 and
    10^150, the hyperbola vertices keep x3 <= x2 for Omega and x6 <= x7 for
    Omega', every vertex is finite, and each hyperbola vertex has 2xy = n+1
    to 1e-12.  Once m >> sqrt(n) both roots round to 2m, so x3 == x2 occurs:
    the order is not strict."""
    ties = 0
    for m in (*WIDE_MS, 10**9, 10**15, 10**150):
        for n in WIDE_NS:
            for kind in REGIONS:
                vertices = geometry_figures(RegionSpec(kind, m, n)).vertices
                assert all(map(math.isfinite, sum(vertices, ()))), (kind, m, n)
                (xa, _), (xb, _) = hyperbola = vertices[-2:]
                if kind is RegionKind.OMEGA:
                    assert xb <= xa, (m, n)
                    ties += xb == xa
                else:
                    assert xa <= xb, (m, n)
                for x, y in hyperbola:
                    assert 2 * x * y == pytest.approx(n + 1, rel=1e-12, abs=0), (kind, m, n)
    assert ties
