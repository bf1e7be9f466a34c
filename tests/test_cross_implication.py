"""Cross's bound checks decided from their lemmas, against the column code.

verify._cross_lattice decides the M1, M2, theorem 2 and bound-combination
checks without their columns where Jarnik's bound, the parity lemma and
lattice M2 - M1 == X pass, and the derivation margins beat the near-tie
slack.  reference_cross_lattice is the column code it replaced, which
builds and reads all four columns at every m; on any input the two must
append the same violations and return the same Jarnik skips.  The inputs
here are patched where the proof is tight: areas and odd counts at the
lemmas' edges, special and huge floats, bumped counts, large m, a slack
up to 1e-2 and constants a few ulps from each margin's zero.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from itertools import compress
from operator import le, sub
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sptcrank import bounds, lattice, verify

REGIONS = tuple(lattice.RegionKind)


def reference_jarnik_points(ns, totals: list, dev: list, length: list) -> tuple:
    """verify._jarnik_points as the column code read it, without the start."""
    empty = totals.count(0)
    if min(length, default=1) >= 1 and not any(totals[:empty]):
        return empty, [c[empty:] for c in (ns, dev, length)]
    met = [total != 0 and not bound < 1 for total, bound in zip(totals, length)]
    return len(met) - sum(met), [list(compress(c, met)) for c in (ns, dev, length)]


def reference_cross_lattice(m: int, n_max: int, xs, part: tuple, out: list) -> int:
    """The column code, on part[:3] = (terms, t2_free, o_limits); the M1 and
    M2 bound columns are the expressions figure_columns returned them by."""
    terms, t2_free, o_limits = part[:3]
    ns = terms[0]
    even = slice(2, n_max + 1, 2)
    x = list(xs[even])
    counts = [[c[even] for c in lattice.count_sweep(kind, m, n_max)] for kind in lattice.RegionKind]
    (_, o_odds), (_, p_odds) = counts
    figures = lattice.figure_columns(m, terms)
    (area_o, *_), (area_p, *_) = figures
    m1_bound = [a / 2 + s + 1 for a, s in zip(area_o, terms[6])]
    m2_bound = [a / 2 - s - m - 1 for a, s in zip(area_p, terms[7])]
    out += verify._unequal(m, ns, list(map(sub, p_odds, o_odds)), x, "lattice M2-M1 == series X")
    jarnik_skips = 0
    parity_limits = o_limits, [e + 1 for e in figures[1][2]]
    for kind, (totals, odds), (area, length, _), limits in zip(
        lattice.RegionKind, counts, figures, parity_limits
    ):
        skips, columns = reference_jarnik_points(
            ns, totals, list(map(abs, map(sub, totals, area))), length)
        jarnik_skips += skips
        for n, d, bound in verify._not_less(*columns):
            o = bounds.classify_strict(d, bound)
            out.append((m, n, f"|N-A|={d!r}", f"Jarnik |N-A| < {bound!r} [{o.value}]"))
        gaps = [abs(total - 2 * odd) / 2 for total, odd in zip(totals, odds)]
        if not all(map(le, gaps, limits)):
            out += [(m, n, kind.value, "parity bound |N/2-M| <= sup+1")
                    for n, g, lim in zip(ns, gaps, limits) if not g <= lim]
    t2 = [t - m - 2 for t in t2_free]
    out += [(m, n, str(a), "M1 < upper bound") for n, a, _ in verify._not_less(ns, o_odds, m1_bound)]
    out += [(m, n, str(b), "M2 > lower bound") for n, _, b in verify._not_less(ns, m2_bound, p_odds)]
    out += [(m, n, str(b), "X > (ln2/4)(n+1)-6sqrt(n+1)-m-2")
            for n, _, b in verify._not_less(ns, t2, x)]
    for n, *_ in verify._not_less(ns, t2, list(map(sub, m2_bound, m1_bound))):
        out.append((m, n, "bound-combination", "M2bound-M1bound >= theorem bound"))
    return jarnik_skips


def real_inputs(m: int, n_max: int) -> tuple:
    """(counts, areas): each region's count_sweep lists over n <= n_max, and
    the two area columns over the even n, as lists to patch."""
    counts = [[list(c) for c in lattice.count_sweep(kind, m, n_max)] for kind in REGIONS]
    areas = [list(a) for a in lattice._area_columns(m, range(2, n_max + 1, 2))]
    return counts, areas


def lattice_x(counts: list) -> list:
    """X at every n <= n_max, as lattice M2 - M1 == X would have it."""
    (_, o_odds), (_, p_odds) = counts
    return list(map(sub, p_odds, o_odds))


def both(m: int, n_max: int, counts: list, areas: list, xs: list) -> tuple:
    """(skips, violations) of the reference and of verify._cross_lattice on
    the patched counts and areas, at the module constants as they are."""
    results = []
    with mock.patch.object(lattice, "count_sweep",
                           lambda kind, m_, n_: tuple(counts[REGIONS.index(kind)])), \
            mock.patch.object(lattice, "_area_columns", lambda m_, ns: tuple(areas)):
        part = verify._cross_part(n_max)
        for fn in (reference_cross_lattice, verify._cross_lattice):
            out = []
            results.append((fn(m, n_max, xs, part, out), out))
    return tuple(results)


def at_the_edges(m: int, counts: list, areas: list, region: int, j: float, p: float) -> None:
    """Where neither region is empty, move one region's areas to N - j*L,
    or N + j*L for Omega', and its odd counts to (N + k)//2, k =
    int(p*(2E + 1)), where the parity limit E + 1 still holds; L and E at
    the constants as they are."""
    totals, odds = counts[region]
    for i, n in enumerate(range(2, len(totals), 2)):
        root = math.sqrt(n + 1)
        if region == 0:
            length, extent = lattice.OMEGA_LENGTH * root, math.sqrt(2 * (n + 1)) / 4
        else:
            length, extent = lattice.OMEGA_PRIME_LENGTH * root + m, math.sqrt(3 * (n + 1)) / 2 + m / 2
        if counts[0][0][n] and counts[1][0][n]:
            areas[region][i] = totals[n] - j * length * (1 if region == 0 else -1)
            odds[n] = (totals[n] + int(p * (2 * extent + 1))) // 2


def assert_same(m: int, n_max: int, counts: list, areas: list, xs=None) -> list:
    ref, new = both(m, n_max, counts, areas, lattice_x(counts) if xs is None else xs)
    assert new == ref
    return ref[1]


def test_real_inputs_agree_and_pass():
    for m, n_max in ((0, 400), (7, 300), (30, 200), (120, 600)):
        assert assert_same(m, n_max, *real_inputs(m, n_max)) == []


def test_an_m1_constant_that_clears_jarnik_alone_is_read_from_its_column(monkeypatch):
    """M1_SQRT = OMEGA_LENGTH/2 + 0.2 clears Jarnik's share of the M1 bound
    but not the parity lemma's sqrt(2)/4: at the lemmas' edges M1 fails,
    and a margin without sqrt(2)/4 would pass it."""
    monkeypatch.setattr(lattice, "M1_SQRT", lattice.OMEGA_LENGTH / 2 + 0.2)
    counts, areas = real_inputs(3, 300)
    at_the_edges(3, counts, areas, 0, 0.99, 1.0)
    out = assert_same(3, 300, counts, areas)
    assert {v[3] for v in out} == {"M1 < upper bound"}


def test_an_m2_constant_that_clears_jarnik_alone_is_read_from_its_column(monkeypatch):
    """The same for M2_SQRT = OMEGA_PRIME_LENGTH/2 + 0.5, short of sqrt(3)/2."""
    monkeypatch.setattr(lattice, "M2_SQRT", lattice.OMEGA_PRIME_LENGTH / 2 + 0.5)
    counts, areas = real_inputs(3, 300)
    at_the_edges(3, counts, areas, 1, 0.99, -1.0)
    out = assert_same(3, 300, counts, areas)
    assert {v[3] for v in out} == {"M2 > lower bound"}


def test_an_empty_regions_points_are_decided_point_by_point():
    """Omega is empty at n = 2 for m = 3; an area of -1e6 there, with the
    areas' difference kept, fails M1 while every lemma check passes."""
    counts, areas = real_inputs(3, 300)
    assert counts[0][0][2] == 0
    areas[0][0] = -1e6
    areas[1][0] = -1e6 + bounds.LN2 / 2 * 3
    out = assert_same(3, 300, counts, areas)
    assert out == [(3, 2, "0", "M1 < upper bound")]


def test_the_bound_combination_needs_the_areas_difference():
    """Omega's areas raised and Omega''s lowered by 0.99 of their Jarnik
    lengths pass both lemmas, but A' - A falls below its floor, and the
    bound combination fails, from its column."""
    counts, areas = real_inputs(3, 300)
    at_the_edges(3, counts, areas, 0, -0.99, 0.0)
    at_the_edges(3, counts, areas, 1, -0.99, 0.0)
    out = assert_same(3, 300, counts, areas)
    assert {v[3] for v in out} == {"M2bound-M1bound >= theorem bound"}


def test_a_parity_failure_is_no_premise_for_m1():
    """Every point of a nonempty Omega odd breaks the parity lemma but not
    Jarnik's bound, and M2 - M1 == X still holds: past n ~ 2000, where
    N/2 outgrows M1's bound over A/2, M1 fails, from its column."""
    counts, areas = real_inputs(3, 3000)
    totals, odds = counts[0]
    odds[:] = totals
    texts = [v[3] for v in assert_same(3, 3000, counts, areas)]
    assert set(texts) == {"parity bound |N/2-M| <= sup+1", "M1 < upper bound"}


def ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@contextmanager
def patched(values: dict):
    """The named constants of lattice or bounds set to the given values."""
    with ExitStack() as stack:
        for name, value in values.items():
            module = lattice if hasattr(lattice, name) else bounds
            stack.enter_context(mock.patch.object(module, name, value))
        yield


FEW = st.sampled_from((0, 0, 0, 1, 2))  # how many points to patch


@st.composite
def cross_inputs(draw):
    """(m, n_max, counts, areas, xs, constant patches, slack)."""
    m = draw(st.one_of(st.integers(0, 40), st.sampled_from((120, 5000, 10**6))))
    n_max = draw(st.integers(2, 160))
    which = draw(st.sampled_from(("none", "none", "M1_SQRT", "M2_SQRT", "THEOREM2_SQRT")))
    f, k = draw(st.sampled_from((0.5, 0.9, 1.0, 1.0, 1.1))), draw(st.integers(-4, 4))
    zeros = {  # each margin's zero, moved by a factor of its irrational term
        "M1_SQRT": lattice.OMEGA_LENGTH / 2 + f * math.sqrt(2) / 4,
        "M2_SQRT": lattice.OMEGA_PRIME_LENGTH / 2 + f * math.sqrt(3) / 2,
        "THEOREM2_SQRT": lattice.M1_SQRT + lattice.M2_SQRT + (f - 1),
    }
    patches = {} if which == "none" else {which: ulps(zeros[which], k)}
    slack = draw(st.one_of(st.sampled_from((0.0, 1e-9, 1e-9, 1e-9, 1e-6, 1e-2)),
                           st.sampled_from((1e-9, 1e-8)), st.floats(0, 1e-2)))
    with patched(patches):
        counts, areas = real_inputs(m, n_max)
        for region in (0, 1):
            if draw(st.booleans()):  # j near 1 is tight for M1 and M2 yet keeps D
                j = draw(st.one_of(st.floats(0.9, 1), st.floats(-1, 1)))
                at_the_edges(m, counts, areas, region, j, draw(st.floats(-1, 1)))
    evens = len(areas[0])
    for _ in range(draw(FEW)):
        if evens:
            i = draw(st.integers(0, evens - 1))
            areas[draw(st.integers(0, 1))][i] = draw(st.one_of(
                st.sampled_from((math.nan, math.inf, -math.inf, 0.0, 2.0**52, -2.0**52)),
                st.floats(-2.0**52, 2.0**52)))
    for _ in range(draw(FEW)):
        region, which_list = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        n = draw(st.integers(0, n_max))
        counts[region][which_list][n] = draw(st.sampled_from((0, 1, -1, 2**52))) + (
            counts[region][which_list][n] if draw(st.booleans()) else 0)
    xs = lattice_x(counts)
    if draw(FEW) == 1 and evens:
        xs[2 * draw(st.integers(1, evens))] += draw(st.sampled_from((1, -1)))
    return m, n_max, counts, areas, xs, patches, slack


@given(cross_inputs())
@settings(max_examples=400, deadline=None)
def test_cross_lattice_decides_as_the_column_code(inputs):
    m, n_max, counts, areas, xs, patches, slack = inputs
    with patched({**patches, "NEAR_TIE_SLACK": slack}):
        ref, new = both(m, n_max, counts, areas, xs)
    assert new == ref


@given(st.integers(0, 200), st.integers(2, 120), st.integers(0, 2**50), st.floats(0.9, 1),
       st.floats(0.9, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0.5, 1))
@settings(max_examples=200, deadline=None)
def test_huge_counts_at_the_margin_tests_threshold_agree(m, n_max, shift, jo, jp, po, pp, frac):
    """Both regions at the lemmas' edges, their counts, odd counts and areas
    past the empty regions raised by up to 2^50 (so rounding is coarse), and
    the slack just below where the margin test stops passing."""
    counts, areas = real_inputs(m, n_max)
    at_the_edges(m, counts, areas, 0, jo, po)
    at_the_edges(m, counts, areas, 1, jp, pp)
    shift -= shift % 2
    for i, n in enumerate(range(2, n_max + 1, 2)):
        if counts[0][0][n] and counts[1][0][n]:
            for (totals, odds), area in zip(counts, areas):
                totals[n], odds[n], area[i] = totals[n] + shift, odds[n] + shift // 2, area[i] + shift
    part = verify._cross_part(n_max)
    v = max(map(abs, areas[0] + areas[1])) + part[5] + 2 * m
    with patched({"NEAR_TIE_SLACK": max(0.0, (part[4] / (2 * v) - 2**-46) * frac)}):
        ref, new = both(m, n_max, counts, areas, lattice_x(counts))
    assert new == ref


CONSTANTS = dict(M1_SQRT=2.2, M2_SQRT=3.7, OMEGA_LENGTH=3.6, OMEGA_PRIME_LENGTH=5.5,
                 THEOREM2_SQRT=6)
# the value of one constant at which its margin is zero, the others as given
ZEROS = {"M1_SQRT": 1.8 + math.sqrt(2) / 4, "M2_SQRT": 2.75 + math.sqrt(3) / 2,
         "THEOREM2_SQRT": 5.9}


@given(st.sampled_from(sorted(CONSTANTS)), st.floats(-8, 8), st.integers(-4, 4), st.booleans())
@settings(max_examples=300, deadline=None)
def test_derivation_margins_bound_each_margin_below_with_its_sign(name, value, k, near_zero):
    """Each of derivation_margins' three numbers is at most its margin and
    has its sign, decided in rationals: d1 against m1 - jo/2 - sqrt(1/8)
    and d2 against m2 - jp/2 - sqrt(3/4), at any value of one constant or
    within 4 ulps of its margin's zero."""
    constants = dict(CONSTANTS)
    constants[name] = ulps(ZEROS[name], k) if near_zero and name in ZEROS else value
    d1, d2, d_bc = bounds.derivation_margins(*constants.values())
    m1, m2, jo, jp, t2 = map(Fraction, constants.values())
    for low, x, q in ((d1, m1 - jo / 2, Fraction(1, 8)), (d2, m2 - jp / 2, Fraction(3, 4))):
        assert (low > 0) == (x > 0 and x * x > q)  # margin = x - sqrt(q) > 0
        assert x - low >= 0 and (x - low) ** 2 >= q  # low <= x - sqrt(q)
    assert d_bc == (t2 - m1 - m2) / 2


@pytest.mark.parametrize("name", ["M1_SQRT", "M2_SQRT", "OMEGA_LENGTH", "OMEGA_PRIME_LENGTH",
                                  "THEOREM2_SQRT"])
def test_cross_part_reads_the_constants_at_the_call(monkeypatch, name):
    module = bounds if name == "THEOREM2_SQRT" else lattice
    before = verify._cross_part(40)[3:]
    monkeypatch.setattr(module, name, getattr(module, name) + 0.25)
    assert verify._cross_part(40)[3:] != before
