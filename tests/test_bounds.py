"""Threshold f(m), strict-inequality classification, even-n lower bound."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sptcrank import bounds, lattice, qseries
from sptcrank.bounds import (
    LN2,
    NEAR_TIE_SLACK,
    StrictOutcome,
    all_strictly_less,
    classify_strict,
    f_of_m,
    m2_minus_m1_bound_check,
    strictly_less,
    theorem2_lower_bound,
    threshold_profile,
)

# 50-digit decimal oracle values (ln 2 via atanh(1/3) series)
F0_ORACLE = 1221.8426318056260585400979576467487194484651691390
F120_ORACLE = 2400.4503320521877685083838592271876225647350878292
F121_ORACLE = 2409.3699781092874724679309537272631380513953637911


def test_f_matches_high_precision_oracle():
    assert abs(f_of_m(0) - F0_ORACLE) < 1e-6 * F0_ORACLE
    assert abs(f_of_m(120) - F120_ORACLE) < 1e-6 * F120_ORACLE
    assert abs(f_of_m(121) - F121_ORACLE) < 1e-6 * F121_ORACLE


def test_threshold_crossover():
    # f exceeds 20m through m = 120 and drops below from m = 121 on
    assert f_of_m(120) > 2400
    assert f_of_m(121) < 2420
    for m in range(0, 121):
        assert threshold_profile(m).f_exceeds_20m
    for m in range(121, 200):
        assert not threshold_profile(m).f_exceeds_20m


def test_f_satisfies_its_defining_quadratic():
    # x = f(m) is the larger root of (ln2/4) x - 6 sqrt(x) - m - 2 = 0,
    # i.e. the point where the even-n lower bound with n+1 = x vanishes;
    # perturbing x by a relative 1e-6 flips the sign of the residual
    for m in (0, 7, 120, 121, 500):
        x = f_of_m(m)

        def residual(v):
            return LN2 / 4 * v - 6 * math.sqrt(v) - m - 2

        assert abs(residual(x)) < 1e-9 * x
        assert residual(x * (1 + 1e-6)) > 0 > residual(x * (1 - 1e-6))


def test_f_rejects_negative_m():
    with pytest.raises(ValueError):
        f_of_m(-1)


def test_classify_strict():
    assert classify_strict(1.0, 2.0) is StrictOutcome.PASS
    assert classify_strict(2.0, 1.0) is StrictOutcome.FAIL
    assert classify_strict(1.0, 1.0 + 1e-12) is StrictOutcome.NEAR_TIE
    assert classify_strict(1.0, 1.0 - 1e-12) is StrictOutcome.NEAR_TIE
    # relative: at scale 1e9 a unit margin is still a near-tie
    assert classify_strict(1e9, 1e9 + 1.0) is StrictOutcome.NEAR_TIE
    assert classify_strict(0.0, 1e-30) is StrictOutcome.NEAR_TIE


def test_theorem2_lower_bound_domain():
    with pytest.raises(ValueError):
        theorem2_lower_bound(0, 3)
    with pytest.raises(ValueError):
        theorem2_lower_bound(0, 0)
    with pytest.raises(ValueError):
        theorem2_lower_bound(-1, 4)
    assert theorem2_lower_bound(0, 2) == pytest.approx(
        LN2 / 4 * 3 - 6 * math.sqrt(3) - 2
    )


def test_lower_bound_positive_beyond_threshold():
    for m in (0, 5, 40):
        n = 2 * (math.ceil(f_of_m(m)) // 2 + 1)
        assert theorem2_lower_bound(m, n) > 0


def test_lower_bound_actually_bounds_x():
    for m in (0, 1, 4):
        x = qseries.x_series(m, 600)
        for n in range(2, 601, 2):
            assert x[n] > theorem2_lower_bound(m, n)


def test_bound_combination_step():
    for m in (0, 3, 10):
        for n in range(2, 2001, 68):
            area_o, area_p = (
                lattice.geometry_figures(lattice.RegionSpec(kind, m, n)).area
                for kind in lattice.RegionKind
            )
            m1 = lattice.m1_upper_bound(m, n, area_o)
            m2 = lattice.m2_lower_bound(m, n, area_p)
            assert m2_minus_m1_bound_check(m, n, m1, m2)


def test_bound_combination_near_tie_fails():
    # m2 - m1 a hair below the bound: inside the near-tie slack, so the
    # step is not proved, whichever side of the bound the rounding fell on
    m, n = 3, 100
    rhs = theorem2_lower_bound(m, n)
    m2 = rhs - 4.8e-11
    assert 0 < rhs - m2 < 1e-9 * abs(rhs)
    assert not m2_minus_m1_bound_check(m, n, 0.0, m2)
    assert not m2_minus_m1_bound_check(m, n, 0.0, rhs)
    assert not m2_minus_m1_bound_check(m, n, 0.0, rhs + 4.8e-11)
    assert m2_minus_m1_bound_check(m, n, 0.0, rhs + 1e-6)


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)
operand = st.one_of(st.integers(-10**12, 10**12), finite)


@st.composite
def near_pairs(draw):
    """(smaller, larger) with larger - smaller within +-2e-9 relative of
    zero, either operand an int or a float of either sign."""
    smaller = draw(operand)
    rel = draw(st.floats(-2 * NEAR_TIE_SLACK, 2 * NEAR_TIE_SLACK))
    larger = smaller + rel * max(1.0, abs(smaller))
    return smaller, draw(st.sampled_from((larger, round(larger))))


def classify_reference(smaller, larger) -> str:
    """The near-tie policy, transcribed on its own: margin against scale."""
    scale = max(1.0, abs(smaller), abs(larger))
    margin = larger - smaller
    if margin > NEAR_TIE_SLACK * scale:
        return "pass"
    return "fail" if margin < -NEAR_TIE_SLACK * scale else "near-tie"


@given(st.one_of(st.tuples(operand, operand), near_pairs()))
@settings(max_examples=2000, deadline=None)
def test_strictly_less_is_classify_strict_pass(pair):
    """The hot loops' predicate is True exactly when classify_strict says
    PASS, and both follow the policy's own transcription."""
    expected = classify_reference(*pair)
    assert classify_strict(*pair).value == expected
    assert strictly_less(*pair) is (classify_strict(*pair) is StrictOutcome.PASS)
    assert strictly_less(*pair) is (expected == "pass")


special = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0))
# smaller < larger with room to spare, so that whole columns pass
wide = st.tuples(operand, st.floats(1e-6, 1e6)).map(
    lambda p: (p[0], p[0] + p[1] * max(1.0, abs(p[0])))
)
odd_pair = st.one_of(
    near_pairs(), st.tuples(operand, operand), st.tuples(special, operand),
    st.tuples(operand, special), st.tuples(special, special),
)


@st.composite
def column_pairs(draw):
    """(smaller, larger) columns: mostly wide pairs, with NaN, infinities,
    signed zeros, near-ties and arbitrary pairs at any position."""
    pairs = draw(st.lists(wide, max_size=12))
    for pair in draw(st.lists(odd_pair, max_size=3)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return [p[0] for p in pairs], [p[1] for p in pairs]


@given(column_pairs(), st.sampled_from((NEAR_TIE_SLACK, 0.0, 0.01, -NEAR_TIE_SLACK, -0.5)))
@settings(max_examples=800, deadline=None)
def test_all_strictly_less_is_every_point_strictly_less(columns, slack):
    """The column predicate decides exactly as strictly_less at every point,
    NaN anywhere in either column included, at the policy's margin and at
    patched ones, negative ones included."""
    smaller, larger = columns
    with mock.patch.object(bounds, "NEAR_TIE_SLACK", slack):
        assert all_strictly_less(smaller, larger) is all(map(strictly_less, smaller, larger))


# any magnitude a float or an int can take, so the scale can come from either
huge = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**300, 10**300),
    operand,
)


@given(st.lists(st.tuples(huge, huge), max_size=12))
@settings(max_examples=1000, deadline=None)
def test_scale_from_two_extremes_is_the_largest_magnitude(pairs):
    """Where every gap larger - smaller is > 0, all_strictly_less's scale
    max(1, max(larger), -min(smaller)) is max(1, |s|, |l|) over every point,
    with negatives, magnitudes near the float range and ints in either
    column; and the column predicate still decides as every point does."""
    pairs = [(s, l) for s, l in pairs if s < l and l - s > 0]
    smaller, larger = [s for s, _ in pairs], [l for _, l in pairs]
    magnitudes = max(1.0, max(map(abs, smaller), default=0), max(map(abs, larger), default=0))
    assert max(1.0, max(larger, default=0), -min(smaller, default=0)) == magnitudes
    for slack in (NEAR_TIE_SLACK, 0.0, 0.5):
        with mock.patch.object(bounds, "NEAR_TIE_SLACK", slack):
            expected = all(map(strictly_less, smaller, larger))
            assert all_strictly_less(smaller, larger) is expected


def test_all_strictly_less_sees_a_nan_that_min_skips():
    assert min([1.0, math.nan]) == 1.0
    assert not all_strictly_less([0.0, 0.0], [1.0, math.nan])
    assert not all_strictly_less([0.0, math.nan], [1.0, 2.0])
    assert not all_strictly_less([0.0, -math.inf], [1.0, math.inf])
    assert all_strictly_less([0.0, 1], [1.0, 2.5]) and all_strictly_less([], [])


def derivation_holds() -> bool:
    """bounds.derivation_margins, at the constants as they are, finds every
    margin of the derivation > 0."""
    margins = bounds.derivation_margins(
        lattice.M1_SQRT, lattice.M2_SQRT, lattice.OMEGA_LENGTH, lattice.OMEGA_PRIME_LENGTH,
        bounds.THEOREM2_SQRT,
    )
    return min(margins) > 0


def test_bound_constants_follow_from_the_lemmas():
    assert derivation_holds()


@pytest.mark.parametrize("module, name, value", [
    (lattice, "M1_SQRT", 2.1),
    (lattice, "M2_SQRT", 3.5),
    (lattice, "OMEGA_LENGTH", 3.7),
    (lattice, "OMEGA_PRIME_LENGTH", 5.7),
    (bounds, "THEOREM2_SQRT", 5.9),
])
def test_a_one_digit_change_breaks_the_derivation(monkeypatch, module, name, value):
    monkeypatch.setattr(module, name, value)
    assert not derivation_holds()
