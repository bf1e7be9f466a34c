"""Named q-series builders: product prefixes, X/Y/Z, M_C1/M_C5, T-decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from sptcrank import qseries
from sptcrank.series import divide_by_one_minus_qk
from sptcrank.qseries import (
    SeriesId,
    build_series,
    euler_product,
    mc1_series,
    mc5_series,
    t_series,
    x_inner_series,
    x_series,
    y_series,
    z_series,
)
from test_series import invert_unit

# first coefficients of 1/(q;q)_oo, the unrestricted partition numbers
PARTITIONS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

# derived prefixes, frozen from an independent solve-for-k enumeration oracle
X0_PREFIX = (0, 1, 1, 1, 1, 1, 2, 1, 2, 2, 1)
Y0_PREFIX = (0, 1, 0, 0, 0, 0, 2)
Z0_PREFIX = (0, 1, 1, 0, 1, 0, 2)


def alternating_oracle(sign_out, exponent, modulus, coefficient_at):
    """Independent oracle: coefficient of q^N in
    sign_out * sum_{n>=1} (-1)^n q^exponent(n) / (1 - q^modulus(n)),
    found by solving exponent(n) + k*modulus(n) = N for each n."""
    total = 0
    n = 1
    while exponent(n) <= coefficient_at:
        rem = coefficient_at - exponent(n)
        if rem % modulus(n) == 0:
            total += -1 if n % 2 else 1
        n += 1
    return sign_out * total


def z_oracle(m, N):
    return alternating_oracle(
        -1, lambda n: n * (n + 1) // 2 + m * n, lambda n: n, N
    )


def y_oracle(m, N):
    a = alternating_oracle(
        1, lambda n: n * (n + 1) + 2 * m * n, lambda n: 2 * n, N
    )
    return a + z_oracle(m, N)


def test_euler_product_is_pentagonal():
    # (q;q)_oo = 1 - q - q^2 + q^5 + q^7 - q^12 - ...
    ep = euler_product(1, 1, 14)
    assert ep.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0)


def test_partition_numbers():
    inv = invert_unit(euler_product(1, 1, 10))
    assert inv.coeffs == PARTITIONS


def test_euler_product_validates():
    with pytest.raises(ValueError):
        euler_product(0, 1, 5)
    with pytest.raises(ValueError):
        euler_product(1, 0, 5)


def test_frozen_prefixes():
    assert x_series(0, 10).coeffs == X0_PREFIX
    assert y_series(0, 6).coeffs == Y0_PREFIX
    assert z_series(0, 6).coeffs == Z0_PREFIX


@given(st.integers(0, 6), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_y_z_match_solveforK_oracle(m, N):
    assert y_series(m, N)[N] == y_oracle(m, N)
    assert z_series(m, N)[N] == z_oracle(m, N)


def test_x_is_inner_over_one_minus_q2():
    for m in (0, 1, 4):
        inner = x_inner_series(m, 40)
        lhs = x_series(m, 40)
        # multiply back: (1 - q^2) * X == inner
        back = tuple(
            lhs[n] - (lhs[n - 2] if n >= 2 else 0) for n in range(41)
        )
        assert back == inner.coeffs


def test_mc_series_known_prefixes():
    assert mc1_series(0, 5).coeffs == (0, 1, 1, 1, 1, 2)
    assert mc5_series(0, 6).coeffs == (0, 1, 0, 1, 0, 2, 2)
    assert mc1_series(1, 1)[1] == 0
    assert mc5_series(1, 1)[1] == 0


def test_mc_series_symmetric_in_m():
    for m in range(6):
        assert mc1_series(-m, 30).coeffs == mc1_series(m, 30).coeffs
        assert mc5_series(-m, 30).coeffs == mc5_series(m, 30).coeffs


def test_mc_matches_explicit_pochhammer_inverse():
    inv = invert_unit(euler_product(2, 2, 40))
    for m in (0, 2, 5):
        assert mc1_series(m, 40).coeffs == (x_inner_series(m, 40) * inv).coeffs
        assert mc5_series(m, 40).coeffs == (y_series(m, 40) * inv).coeffs


def even_pochhammer_inverse_times(s):
    """Slow reference for the P2 kernel: multiply by 1/(q^2; q^2)_oo by
    dividing by each factor (1 - q^(2j)) with 2j <= order in turn."""
    out = s
    j = 2
    while j <= s.order:
        out = divide_by_one_minus_qk(out, j)
        j += 2
    return out


def assert_mc_match_successive_division(m, order):
    assert mc1_series(m, order).coeffs == even_pochhammer_inverse_times(
        x_inner_series(abs(m), order)
    ).coeffs
    assert mc5_series(m, order).coeffs == even_pochhammer_inverse_times(
        y_series(abs(m), order)
    ).coeffs


@pytest.mark.parametrize("order", (0, 1, 2, 3, 5, 8, 40, 61, 301))
def test_mc_kernel_matches_successive_division(order):
    for m in range(-3, 31):
        assert_mc_match_successive_division(m, order)


@pytest.mark.parametrize("m", (0, 1, 7, 20))
def test_mc_kernel_matches_successive_division_high_order(m):
    assert_mc_match_successive_division(m, 1004)


def test_p2_kernel_is_even_pochhammer_inverse():
    for order in range(60):
        inv = invert_unit(euler_product(2, 2, order))
        assert qseries._p2_kernel(order) == inv.coeffs


def test_mc_slices_vanish_below_their_shift():
    # the smallest exponent in the m-slice grows with m: nothing below q^(m+1)
    for m in range(1, 12):
        s1 = mc1_series(m, 30)
        s5 = mc5_series(m, 30)
        assert all(s1[n] == 0 for n in range(min(m + 1, 31)))
        assert all(s5[n] == 0 for n in range(min(m + 1, 31)))


def test_t_equals_x_below_20m():
    for m in (1, 3, 7):
        order = 20 * m
        assert t_series(m, order).coeffs == x_series(m, order).coeffs


def test_t_diverges_from_x_eventually():
    # the first discarded term of the double sum for m=1 sits at q^230
    m = 1
    t = t_series(m, 260)
    x = x_series(m, 260)
    assert t.coeffs[:230] == x.coeffs[:230]
    assert any(t[n] != x[n] for n in range(230, 261))


def test_t_component_identity():
    for m in (1, 2, 5):
        order = 20 * m + 10
        comp = (
            qseries.t1(m, order)
            + qseries.t3(m, order)
            + qseries.t5(m, order)
            + qseries.t7(m, order)
            + qseries.t9(m, order)
            + qseries.tprime(m, order)
        )
        assert comp.coeffs == t_series(m, order).coeffs


def test_r2_nonnegative():
    for m in range(1, 11):
        assert qseries.r2(m, 20 * m).nonnegative()


def test_r1_is_tail_components():
    m, order = 2, 60
    r = qseries.r1(m, order)
    expect = qseries.t7(m, order) + qseries.t9(m, order) + qseries.tprime(m, order)
    assert r.coeffs == expect.coeffs


def test_series_id_dispatch():
    assert build_series(SeriesId("X", 0), 10).coeffs == X0_PREFIX
    assert build_series(SeriesId("MC5", 0), 6).coeffs == mc5_series(0, 6).coeffs
    with pytest.raises(ValueError):
        SeriesId("nope")
    with pytest.raises(ValueError):
        SeriesId("X", -1)


def test_negative_m_rejected_by_builders():
    for fn in (x_series, y_series, z_series, x_inner_series, t_series):
        with pytest.raises(ValueError):
            fn(-1, 10)
