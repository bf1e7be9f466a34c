"""Named q-series builders: product prefixes, X/Y/Z, M_C1/M_C5, T-decomposition."""

import random
from itertools import accumulate
from operator import add, is_, sub
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sptcrank import qseries
from sptcrank.series import (
    TruncatedSeries,
    divide_by_one_minus_qk,
    geometric_term,
    sum_series,
)
from sptcrank.qseries import (
    euler_product,
    mc1_series,
    mc5_series,
    t_series,
    x_inner_series,
    x_series,
    y_series,
    z_series,
)
from test_series import invert_unit, nonnegative

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


def times_p2_reference(terms, order):
    """Slow reference for P2 times a sum of terms s * q^a / (1 - q^b), as a
    coefficient list: the kernel prefix of length order+1-a per term,
    summed cumulatively along each residue class mod b (the odd classes stay
    zero for even b), shifted up by a."""
    p2 = qseries._p2_kernel(order)
    acc = [0] * (order + 1)
    for a, b, s in terms:
        g = list(p2[: order + 1 - a])
        for r in range(0, b, 2 - b % 2):
            g[r::b] = accumulate(g[r::b])
        acc[a:] = map(add if s > 0 else sub, acc[a:], g)
    return acc


@pytest.mark.parametrize("m_lo, m_hi, order", [
    (0, 7, 60),
    (8, 15, 60),
    (5, 5, 40),
    (3, 40, 30),  # m_hi > order: every term has dropped out by the end
    (0, 4, 0),
    (0, 4, 1),
    (2, 6, 1),
    (0, 20, 1000),
])
def test_mc_sweep_matches_the_direct_builds(m_lo, m_hi, order):
    swept = list(qseries.mc_sweep(m_lo, m_hi, order))
    assert [m for m, _, _ in swept] == list(range(m_lo, m_hi + 1))
    for m, c1, c5 in swept:
        assert (c1.order, c5.order) == (order, order)
        assert c1.coeffs == mc1_series(m, order).coeffs, (m, order)
        assert c5.coeffs == mc5_series(m, order).coeffs, (m, order)
        assert c1.coeffs == tuple(times_p2_reference(qseries._c1_terms(m, order), order))
        assert c5.coeffs == tuple(times_p2_reference(qseries._c5_terms(m, order), order))
        assert c1.has_negative() == (min(c1.coeffs) < 0)
        assert c5.has_negative() == (min(c5.coeffs) < 0)
        if m >= order:  # M(m, n) = 0 for n <= m
            assert c1.coeffs == c5.coeffs == (0,) * (order + 1)


@pytest.mark.parametrize("m_lo, m_hi, order", [(0, 7, 60), (3, 40, 30), (0, 4, 1), (0, 20, 1000)])
def test_mc_packed_at_the_sweeps_width_equals_its_series_as_ints(m_lo, m_hi, order):
    """mc_packed at a sweep's width gives the sweep's series at every m of
    the run, the same ints field for field; negative m builds |m|."""
    for m, c1, c5 in qseries.mc_sweep(m_lo, m_hi, order):
        assert qseries.mc_packed(m, order, c1.width) == (c1, c5), (m, order)
        assert qseries.mc_packed(-m, order, c1.width) == (c1, c5), (m, order)


def test_mc_sweep_rejects_negative_m():
    with pytest.raises(ValueError):
        next(qseries.mc_sweep(-1, 3, 10))


# -- the packed format of mc_sweep's series ----------------------------------


def packed(coeffs, width=None):
    """coeffs as a qseries.PackedSeries, each parity's int highest power
    first, by default at the least width (a multiple of 8) that holds them."""
    if width is None:
        width = (max(map(abs, coeffs)).bit_length() + 8) // 8 * 8
    even, odd = (qseries._pack(coeffs[p::2][::-1], width) for p in (0, 1))
    return qseries.PackedSeries(len(coeffs) - 1, width, even, odd)


@st.composite
def field_lists(draw, min_size=0):
    """(width, coefficients): 0..80 coefficients of absolute value below
    2^(width-1), the extremes and zeros drawn often."""
    width = draw(st.sampled_from((8, 16, 24, 64, 200)))
    limit = 2 ** (width - 1) - 1
    value = st.one_of(st.sampled_from((0, -1, 1, limit, -limit)), st.integers(-limit, limit))
    return width, draw(st.lists(value, min_size=min_size, max_size=80))


@settings(max_examples=300, deadline=None)
@given(field_lists())
def test_pack_then_unpack_is_the_identity(case):
    width, coeffs = case
    v = qseries._pack(coeffs, width)
    assert 0 <= v < 2 ** (width * len(coeffs))
    assert qseries._unpack(v, width, len(coeffs)) == coeffs


def unpack_by_field(v: int, width: int, fields: int) -> list:
    """Reference decode, one field at a time: the lowest field's bits, less
    2^width when its top bit is set, is its value c, and v - c shifted right
    by width holds the fields above it."""
    out = []
    for _ in range(fields):
        f = v & (1 << width) - 1
        c = f - (1 << width) if f >> width - 1 else f
        out.append(c)
        v = (v - c) >> width
    return out


@pytest.mark.parametrize("width", [*range(8, 72, 8), 80])
def test_unpack_matches_the_field_by_field_decode(width):
    """The lane decode (widths <= 64) and the per-field one (wider) at every
    width a field can have, on the extremes, on carries past the last field
    and on random fields."""
    rng = random.Random(width)
    limit = 2 ** (width - 1) - 1
    for fields in (0, 1, 2, 7, 8, 9, 122):
        cases = [[limit] * fields, [-limit] * fields, [(-1) ** i * (i % 3) for i in range(fields)],
                 [rng.randint(-limit, limit) for _ in range(fields)]]
        for coeffs in cases:
            v = qseries._pack(coeffs, width)
            for extra in (0, 1 << width * fields, 5 << width * fields + 3):
                assert unpack_by_field(v + extra, width, fields) == coeffs
                assert qseries._unpack(v + extra, width, fields) == coeffs, (fields, extra)


@settings(max_examples=300, deadline=None)
@given(field_lists(min_size=1))
def test_packed_series_decodes_and_finds_a_negative(case):
    width, coeffs = case
    s = packed(coeffs, width)
    assert s.coeffs == tuple(coeffs)
    assert s.has_negative() == any(c < 0 for c in coeffs)


@pytest.mark.parametrize("width", (8, 64, 200))
@pytest.mark.parametrize("size", (1, 2, 3, 4, 80, 81))
def test_has_negative_sees_the_first_and_last_field(width, size):
    """A negative alone in the first or the last field of either parity,
    among zeros or among the largest positives, is seen; all zeros and all
    largest positives are not."""
    top = 2 ** (width - 1) - 1
    for fill in (0, top):
        assert not packed([fill] * size, width).has_negative()
        for n in {0, 1, size - 2, size - 1} & set(range(size)):
            coeffs = [fill] * size
            coeffs[n] = -1 if fill == 0 else -top
            assert packed(coeffs, width).has_negative(), (fill, n)


MC_SOURCES = (qseries._x_lead_terms, qseries._y_lead_terms, qseries._z_terms)


@pytest.mark.parametrize("m", (0, 1, 7, 20))
@pytest.mark.parametrize("order", (0, 1, 2, 3, 60, 1001, 2000))
def test_field_width_holds_every_sum(m, order):
    """mc_sweep's width at a run's first m exceeds every coefficient of its
    three accumulators, of M_C1 and of M_C5 there: |c| < 2^(width-1)."""
    live = [list(terms(m, order)) for terms in MC_SOURCES]
    width = qseries._field_width(sum(map(len, live)), order)
    assert width % 8 == 0
    x_lead, y_lead, z = (times_p2_reference(terms, order) for terms in live)
    sums = [x_lead, y_lead, z, list(map(add, x_lead, z)), list(map(add, y_lead, z)),
            list(qseries._p2_kernel(order))]
    assert max(abs(c) for coeffs in sums for c in coeffs) < 2 ** (width - 1)
    (_, c1, c5), = qseries.mc_sweep(m, m, order)
    assert c1.width == c5.width == width


@st.composite
def signed_kernels(draw):
    """(order, kernel): P2's coefficients up to q^order with negative values
    put at the first, the last and random even powers, or all of them
    negated, so that P2's negative part is not 0 and at times its positive
    part is; odd powers stay 0, as in P2."""
    order = draw(st.sampled_from((0, 1, 2, 61, 300, 1001)))
    coeffs = list(qseries._p2_kernel(order))
    evens = range(0, order + 1, 2)
    if draw(st.booleans()):
        coeffs = [-c for c in coeffs]
    value = st.one_of(st.sampled_from((1, 2, 10**12)), st.integers(1, 2**70))
    ends = draw(st.sets(st.sampled_from((0, evens[-1]))))
    picks = ends | draw(st.sets(st.sampled_from(evens), min_size=1, max_size=3))
    for i in picks:
        coeffs[i] = -draw(value)
    return order, tuple(coeffs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signed_kernels(), st.integers(0, 40), st.integers(0, 3))
def test_signed_kernels_go_through_the_shifts(case, m_lo, run):
    """With negative P2 coefficients, P2's negative part is shifted beside
    its positive part: the sweep and the direct build both equal the
    reference at every m, as coefficients and as whole ints, and
    has_negative sees each negative coefficient."""
    order, kernel = case
    with mock.patch.object(qseries, "_p2_kernel", lambda n: kernel[: n + 1]):
        for m, c1, c5 in qseries.mc_sweep(m_lo, m_lo + run, order):
            assert qseries.mc_packed(m, order, c1.width) == (c1, c5), (m, order)
            direct = qseries.mc_packed(m, order)
            sources = (qseries._c1_terms, qseries._c5_terms)
            for terms, swept, built in zip(sources, (c1, c5), direct):
                want = tuple(times_p2_reference(terms(m, order), order))
                for s in (swept, built):
                    assert s.coeffs == want, (m, order)
                    assert s.has_negative() == (min(want) < 0), (m, order)


def record_copies(monkeypatch) -> list:
    """Log (parity, bit length) of each shifted copy of P2 that _times_p2
    and mc_sweep add into a parity int: the parity from the q^a that
    qseries._copier's closure is handed, the copy from the add or sub of
    qseries that it calls."""
    log, parity = [], []
    real_copier = qseries._copier

    def copier(*args):
        add_copy = real_copier(*args)

        def logged_copy(acc, a, s):
            parity.append(a & 1)
            add_copy(acc, a, s)
            parity.pop()

        return logged_copy

    monkeypatch.setattr(qseries, "_copier", copier)
    for name, op in (("add", add), ("sub", sub)):
        def logged(acc, copy, op=op):
            assert parity, "a copy added outside _copier"
            log.append((parity[-1], copy.bit_length()))
            return op(acc, copy)
        monkeypatch.setattr(qseries, name, logged)
    return log


@pytest.mark.parametrize("kernel", ("P2", "signed"))
@pytest.mark.parametrize("order", (60, 61, 1000, 1001))
def test_p2_copies_stop_at_the_order(monkeypatch, kernel, order):
    """Each shifted copy of P2 that mc_sweep or mc_packed adds into a
    parity int has at most width * fields bits of that int: copies are
    shifted down and the fields past q^order fall off, so none is built.
    The odd int has one field less than the even int at even order, and
    Z's q/(1 - q) at m = 0 puts a copy of P2's top field in its top field,
    so a copy one field too high is seen there; at odd order the two ints
    have as many fields."""
    if kernel == "signed":
        real = qseries._p2_kernel
        monkeypatch.setattr(qseries, "_p2_kernel", lambda n: (-1,) + real(n)[1:])
    log = record_copies(monkeypatch)
    width = [c1.width for _, c1, _ in qseries.mc_sweep(0, 12, order)][0]
    qseries.mc_packed(12, order, width)
    for parity, fields in enumerate(qseries._parity_fields(order)):
        bits = [b for p, b in log if p == parity]
        assert bits and max(bits) <= width * fields, parity


# -- per-term reference for the T-components and R2 -------------------------
#
# Each component written out as a sum of geometric terms over (1 - q^2),
# term by term; the term tables in qseries must match these bit for bit.


def _over_one_minus_q2(terms, order):
    return divide_by_one_minus_qk(sum_series(terms, order), 2)


def ref_t1(m, order):
    g = geometric_term
    terms = [
        g(1 + m, 1, order),
        -g(3 + 2 * m, 2, order),
        -g(4 + 2 * m, 2, order),
        -g(10 + 4 * m, 4, order),
        g(14 + 4 * m, 4, order),
        g(52 + 8 * m, 8, order),
        g(200 + 16 * m, 16, order),
        -g(136 + 16 * m, 16, order),
        -g(36 + 8 * m, 8, order),
    ]
    return _over_one_minus_q2(terms, order)


def ref_t3(m, order):
    g = geometric_term
    terms = [
        g(6 + 3 * m, 3, order),
        -g(21 + 6 * m, 6, order),
        -g(30 + 6 * m, 6, order),
        -g(78 + 12 * m, 12, order),
        g(114 + 12 * m, 12, order),
    ]
    return _over_one_minus_q2(terms, order)


def ref_t5(m, order):
    g = geometric_term
    terms = [
        g(15 + 5 * m, 5, order),
        -g(55 + 10 * m, 10, order),
        -g(80 + 10 * m, 10, order),
    ]
    return _over_one_minus_q2(terms, order)


def ref_t7(m, order):
    g = geometric_term
    terms = [
        g(28 + 7 * m, 7, order),
        -g(154 + 14 * m, 14, order),
        -g(105 + 14 * m, 14, order),
    ]
    return _over_one_minus_q2(terms, order)


def ref_t9(m, order):
    g = geometric_term
    terms = [
        g(45 + 9 * m, 9, order),
        -g(171 + 18 * m, 18, order),
        -g(252 + 18 * m, 18, order),
    ]
    return _over_one_minus_q2(terms, order)


def ref_tprime(m, order):
    terms = [
        geometric_term(n * (n + 1) // 2 + n * m, n, order)
        for n in (11, 13, 15, 17, 19)
    ]
    return _over_one_minus_q2(terms, order)


def ref_r1(m, order):
    return ref_t7(m, order) + ref_t9(m, order) + ref_tprime(m, order)


def ref_r2(m, order):
    extra = [0] * (order + 1)

    def put(e):
        if 0 <= e <= order:
            extra[e] += 1

    put(70 + 10 * m)
    for k in range(1 + m, 1 + 2 * m + 1):
        put(k)
    skip3 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m}
    for k in range(2 + m, 6 + 2 * m + 1):
        if k not in skip3:
            put(3 * k)
    skip5 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m, 8 + 2 * m}
    for k in range(3 + m, 10 + 2 * m + 1):
        if k not in skip5:
            put(5 * k)
    extra_series = divide_by_one_minus_qk(TruncatedSeries(order, tuple(extra)), 2)
    return ref_r1(m, order) + extra_series


def r2_numerator_reference(r1, m):
    """Slow reference for qseries.r2_numerator: R1's list plus q^e for each
    leftover exponent e of R2 within its length, one exponent at a time."""
    skip3 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m}
    skip5 = {2 + 2 * m, 4 + 2 * m, 6 + 2 * m, 8 + 2 * m}
    extra = [
        70 + 10 * m,
        *range(1 + m, 2 * m + 2),
        *(3 * k for k in range(2 + m, 6 + 2 * m + 1) if k not in skip3),
        *(5 * k for k in range(3 + m, 10 + 2 * m + 1) if k not in skip5),
    ]
    out = list(r1)
    for e in extra:
        if e < len(out):
            out[e] += 1
    return out


def test_r2_numerator_matches_the_exponent_loop():
    """Every m <= 300, at prefixes that cut the leftover groups at their
    first exponents, at 20m, and just below, at and above 70 + 10m."""
    for m in range(301):
        for size in (1, 2, 20 * m + 1, 70 + 10 * m, 70 + 10 * m + 1):
            r1 = [(7 * i) % 5 - 2 for i in range(size)]
            want = r2_numerator_reference(r1, m)
            assert qseries.r2_numerator(r1, m) is r1  # updated in place
            assert r1 == want, (m, size)


TABLE_SHIFTS = sorted(set(range(11)) | set(range(0, 121, 7)))


@pytest.mark.parametrize("m", TABLE_SHIFTS)
def test_term_tables_match_per_term_reference(m):
    order = 20 * m
    pairs = [
        (qseries.t1, ref_t1), (qseries.t3, ref_t3), (qseries.t5, ref_t5),
        (qseries.t7, ref_t7), (qseries.t9, ref_t9), (qseries.tprime, ref_tprime),
        (qseries.r1, ref_r1), (qseries.r2, ref_r2),
    ]
    for table, reference in pairs:
        assert table(m, order).coeffs == reference(m, order).coeffs, table.__name__
    refs = (ref_t1, ref_t3, ref_t5, ref_t7, ref_t9, ref_tprime)
    comp = sum_series((f(m, order) for f in refs), order)
    assert _over_q2(qseries.lambert_part("T-components", m, order)) == comp.coeffs


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
        assert nonnegative(qseries.r2(m, 20 * m))


def test_r1_is_tail_components():
    m, order = 2, 60
    r = qseries.r1(m, order)
    expect = qseries.t7(m, order) + qseries.t9(m, order) + qseries.tprime(m, order)
    assert r.coeffs == expect.coeffs


def test_negative_m_rejected_by_builders():
    for fn in (x_series, y_series, z_series, x_inner_series, t_series):
        with pytest.raises(ValueError):
            fn(-1, 10)


# -- lambert_sweep against the direct builds ---------------------------------


def _over_q2(coeffs):
    return divide_by_one_minus_qk(TruncatedSeries(len(coeffs) - 1, tuple(coeffs)), 2).coeffs


SWEEP_DIRECT = {
    "X": lambda m, order: x_series(m, order).coeffs,
    "Y": lambda m, order: y_series(m, order).coeffs,
    "Z": lambda m, order: z_series(m, order).coeffs,
    "T": lambda m, order: t_series(m, order).coeffs,
    "T-components": lambda m, order: _over_q2(qseries.lambert_part("T-components", m, order)),
    "R1": lambda m, order: qseries.r1(m, order).coeffs,
}


@pytest.mark.parametrize("m_lo, m_hi, order", [
    (0, 7, 60),
    (8, 15, 160),
    (5, 5, 40),
    (0, 12, 200),  # T's and the tables' terms leave mid-block
    (3, 40, 30),  # m_hi > order: every term has dropped out by the end
    (0, 4, 0),
    (0, 4, 1),
    (2, 6, 1),
])
def test_lambert_sweep_matches_the_direct_builds(m_lo, m_hi, order):
    parts = tuple(SWEEP_DIRECT)
    swept = qseries.lambert_sweep(parts, m_lo, m_hi, order)
    ms = []
    for m, lists in swept:
        ms.append(m)
        for name, acc in zip(parts, lists):
            assert len(acc) == order + 1
            assert acc == qseries.lambert_part(name, m, order), (name, m)
            got = tuple(acc) if name in ("Y", "Z") else _over_q2(acc)
            assert got == SWEEP_DIRECT[name](m, order), (name, m)
        r2 = _over_q2(qseries.r2_numerator(list(lists[parts.index("R1")]), m))
        assert r2 == qseries.r2(m, order).coeffs, m
        assert r2 == ref_r2(m, order).coeffs, m
    assert ms == list(range(m_lo, m_hi + 1))


def test_lambert_sweep_terms_leave_mid_block():
    """The (0, 12, 200) block above loses terms of T and of the tables at
    some steps while it keeps others: it covers leaving terms."""
    def count(name, m):
        return sum(1 for _ in qseries.LAMBERT_PARTS[name](m, 200))

    for name in ("T", "T-components", "R1", "X"):
        counts = [count(name, m) for m in range(13)]
        assert counts[0] > counts[-1] > 0, name


@pytest.mark.parametrize("order", (0, 1, 60, 2400))
@pytest.mark.parametrize("m_lo", (0, 5))
@pytest.mark.parametrize("name", sorted(qseries.LAMBERT_PARTS))
def test_lambert_sweep_steps_by_the_terms_at_the_previous_m(monkeypatch, name, m_lo, order):
    """The step to m drops the leading monomial of each term at m - 1, in
    the order the term source gives them, though the sweep generates the
    terms only at m_lo and carries them forward.  Over the 150 steps terms
    of every source leave from m = 0 at order 60, and of T, the
    T-components and R1 at order 2400."""
    calls, lengths = [], []
    real = qseries._drop_monomial

    def drop(acc, a, s):
        calls.append((a, s))
        real(acc, a, s)

    monkeypatch.setattr(qseries, "_drop_monomial", drop)
    terms = qseries.LAMBERT_PARTS[name]
    m_hi = m_lo + 150
    for m, _ in qseries.lambert_sweep((name,), m_lo, m_hi, order):
        want = [] if m == m_lo else [(a, s) for a, _, s in terms(m - 1, order)]
        assert calls == want, m
        calls.clear()
        lengths.append(len(want))
    assert m == m_hi
    if (order, m_lo) == (60, 0) or order == 2400 and name in ("T", "T-components", "R1"):
        assert lengths[1] > lengths[-1], "no term leaves mid-run"


def test_lambert_sweep_hands_on_drop_each_dropped_monomial(monkeypatch):
    """on_drop(acc, terms) is called once per list and step, after that
    list's _drop_monomial(acc, a, s) calls, with the list already changed and
    the terms LAMBERT_PARTS[name](m - 1, order) whose monomials were dropped;
    the sweep's lists are unchanged by it."""
    parts, order = ("X", "T"), 400
    calls, handed = [], []
    real = qseries._drop_monomial

    def drop(acc, a, s):
        calls.append(("drop", a, s))
        real(acc, a, s)

    def on_drop(acc, terms):
        calls.append(("on_drop", list(acc), terms))
        handed.append(acc)

    monkeypatch.setattr(qseries, "_drop_monomial", drop)
    plain = [[list(c) for c in lists] for _, lists in qseries.lambert_sweep(parts, 0, 30, order)]
    assert len(calls) > 100
    calls.clear()
    for m, lists in qseries.lambert_sweep(parts, 0, 30, order, on_drop):
        assert lists == plain[m], m
        want = []
        for name in parts if m else ():
            terms = list(qseries.LAMBERT_PARTS[name](m - 1, order))
            want += [("drop", a, s) for a, _, s in terms]
            want.append(("on_drop", qseries.lambert_part(name, m, order), terms))
        assert calls == want, m
        assert len(handed) == len(lists) if m else not handed
        assert all(map(is_, handed, lists)), m  # the yielded lists themselves
        calls.clear()
        handed.clear()


def test_lambert_sweep_x_on_the_finite_window_scale():
    for m, (acc,) in qseries.lambert_sweep(("X",), 0, 120, 2400):
        assert _over_q2(acc) == x_series(m, 2400).coeffs, m


def test_lambert_sweep_rejects_negative_m():
    with pytest.raises(ValueError):
        next(qseries.lambert_sweep(("X",), -1, 3, 10))


def test_every_term_row_moves_by_its_modulus():
    """lambert_sweep's step needs each row's exponent alpha + beta*m to grow
    by exactly its modulus b per unit of m."""
    broken = [
        (name, row) for name, rows in qseries.T_ROWS.items() for row in rows if row[1] != row[2]
    ]
    assert broken == []
