"""Truncated-series ring: axioms, inversion, geometric helpers."""

from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from sptcrank import series
from sptcrank.series import (
    ParitySums,
    TruncatedSeries,
    divide_by_one_minus_qk,
    geometric_term,
    negative_running_sum,
    over_one_minus_qk,
    sum_series,
)

# -- test-only constructors and inspection helpers --------------------------


def from_coeffs(coeffs, order=None):
    """Build from a coefficient list, zero-padding up to `order` if given."""
    coeffs = list(coeffs)
    if order is None:
        order = len(coeffs) - 1
    if len(coeffs) < order + 1:
        coeffs += [0] * (order + 1 - len(coeffs))
    return TruncatedSeries(order, tuple(coeffs[: order + 1]))


def zero(order):
    return TruncatedSeries(order, (0,) * (order + 1))


def one(order):
    return TruncatedSeries(order, (1,) + (0,) * order)


def monomial(exponent, order, coeff=1):
    """coeff * q^exponent, or zero if the exponent exceeds the order."""
    c = [0] * (order + 1)
    if 0 <= exponent <= order:
        c[exponent] = coeff
    return TruncatedSeries(order, tuple(c))


def is_zero(s):
    return not any(s.coeffs)


def min_coefficient(s):
    return min(s.coeffs)


def nonnegative(s):
    return all(c >= 0 for c in s.coeffs)


def scale(s, k):
    return TruncatedSeries(s.order, tuple(k * c for c in s.coeffs))


short_series = st.integers(0, 12).flatmap(
    lambda n: st.lists(
        st.integers(-50, 50), min_size=n + 1, max_size=n + 1
    ).map(lambda cs: TruncatedSeries(n, tuple(cs)))
)


def test_construction_validates_length():
    with pytest.raises(ValueError):
        TruncatedSeries(3, (1, 2))
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())


@pytest.mark.parametrize("coeffs", ((-0.5, 1), (True, 0), ("3", 0), (1, 2.0)))
def test_construction_rejects_non_int_coefficients(coeffs):
    # checked, not coerced: int(-0.5) would turn a negative into a zero
    with pytest.raises(TypeError):
        TruncatedSeries(1, coeffs)


def test_construction_rejects_non_tuple_coeffs():
    with pytest.raises(TypeError):
        TruncatedSeries(1, [0, 1])


def test_constructors():
    assert zero(3).coeffs == (0, 0, 0, 0)
    assert one(2).coeffs == (1, 0, 0)
    assert monomial(2, 4, coeff=-3).coeffs == (0, 0, -3, 0, 0)
    assert is_zero(monomial(9, 4))
    assert from_coeffs([1, 2], order=4).coeffs == (1, 2, 0, 0, 0)


def test_inspection_helpers():
    s = from_coeffs([0, 3, -1, 2])
    assert s[2] == -1
    assert min_coefficient(s) == -1
    assert not nonnegative(s)
    assert s.truncate(1).coeffs == (0, 3)
    with pytest.raises(ValueError):
        s.truncate(10)


@given(short_series, short_series, short_series)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    n = min(a.order, b.order, c.order)
    # commutativity
    assert (a + b).truncate(n).coeffs == (b + a).truncate(n).coeffs
    assert (a * b).truncate(n).coeffs == (b * a).truncate(n).coeffs
    # associativity of multiplication on the common prefix
    assert ((a * b) * c).truncate(n).coeffs == (a * (b * c)).truncate(n).coeffs
    # distributivity
    lhs = (a * (b + c)).truncate(n)
    rhs = (a * b + a * c).truncate(n)
    assert lhs.coeffs == rhs.coeffs
    # additive inverse
    assert is_zero(a - a)
    assert is_zero(a + (-a))


@given(short_series)
@settings(max_examples=100, deadline=None)
def test_identities(a):
    assert (a + zero(a.order)).coeffs == a.coeffs
    assert (a * one(a.order)).coeffs == a.coeffs
    assert scale(a, 3).coeffs == tuple(3 * c for c in a.coeffs)


def invert_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with constant term +1 or -1.

    Standard recursive convolution: with a_0 = s, b_0 = s and
    b_n = -s * sum_{k=1..n} a_k b_{n-k}.
    """
    c = a.coeffs
    if c[0] not in (1, -1):
        raise ValueError(
            f"constant term must be +1 or -1 to invert over the integers, got {c[0]}"
        )
    s = c[0]
    b = [s] + [0] * a.order
    for k in range(1, a.order + 1):
        b[k] = -s * sum(c[i] * b[k - i] for i in range(1, k + 1) if c[i])
    return TruncatedSeries(a.order, tuple(b))


@given(short_series)
@settings(max_examples=100, deadline=None)
def test_invert_unit_roundtrip(a):
    cs = list(a.coeffs)
    cs[0] = 1
    u = TruncatedSeries(a.order, tuple(cs))
    assert (u * invert_unit(u)).coeffs == one(a.order).coeffs
    v = -u
    assert (v * invert_unit(v)).coeffs == one(a.order).coeffs


def test_invert_unit_rejects_nonunit():
    with pytest.raises(ValueError):
        invert_unit(from_coeffs([2, 1, 1]))
    with pytest.raises(ValueError):
        invert_unit(from_coeffs([0, 1]))


def test_geometric_term():
    assert geometric_term(0, 1, 4).coeffs == (1, 1, 1, 1, 1)
    assert geometric_term(3, 2, 8).coeffs == (0, 0, 0, 1, 0, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        geometric_term(-1, 1, 4)
    with pytest.raises(ValueError):
        geometric_term(0, 0, 4)


@given(short_series, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_fast_division_is_bit_identical_to_mul(a, k):
    fast = divide_by_one_minus_qk(a, k)
    slow = a * geometric_term(0, k, a.order)
    assert fast.coeffs == slow.coeffs


def negative_over_one_minus_q2(coeffs, lo: int = 0) -> bool:
    """Whether some coefficient n >= lo of the list or tuple coeffs / (1 - q^2)
    is negative, that is min(over_one_minus_qk(coeffs, 2)[lo:]) < 0, decided
    on the running sums of each parity class coeffs[r::2], without building
    the quotient.  Each class's sum up to its first n >= lo is one sum, and
    the running sums start there.  The reference for ParitySums and for
    x-small-n's carried verdicts."""
    for r in (0, 1):
        first = lo + (lo - r) % 2 if lo > r else r  # the class's first n >= lo
        if first < len(coeffs) and min(
            accumulate(coeffs[first + 2::2], initial=sum(coeffs[r:first + 1:2]))
        ) < 0:
            return True
    return False


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_negative_over_one_minus_q2_reads_the_quotient(coeffs):
    """The sign test agrees with the quotient's minimum from every lo on,
    including lo = len - 1, where one parity class has no n >= lo."""
    quotient = over_one_minus_qk(coeffs, 2)
    for lo in range(len(coeffs)):
        assert negative_over_one_minus_q2(coeffs, lo) == (min(quotient[lo:]) < 0), lo
    assert negative_over_one_minus_q2(coeffs) == negative_over_one_minus_q2(coeffs, 0)


def test_negative_over_one_minus_q2_reads_each_parity_class():
    assert negative_over_one_minus_q2([0, 1, 0, -2])  # -1 at q^3
    assert not negative_over_one_minus_q2([0, 1, 0, -1])
    assert not negative_over_one_minus_q2([-1, 0, 1], 1)  # -1 at q^0 only
    assert negative_over_one_minus_q2([-1, 0, 0], 1)  # -1 at q^2
    assert not negative_over_one_minus_q2([], 0)


@given(st.lists(st.integers(-4, 4), max_size=60))
@settings(max_examples=300, deadline=None)
def test_sums_up_to_the_negative_terms_decide_the_running_sums(coeffs):
    """negative_running_sum, given the indices of the negative terms, is
    negative_over_one_minus_q2 of the whole list."""
    negatives = {n for n, c in enumerate(coeffs) if c < 0}
    assert negative_running_sum(coeffs, negatives) == negative_over_one_minus_q2(coeffs)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_carried_parity_sums_give_the_fresh_window_verdict(data):
    """ParitySums, read after read of one list, gives the verdict of
    negative_over_one_minus_q2(x[: hi + 1], lo) and of the quotient itself.
    Between reads, batches of monomials are dropped below, inside and above
    the window, as a sweep's steps drop them: all of a batch's changes are
    made, then the batch is handed to drop.  An exponent can repeat within a
    batch, and one change to a copy of the list is handed to drop, which
    must ignore it.  The windows' ends mostly move up, as the finite window's
    do; a window that moves down, or one read of a copy, starts the sums
    over."""
    n = data.draw(st.integers(1, 40), "length")
    x = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n), "x")
    sums = ParitySums()
    lo = hi = 0
    for _ in range(data.draw(st.integers(1, 12), "reads")):
        drops = st.tuples(st.integers(0, n - 1), st.integers(1, 9), st.integers(-4, 4))
        for batch in data.draw(st.lists(st.lists(drops, max_size=6), max_size=3), "batches"):
            if batch and data.draw(st.booleans(), "repeat an exponent"):
                (a, b, _), s = batch[0], data.draw(st.integers(-4, 4), "repeated s")
                batch.append((a, b, s))
            for a, _, s in batch:
                x[a] -= s
            sums.drop(x, batch)
        copy = list(x)
        copy[0] -= 1
        sums.drop(copy, [(0, 2, 1)])
        if data.draw(st.integers(0, 3), "0: window drawn afresh") > 0:
            lo = min(lo + data.draw(st.integers(0, 3), "lo step"), n)
            hi = min(hi + data.draw(st.integers(0, 6), "hi step"), n - 1)
        else:
            lo, hi = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        read = copy if data.draw(st.booleans(), "read a copy") else x
        want = negative_over_one_minus_q2(read[: hi + 1], lo)
        assert want == (min(over_one_minus_qk(read[: hi + 1], 2)[lo:], default=0) < 0)
        assert sums.negative(read, lo, hi) == want, (lo, hi)
        if read is copy:
            sums.negative(x, lo, hi)  # back on x, as a sweep would be
        for r in (0, 1):  # the sums the docstring names, of the list last read
            end, top = (max(i + 1, 0) for i in (sums.ends[r], sums.tops[r]))  # slice stops
            assert sums.sums[r] == sum(x[r:end:2]), r
            assert sums.lows[r] == sum(c for c in x[end + 1 : top : 2] if c < 0), r


def test_carried_parity_sums_read_only_an_open_window(monkeypatch):
    """A window whose carried sums add to >= 0 is decided without reading
    its running sums; a negative class is still found once they do not.  A
    batch that drops q^4 twice lifts it from -1 to 1, which takes its -1 off
    the negative terms; one that drops q^0 twice lowers the sum below the
    window by both."""
    reads = []
    monkeypatch.setattr(series, "accumulate", lambda c, initial: reads.append(initial) or [initial])
    x = [5, 5] + [-1, 1] * 4
    sums = ParitySums()
    assert not sums.negative(x, 0, len(x) - 1)
    assert (sums.sums, sums.lows, reads) == ([5, 5], [-4, 0], [])
    x[4] += 2
    sums.drop(x, [(4, 2, -1), (4, 2, -1)])
    assert sums.lows == [-3, 0]
    x[0] -= 5
    sums.drop(x, [(0, 2, 2), (0, 2, 3)])
    assert sums.sums == [0, 5]
    monkeypatch.undo()
    assert sums.negative(x, 0, len(x) - 1)  # the even class reads -1 at q^2


def test_sum_series():
    terms = [geometric_term(i, 1, 5) for i in range(3)]
    assert sum_series(terms, 5).coeffs == (1, 2, 3, 3, 3, 3)
    assert is_zero(sum_series([], 4))
    # longer terms are truncated, not an error
    assert sum_series([geometric_term(0, 1, 9)], 3).coeffs == (1, 1, 1, 1)


def test_mixed_order_truncates_to_shorter():
    a = geometric_term(0, 1, 10)
    b = geometric_term(0, 1, 3)
    assert (a + b).order == 3
    assert (a * b).order == 3
