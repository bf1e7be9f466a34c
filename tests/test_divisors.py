"""Divisor-pair census path and its agreement with the series path."""

import math
import random
import tracemalloc
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from sptcrank import divisors, lattice, qseries, verify
from sptcrank.divisors import (
    DivisorPairCensus,
    OddPartDecomposition,
    _tallies,
    census,
    census_rows,
    containment_violation,
    y_direct,
    z_direct,
)


def x_direct(m: int, n: int) -> int:
    """X^(m)(n) by the parity split: odd n sums Z^(m) over odd k <= n;
    even n >= 2 is the odd-y lattice count difference M2 - M1; n = 0 is 0."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0
    if n % 2 == 1:
        return sum(z_direct(m, k) for k in range(1, n + 1, 2))
    omega = lattice.count_region(lattice.RegionSpec(lattice.RegionKind.OMEGA, m, n))
    omega_p = lattice.count_region(
        lattice.RegionSpec(lattice.RegionKind.OMEGA_PRIME, m, n)
    )
    return omega_p.odd_y - omega.odd_y


def divisor_pairs(odd_n: int):
    """All ordered pairs (d1, d2) with d1*d2 = odd_n, by trial division to sqrt."""
    d = 1
    while d * d <= odd_n:
        if odd_n % d == 0:
            yield (d, odd_n // d)
            if d * d != odd_n:
                yield (odd_n // d, d)
        d += 2  # odd_n is odd, so only odd divisors exist


def census_by_trial_division(m: int, n: int) -> DivisorPairCensus:
    """Reference census: the four set definitions over trial-division pairs."""
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    p = 1 << e
    lo = 2 * m + 1
    counts = [0, 0, 0, 0]
    for d1, d2 in divisor_pairs(n):
        for i, v in enumerate((d2 - p * d1, d2 - 2 * p * d1, 2 * p * d2 - d1, p * d2 - d1)):
            if v >= lo and v % 2 == 1:
                counts[i] += 1
    return DivisorPairCensus(*counts)


def odd_divisors(n: int) -> list:
    """The divisors of the odd n, ascending: the d <= sqrt(n) by trial
    division, then their cofactors n // d in reverse, a square's root once."""
    small = [d for d in range(1, math.isqrt(n) + 1, 2) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def pair_tally(d1: int, d2: int, e: int, top: int) -> tuple:
    """(counts, keys) of the one ordered pair (d1, d2) at 2-adic valuation e:
    per set, its value if odd and >= top, or the key 4*(v//2) + i of its odd
    positive value v < top in the i-th set, by the four set definitions."""
    p = 2**e
    counts, keys = [0, 0, 0, 0], []
    for i, v in enumerate((d2 - p * d1, d2 - 2 * p * d1, 2 * p * d2 - d1, p * d2 - d1)):
        if v % 2 == 1 and v >= top:
            counts[i] += 1
        elif v % 2 == 1 and v > 0:
            keys.append(4 * (v // 2) + i)
    return counts, keys


def tally_by_trial_division(n: int, top: int) -> tuple:
    """(e, counts, sorted keys) of n = 2^e * N at top, as the block reader
    gives them: pair_tally summed over the divisor pairs of N."""
    dec = OddPartDecomposition.of(n)
    counts, keys = [0, 0, 0, 0], []
    divs = odd_divisors(dec.odd_part)
    for d1, d2 in zip(divs, reversed(divs)):
        c, k = pair_tally(d1, d2, dec.e, top)
        counts = list(map(add, counts, c))
        keys += k
    return dec.e, counts, sorted(keys)


def read_by_blocks(edges: list, top: int) -> list:
    """The reader's (e, counts, sorted keys) for every n in [edges[0], edges[-1]),
    one _tallies call per block [edges[i], edges[i+1] - 1]."""
    out = []
    for lo, end in zip(edges, edges[1:]):
        out += [(e, list(c), sorted(k)) for e, c, k in _tallies(lo, end - 1, top)]
    return out


def test_odd_part_decomposition():
    d = OddPartDecomposition.of(48)
    assert (d.e, d.odd_part, d.n) == (4, 3, 48)
    assert OddPartDecomposition.of(1) == OddPartDecomposition(0, 1)
    with pytest.raises(ValueError):
        OddPartDecomposition.of(0)
    with pytest.raises(ValueError):
        OddPartDecomposition(1, 4)


@given(st.integers(1, 10**6).map(lambda k: 2 * k - 1))
@settings(max_examples=60, deadline=None)
def test_divisor_pairs_complete(odd_n):
    pairs = set(divisor_pairs(odd_n))
    assert all(d1 * d2 == odd_n for d1, d2 in pairs)
    # count equals the divisor function, computed by brute force on small n
    if odd_n <= 2000:
        assert len(pairs) == sum(1 for d in range(1, odd_n + 1) if odd_n % d == 0)


def test_census_matches_trial_division():
    for m in range(31):
        for n in range(1, 2001):
            assert census(m, n) == census_by_trial_division(m, n), (m, n)


@pytest.mark.parametrize("n", [4095, 4096, 4097, 3 * 5 * 7 * 11 * 13, 2**13 - 1, 9999, 65535, 3**10])
def test_census_beyond_the_smallest_table(n):
    for m in (0, 1, 7, 40):
        assert census(m, n) == census_by_trial_division(m, n)
        assert census(m, 2 * n) == census_by_trial_division(m, 2 * n)


P, Q = 999983, 1000003  # the primes either side of 10^6


def test_odd_divisors_match_brute_force():
    for n in range(1, 5000, 2):
        assert odd_divisors(n) == [d for d in range(1, n + 1, 2) if n % d == 0], n


@pytest.mark.parametrize("n, expected", [
    (1, [1]),
    (9, [1, 3, 9]),
    (3**10, [3**k for k in range(11)]),
    (P * P, [1, P, P * P]),
    (P * Q, [1, P, Q, P * Q]),
])
def test_odd_divisors_of_squares_and_a_large_semiprime(n, expected):
    # ascending, and a square's root appears once
    assert odd_divisors(n) == expected


@pytest.mark.parametrize("width", [1, 7, 256])
@pytest.mark.parametrize("top", [1, 3, 241])
def test_reader_matches_trial_division_tally(width, top):
    """Every n <= 5000, read in blocks of the width with an edge at each
    power of two, gives the per-n trial division tally."""
    edges = sorted(set(range(1, 5001, width)) | {2**k for k in range(13)} | {5001})
    assert read_by_blocks(edges, top) == [
        tally_by_trial_division(n, top) for n in range(1, 5001)
    ]


@pytest.mark.parametrize("top", [1, 241])
def test_reader_matches_trial_division_tally_at_2_to_17(top):
    n_lo = 2**17
    assert read_by_blocks([n_lo, n_lo + 256], top) == [
        tally_by_trial_division(n, top) for n in range(n_lo, n_lo + 256)
    ]


@pytest.mark.parametrize("n", [P * Q, 2 * P * Q, P * P, 2**5 * 3**10])
@pytest.mark.parametrize("top", [1, 241, 2 * Q - P])
def test_reader_matches_trial_division_tally_at_one_n(n, top):
    assert read_by_blocks([n, n + 1], top) == [tally_by_trial_division(n, top)]


def test_census_far_beyond_any_table():
    # a table of every odd N up to P * Q would hold ~5 * 10^11 rows
    for n in (P * Q, 2 * P * Q):
        for m in (0, (2 * Q - P) // 2, Q):
            assert census(m, n) == census_by_trial_division(m, n), (m, n)


def test_y_worker_holds_no_divisor_state():
    # one y-nonneg part at n ~ 2^17; a table of every odd N < 2^18 takes ~30 MB
    tracemalloc.start()
    try:
        violations, _ = verify._y_worker((2**17, 2**17 + 255, 120))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak < 1 << 20


def census_runs(n_lo: int, n_hi: int, m_max: int) -> list:
    """Reference run reader: [(e, runs), ...] for n_lo <= n <= n_hi = 2^e * odd,
    runs = [(m_lo, m_hi, c), ...] ascending over 0..m_max, c == census(m, n)
    for m_lo <= m <= m_hi.  An odd v is >= 2m+1 exactly when v // 2 >= m, so
    a set's count at m adds its keys at v // 2 >= m.  Reads divisors._tallies
    through the module, so a patched reader is read too."""
    if m_max < 0 or n_lo < 1:
        raise ValueError("m_max must be non-negative and n_lo positive")
    out = []
    for e, counts, keys in divisors._tallies(n_lo, n_hi, 2 * m_max + 1):
        # Walk the keys from the highest v down, adding each to its set's count.
        keys = sorted(keys, reverse=True)
        counts = list(counts)
        runs = []
        hi = m_max
        for key in keys:
            k = key >> 2
            if k < hi:
                runs.append((k + 1, hi, DivisorPairCensus._make(counts)))
                hi = k
            counts[key & 3] += 1
        runs.append((0, hi, DivisorPairCensus._make(counts)))
        out.append((e, runs[::-1]))
    return out


def y_worker_reference(args):
    """verify._y_worker as it read census_runs: each run's census worded by
    containment_violation and checked for Y >= 0."""
    n_lo, n_hi, m_max = args
    out = []
    for n, (e, runs) in enumerate(census_runs(n_lo, n_hi, m_max), n_lo):
        for m_lo, m_hi, c in runs:
            bad = containment_violation(c, e)
            if bad is not None:
                out += ((m, n, f"{c}", bad) for m in range(m_lo, m_hi + 1))
            if c.y < 0:
                out += ((m, n, str(c.y), "Y^(m)(n) >= 0") for m in range(m_lo, m_hi + 1))
    return verify._capped(out), 0


def randomly_corrupted(seed: int, m_max: int):
    """_tallies with, in some rows, counts moved by -1..2 and keys added at
    random sets and values v // 2 <= m_max + 2, or moved to another set."""
    real = divisors._tallies

    def tallies(n_lo, n_hi, top):
        rng = random.Random(f"{seed}/{n_lo}")
        rows = real(n_lo, n_hi, top)
        for i in rng.sample(range(len(rows)), min(len(rows), 40)):
            e, counts, keys = rows[i]
            counts = [max(0, c + rng.choice((-1, 0, 0, 1, 2))) for c in counts]
            keys = [key ^ rng.choice((0, 0, 1, 3)) for key in keys]
            keys += [4 * rng.randint(0, m_max + 2) + rng.randrange(4) for _ in range(rng.randrange(4))]
            rows[i] = (e, counts, keys)
        return rows

    return tallies


@pytest.mark.parametrize("seed", range(6))
def test_y_worker_matches_the_run_reference_on_corrupted_tallies(monkeypatch, seed):
    """The fast worker decides each run of m from its four counts and words
    only a failing one; the reference words every run's census.  They agree
    on tallies corrupted at random, over blocks of both parities of e."""
    m_max = (0, 1, 5, 12, 40, 120)[seed]
    monkeypatch.setattr(divisors, "_tallies", randomly_corrupted(seed, m_max))
    for part in [(1, 256, m_max), (257, 700, m_max), (2**12 - 40, 2**12 + 40, m_max)]:
        got = verify._y_worker(part)
        assert got == y_worker_reference(part), part
        assert got[0], part  # the corruption broke some containment


def expand_runs(runs: list, m_max: int) -> list:
    """One n's census_runs runs, expanded to one census per m <= m_max."""
    out = []
    for m_lo, m_hi, c in runs:
        assert m_lo == len(out) and m_hi >= m_lo
        out += [c] * (m_hi - m_lo + 1)
    assert len(out) == m_max + 1
    return out


def census_by_m(n: int, m_max: int) -> list:
    """census_runs' runs for the one-n block n, one census per m <= m_max."""
    [(e, runs)] = census_runs(n, n, m_max)
    assert e == OddPartDecomposition.of(n).e
    return expand_runs(runs, m_max)


def test_census_sweep_matches_trial_division():
    """census_runs, block by block as y-nonneg reads it, equals the trial
    division census at every m <= 125 and n <= 2400."""
    by_n = [[census_by_trial_division(m, n) for m in range(126)] for n in range(1, 2401)]
    for m_max in (125, 0, 1, 6):
        for n_lo in range(1, 2401, verify.Y_BLOCK):
            n_hi = min(n_lo + verify.Y_BLOCK - 1, 2400)
            block = census_runs(n_lo, n_hi, m_max)
            assert [e for e, _ in block] == [
                OddPartDecomposition.of(n).e for n in range(n_lo, n_hi + 1)
            ]
            for n, (_, runs) in enumerate(block, n_lo):
                assert expand_runs(runs, m_max) == by_n[n - 1][: m_max + 1], (n, m_max)


@pytest.mark.parametrize("n", [4097, 4099, 9999, 3 * 5 * 7 * 11 * 13, 65535, 3**10])
def test_census_sweep_beyond_the_smallest_table(n):
    for k in (n, 2 * n):
        for m_max in (0, 7, 125):
            assert census_by_m(k, m_max) == [
                census_by_trial_division(m, k) for m in range(m_max + 1)
            ]


@pytest.mark.parametrize("m_lo, m_hi, n_max", [
    (0, 0, 300), (0, 7, 1200), (8, 15, 1200), (24, 30, 600), (5, 5, 40), (3, 9, 0), (120, 125, 700),
])
def test_census_rows_match_trial_division(m_lo, m_hi, n_max):
    """census_rows' Y and Z rows at every m of the run equal the trial
    division census at every n <= n_max.  The generator updates its rows in
    place, so each is copied as it comes."""
    rows = [(list(ys), list(zs)) for ys, zs in census_rows(m_lo, m_hi, n_max)]
    assert len(rows) == m_hi - m_lo + 1
    for m, (ys, zs) in zip(range(m_lo, m_hi + 1), rows):
        expected = [census_by_trial_division(m, n) for n in range(1, n_max + 1)]
        assert ys == [c.y for c in expected], m
        assert zs == [c.z for c in expected], m


def test_census_vanishes_once_m_reaches_n():
    # every value v is at most 2^(e+1) * N - 1 = 2n - 1 < 2m + 1 when m >= n
    zero = DivisorPairCensus(0, 0, 0, 0)
    for n in range(1, 401):
        assert census_by_m(n, n + 3)[n:] == [zero] * 4, n


def test_census_sweep_rejects_negative_m_max():
    with pytest.raises(ValueError):
        census_runs(5, 5, -1)
    with pytest.raises(ValueError):  # n = 0 has no odd part
        census_runs(0, 5, 3)


def test_census_y_and_z():
    c = DivisorPairCensus(a1=5, a2=2, b1=7, b2=3)
    assert (c.y, c.z) == (5 + 7 - 2 - 3, 7 - 2)


def test_census_type_is_an_immutable_named_tuple():
    c = DivisorPairCensus(0, 1, 2, 3)
    assert repr(c) == "DivisorPairCensus(a1=0, a2=1, b1=2, b2=3)"
    assert f"{c}" == repr(c)  # the violation text of y-nonneg
    for name in ("a1", "a2", "b1", "b2", "y", "z", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, 7)
    assert (c.y, c.z) == (0 + 2 - 1 - 3, 2 - 1)
    assert c == (0, 1, 2, 3)  # a census compares equal to a plain 4-tuple


def test_census_worked_examples():
    # n = 6 = 2 * 3: pairs of 3 are (1,3) and (3,1)
    assert census(0, 6) == DivisorPairCensus(a1=1, a2=0, b1=2, b2=1)
    # n = 9, e = 0: A1 and B2 are forced empty
    c = census(0, 9)
    assert (c.a1, c.b2) == (0, 0)
    assert census(0, 1) == DivisorPairCensus(0, 0, 1, 0)
    assert census(1, 1) == DivisorPairCensus(0, 0, 0, 0)


def test_containments_hold_on_grid():
    for m in range(6):
        for n in range(1, 400):
            e = OddPartDecomposition.of(n).e
            assert containment_violation(census(m, n), e) is None


def test_containment_violation_messages():
    assert "A1 must be empty" in containment_violation(DivisorPairCensus(1, 0, 0, 0), 0)
    assert "B2 must be empty" in containment_violation(DivisorPairCensus(0, 0, 0, 1), 0)
    assert "A2 must be contained in B1" in containment_violation(
        DivisorPairCensus(0, 2, 1, 0), 0
    )
    assert "A2 must be contained in A1" in containment_violation(
        DivisorPairCensus(0, 1, 0, 0), 3
    )
    assert "B2 must be contained in B1" in containment_violation(
        DivisorPairCensus(1, 0, 0, 1), 3
    )


def test_direct_values_nonnegative_by_containment():
    for m in range(4):
        for n in range(1, 300):
            assert y_direct(m, n) >= 0
            assert z_direct(m, n) >= 0


@given(st.integers(0, 8), st.integers(1, 300))
@settings(max_examples=150, deadline=None)
def test_divisor_path_equals_series_path(m, n):
    assert y_direct(m, n) == qseries.y_series(m, n)[n]
    assert z_direct(m, n) == qseries.z_series(m, n)[n]
    assert x_direct(m, n) == qseries.x_series(m, n)[n]


def test_x_direct_third_path_for_even_n():
    """Independent check of the even branch: accumulate X through the
    telescoped sum X(n) = X(n-2) + Z-increment, i.e. compare against the
    series recurrence (1 - q^2) X = inner, done entirely with integers."""
    for m in (0, 1, 3):
        inner = qseries.x_inner_series(m, 120)
        acc = 0
        by_parity = {0: 0, 1: 0}
        for n in range(1, 121):
            by_parity[n % 2] += inner[n]
            assert x_direct(m, n) == by_parity[n % 2]


def test_input_validation():
    with pytest.raises(ValueError):
        census(-1, 5)
    with pytest.raises(ValueError):
        census(0, 0)
    with pytest.raises(ValueError):
        x_direct(0, -1)
    assert x_direct(0, 0) == 0
