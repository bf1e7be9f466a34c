"""Bivariate families S_X(z, q): golden slices, symmetry, univariate agreement."""

import json
import pathlib
from functools import lru_cache, reduce
from operator import add, mul

import pytest

from sptcrank import bivariate, qseries
from sptcrank.bivariate import LaurentSeries, extract_m, spt_crank_bivariate

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "bivariate_golden.json").read_text()
)

# The six exotic spt-crank families the conjecture does not read, as rows of
# bivariate.FAMILIES: they exercise the one Horner builder on every shape of
# product form, and E2, with sign_n = (-1)^n, has negative coefficients.
OTHER_FAMILIES = {
    "A1": (1, (0, 1, 1), ((2, 1, 1),)),
    "A3": (1, (0, 2, 1), ((2, 1, 1),)),
    "A5": (1, (1, 1, 1), ((2, 1, 1),)),
    "A7": (1, (1, 0, 1), ((2, 1, 1),)),
    "E2": (-1, (0, 1, 1), ((2, 2, 2),)),
    "E4": (1, (0, 2, 1), ((2, 2, 2),)),
}
ALL_FAMILIES = sorted(["C1", "C5", *OTHER_FAMILIES])


@pytest.fixture(autouse=True)
def eight_families(monkeypatch):
    """Every test here builds from bivariate.FAMILIES with all eight rows."""
    for name, row in OTHER_FAMILIES.items():
        monkeypatch.setitem(bivariate.FAMILIES, name, row)


def naive_family(fam: str, order: int) -> dict:
    """Independent oracle: dict-based expansion keyed by (q_exp, z_deg),
    with the denominator as a literal product of geometric factors
    1/(1 - z q^a) and 1/(1 - z^-1 q^a) rather than Euler's identity."""

    def dmul(a, b):
        out = {}
        for (qa, za), ca in a.items():
            for (qb, zb), cb in b.items():
                q = qa + qb
                if q <= order:
                    k = (q, za + zb)
                    out[k] = out.get(k, 0) + ca * cb
        return {k: v for k, v in out.items() if v}

    def inv_geom(zpow, a):
        return {(j * a, j * zpow): 1 for j in range(order // a + 1)}

    def finite_product(exps):
        s = {(0, 0): 1}
        for e in exps:
            if e <= order:
                s = dmul(s, {(0, 0): 1, (e, 0): -1})
        return s

    total = {}
    n = 1
    while True:
        pref = {
            "A1": n, "C1": n, "E2": n,
            "A3": 2 * n, "E4": 2 * n,
            "A5": n * n + n, "A7": n * n,
            "C5": n * (n + 1) // 2,
        }[fam]
        if pref > order:
            break
        sign = (-1) ** n if fam == "E2" else 1
        if fam in ("A1", "A3", "A5", "A7"):
            num = finite_product(range(2 * n + 1, order + 1))
        elif fam in ("C1", "C5"):
            num = dmul(
                finite_product(range(2 * n + 1, order + 1, 2)),
                finite_product(range(n + 1, order + 1)),
            )
        else:
            num = finite_product(range(2 * n + 2, order + 1, 2))
        term = dmul({(pref, 0): sign}, num)
        for a in range(n, order + 1):
            term = dmul(term, inv_geom(1, a))
            term = dmul(term, inv_geom(-1, a))
        for k, v in term.items():
            total[k] = total.get(k, 0) + v
        n += 1
    return {k: v for k, v in total.items() if v}


def pair_cache_bivariate(fam: str, order: int) -> tuple:
    """Slow reference for the Horner build: the earlier expansion, kept
    for bit-identity.  Each denominator factor is expanded with Euler's
    identity 1/(x; q)_oo = sum_i x^i / (q; q)_i, every product
    1/((q;q)_i (q;q)_j) is cached, and the pairs of each outer term are
    grouped by z-degree i - j before one convolution per degree.
    Returns the rows, z^-order first."""
    N = order

    def mul(a, b):
        out = [0] * (N + 1)
        for i, ai in enumerate(a):
            if ai and i <= N:
                for j, bj in enumerate(b[: N - i + 1]):
                    if bj:
                        out[i + j] += ai * bj
        return out

    def divide_by_one_minus_qk(a, k):
        out = list(a)
        for i in range(k, len(out)):
            out[i] += out[i - k]
        return out

    def ep(offset, step):
        return list(qseries.euler_product(offset, step, N).coeffs)

    def terms():
        n = 1
        while True:
            pref = {
                "A1": n, "C1": n, "E2": n,
                "A3": 2 * n, "E4": 2 * n,
                "A5": n * n + n, "A7": n * n,
                "C5": n * (n + 1) // 2,
            }[fam]
            if pref > N:
                return
            sign = (-1) ** n if fam == "E2" else 1
            if fam in ("A1", "A3", "A5", "A7"):
                num = ep(2 * n + 1, 1)
            elif fam in ("C1", "C5"):
                num = mul(ep(2 * n + 1, 2), ep(n + 1, 1))
            else:
                num = ep(2 * n + 2, 2)
            yield n, sign, pref, [0] * pref + num[: N + 1 - pref]
            n += 1

    inv_poch = [[1] + [0] * N]
    for i in range(1, N + 1):
        inv_poch.append(divide_by_one_minus_qk(inv_poch[i - 1], i))
    pair_cache = {}

    def pair_product(i, j):
        key = (min(i, j), max(i, j))
        if key not in pair_cache:
            pair_cache[key] = mul(inv_poch[key[0]], inv_poch[key[1]])
        return pair_cache[key]

    acc = {}  # z-degree -> coefficient list over q
    for n, sign, pref, num in terms():
        budget = N - pref
        by_degree = {}
        i = 0
        while i * n <= budget:
            j = 0
            while (i + j) * n <= budget:
                by_degree.setdefault(i - j, []).append((i, j))
                j += 1
            i += 1
        for d, pairs in by_degree.items():
            w = [0] * (budget + 1)
            for i, j in pairs:
                shift = (i + j) * n
                src = pair_product(i, j)
                for e in range(budget + 1 - shift):
                    w[e + shift] += src[e]
            conv = mul(w, num)
            tgt = acc.setdefault(d, [0] * (N + 1))
            for e in range(N + 1):
                tgt[e] += sign * conv[e]

    return tuple(tuple(acc.get(d, [0] * (N + 1))) for d in range(-N, N + 1))


@lru_cache(maxsize=None)
def list_bivariate(fam: str, order: int) -> tuple:
    """Reference for the packed build: the same Horner scheme on a dense
    table of list rows, O(N^3) additions, with each Num_k a product of
    euler_product series.  Returns the rows, z^-order first."""
    N = order
    base, (a, b, c), runs = bivariate.FAMILIES[fam]
    rows = [[0] * (N + 1) for _ in range(2 * N + 1)]  # rows[N + d]: z^d over q
    for k in range(1, N + 1):
        pref = (a * k * k + b * k) // c
        if pref <= N:
            sign = base**k
            num = reduce(
                mul, (qseries.euler_product(p * k + r, step, N - pref) for p, r, step in runs)
            )
            rows[N][pref:] = [x + sign * y for x, y in zip(rows[N][pref:], num.coeffs)]
        span = range(k, 2 * N + 1 - k)
        for i in span:  # times 1/(1 - z q^k): ascending, row d+1 gains row d
            rows[i + 1][k:] = map(add, rows[i + 1][k:], rows[i])
        for i in reversed(span):  # times 1/(1 - z^-1 q^k): descending
            rows[i - 1][k:] = map(add, rows[i - 1][k:], rows[i])
    return tuple(map(tuple, rows))


def truncated(rows: tuple, order: int) -> tuple:
    """The rows of an expansion at a lower order: its z^-order..z^order rows,
    each cut at q^order.  Both are truncations of the same series."""
    top = len(rows) // 2
    return tuple(row[: order + 1] for row in rows[top - order: top + order + 1])


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_packed_rows_match_the_list_build(fam):
    """The packed rows equal the list build at every order 1..121 and at
    200, so at every field width those orders take (8 to 80 bits)."""
    reference = list_bivariate(fam, 200)
    for order in [*range(1, 122), 200]:
        assert spt_crank_bivariate(fam, order).rows == truncated(reference, order), (fam, order)


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_majorant_bounds_every_coefficient(fam):
    """At orders 1..80, |each coefficient| of each z-row of the list build is
    at most the majorant's coefficient at that power of q, whose largest is
    at most N * 5^N, the bound _majorant's own packing width rests on."""
    reference = list_bivariate(fam, 200)
    for order in range(1, 81):
        majorant = bivariate._majorant(bivariate.FAMILIES[fam], order)
        assert len(majorant) == order + 1
        for row in truncated(reference, order):
            assert all(abs(c) <= bound for c, bound in zip(row, majorant)), (fam, order)
        assert max(majorant) <= order * 5**order, (fam, order)


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_matches_pair_cache_reference(fam):
    for order in [*range(1, 16), 30]:
        got = spt_crank_bivariate(fam, order).rows
        assert got == pair_cache_bivariate(fam, order), (fam, order)


@pytest.mark.parametrize("fam", ["C1", "C5"])
def test_matches_pair_cache_reference_order_60(fam):
    got = spt_crank_bivariate(fam, 60).rows
    assert got == pair_cache_bivariate(fam, 60)


def test_golden_slices():
    order = GOLDEN["order"]
    for fam, slices in GOLDEN["slices"].items():
        s = spt_crank_bivariate(fam, order)
        for m_str, want in slices.items():
            assert list(extract_m(s, int(m_str)).coeffs) == want, (fam, m_str)


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_full_expansion_matches_naive_oracle(fam):
    order = 8
    s = spt_crank_bivariate(fam, order)
    want = naive_family(fam, order)
    got = {
        (n, d): c
        for d, row in enumerate(s.rows, -order)
        for n, c in enumerate(row)
        if c
    }
    assert got == want


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_symmetric_under_z_inversion(fam):
    s = spt_crank_bivariate(fam, 14)
    assert s.rows == s.rows[::-1]


def test_c_slices_match_univariate_series():
    order = 40
    c1 = spt_crank_bivariate("C1", order)
    c5 = spt_crank_bivariate("C5", order)
    for m in range(-10, 11):
        assert extract_m(c1, m).coeffs == qseries.mc1_series(m, order).coeffs
        assert extract_m(c5, m).coeffs == qseries.mc5_series(m, order).coeffs


def test_e2_leading_term():
    s = spt_crank_bivariate("E2", 6)
    assert extract_m(s, 0)[1] == -1


def test_laurent_series_validation():
    with pytest.raises(ValueError):
        LaurentSeries(1, ((0, 0),))  # wrong number of rows
    with pytest.raises(ValueError):
        LaurentSeries(1, ((0, 0), (0, 0), (0,)))  # short row
    with pytest.raises(ValueError):
        LaurentSeries(1, ((1, 0), (0, 0), (0, 0)))  # z^-1 below q^1
    with pytest.raises(ValueError):
        spt_crank_bivariate("C1", 0)


def test_src_holds_only_the_conjecture_families(monkeypatch):
    """Without this module's rows the table has C1 and C5 alone."""
    monkeypatch.undo()
    assert list(bivariate.FAMILIES) == ["C1", "C5"]
    for name in OTHER_FAMILIES:
        with pytest.raises(ValueError, match=f"unknown family '{name}'"):
            spt_crank_bivariate(name, 3)


def test_extract_m_out_of_stored_range_is_zero():
    s = spt_crank_bivariate("C1", 5)
    # at q^3 the nonzero degrees are -2..2: z^d comes with at least q^(1+|d|)
    assert [extract_m(s, d)[3] for d in range(-5, 6)] == [0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0]
    for m in (6, -6, 100):
        assert extract_m(s, m).coeffs == (0,) * 6
