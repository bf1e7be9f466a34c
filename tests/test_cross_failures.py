"""The cross check's failure wording, pinned.

Passing reports never reach the code that words a violation, so the
report bytes pinned elsewhere cannot show a change to it.  Each scenario
here corrupts constants or inputs of `verify._cross_worker((8, 15, 240))`
(or of its entry in PARTS), and its result, the violation tuples and the Jarnik skip count, must
equal tests/data/cross_failure_golden.json.  Together the scenarios
produce every violation text the cross worker writes.

Re-record (only for a change meant to alter the wording):

    PYTHONPATH=src python tests/test_cross_failures.py
"""

from __future__ import annotations

import json
import re
from operator import sub
from pathlib import Path
from unittest import mock

import pytest

from sptcrank import bounds, divisors, lattice, qseries, verify
from test_divisors import pair_tally

GOLDEN = Path(__file__).resolve().parent / "data" / "cross_failure_golden.json"
PART = (8, 15, 240)
OMEGA, OMEGA_P = lattice.RegionKind.OMEGA, lattice.RegionKind.OMEGA_PRIME


def _missed_pair(n_odd: int, d1: int, d2: int):
    """_tallies missing the ordered pair (d1, d2) of the odd n_odd in the row
    of each n = 2^e * n_odd: that pair's counts and keys, as the reference
    classifier pair_tally gives them, taken out of the row."""
    real = divisors._tallies

    def tallies(n_lo, n_hi, top):
        rows = real(n_lo, n_hi, top)
        for e in range(n_hi.bit_length()):
            if n_lo <= n_odd << e <= n_hi:
                e_row, counts, keys = rows[(n_odd << e) - n_lo]
                c, k = pair_tally(d1, d2, e, top)
                keys = list(keys)
                for key in k:
                    keys.remove(key)
                rows[(n_odd << e) - n_lo] = (e_row, list(map(sub, counts, c)), keys)
        return rows

    return tallies


def _extra_a2(n_bad: int):
    """_tallies with #A2 one too large in the row for n_bad, which makes
    Z^(m)(n_bad) < 0."""
    real = divisors._tallies

    def tallies(n_lo, n_hi, top):
        rows = real(n_lo, n_hi, top)
        if n_lo <= n_bad <= n_hi:
            e, (a1, a2, b1, b2), keys = rows[n_bad - n_lo]
            rows[n_bad - n_lo] = (e, [a1, a2 + 1, b1, b2], keys)
        return rows

    return tallies


def _bumped_counts(*bumps):
    """count_sweep with (kind, m, n, which, value) bumps: the total (which
    0) or the odd count (which 1) of the region at (m, n) becomes value(old)."""
    real = lattice.count_sweep

    def count_sweep(kind, m, n_max):
        lists = [list(c) for c in real(kind, m, n_max)]
        for k, m_bad, n, which, value in bumps:
            if (k, m_bad) == (kind, m):
                lists[which][n] = value(lists[which][n])
        return tuple(lists)

    return count_sweep


def _bumped_lambert(*bumps):
    """lambert_sweep with (name, m, n) bumps: +1 on that part's coefficient
    of q^n at m, on a copy, so later steps of the sweep stay true."""
    real = qseries.lambert_sweep

    def lambert_sweep(parts, m_lo, m_hi, order):
        for m, lists in real(parts, m_lo, m_hi, order):
            hits = [(parts.index(name), n) for name, m_bad, n in bumps if m_bad == m]
            if hits:
                lists = [list(c) for c in lists]
                for i, n in hits:
                    lists[i][n] += 1
            yield m, lists

    return lambert_sweep


def _plus_one(v):
    return v + 1


def _zero(v):
    return 0


SCENARIOS = {
    # a Jarnik length below |N - A| at a few points, and a near-tie margin
    # wide enough to catch two of them and 29 bound combinations
    "near-ties": [(lattice, "OMEGA_LENGTH", 0.3), (bounds, "NEAR_TIE_SLACK", 0.01)],
    # below 5.9, every bound combination fails; the cap keeps 1000
    "theorem2": [(bounds, "THEOREM2_SQRT", -1.0)],
    "m1": [(lattice, "M1_SQRT", 0.0)],
    "m2": [(lattice, "M2_SQRT", -1.0)],
    # the reader misses the pair (3, 35) of 105, in the rows for 105 and 210
    "odd-divisors": [(divisors, "_tallies", _missed_pair(105, 3, 35))],
    "tally": [(divisors, "_tallies", _extra_a2(2))],
    # a +1 on an odd count breaks M2 - M1 == X; a total set to 0, and a +1
    # on an empty region's total, move the Jarnik skips
    "counts": [(lattice, "count_sweep", _bumped_counts(
        (OMEGA_P, 10, 40, 1, _plus_one), (OMEGA, 12, 100, 0, _zero),
        (OMEGA, 8, 2, 0, _plus_one),
    ))],
    "parity": [(lattice, "count_sweep", _bumped_counts((OMEGA_P, 9, 240, 1, _zero)))],
    "series": [(qseries, "lambert_sweep", _bumped_lambert(
        ("X", 11, 230), ("Y", 12, 77), ("Z", 13, 233),
    ))],
    # on PARTS' (0, 0, 6000) every lemma check passes, and the margin
    # catches the bound combinations at 5778 <= n <= 6000, beyond the small n
    # of the empty regions; theorem 2's least relative margin there is 0.45,
    # so no theorem 2 near-tie appears while every lemma check passes
    "slack": [(bounds, "NEAR_TIE_SLACK", 0.0138)],
}
# a scenario's part, where it is not PART
PARTS = {"slack": (0, 0, 6000)}

# Every text the cross worker writes, as a pattern on the expected field.
TEXTS = (
    r"divisor Y == series Y -?\d+",
    r"divisor Z == series Z -?\d+",
    r"Z\^\(m\)\(n\) >= 0",
    r"odd-k Z partial sum == series X -?\d+",
    r"lattice M2-M1 == series X -?\d+",
    r"Jarnik \|N-A\| < \S+ \[fail\]",
    r"Jarnik \|N-A\| < \S+ \[near-tie\]",
    r"parity bound \|N/2-M\| <= sup\+1",
    r"M1 < upper bound",
    r"M2 > lower bound",
    r"X > \(ln2/4\)\(n\+1\)-6sqrt\(n\+1\)-m-2",
    r"M2bound-M1bound >= theorem bound",
)


def run_scenario(name: str) -> dict:
    patches = [mock.patch.object(module, attr, value) for module, attr, value in SCENARIOS[name]]
    for p in patches:
        p.start()
    try:
        violations, skips = verify._cross_worker(PARTS.get(name, PART))
    finally:
        for p in reversed(patches):
            p.stop()
    return {"jarnik_skips": skips, "violations": [list(v) for v in violations]}


def _dump(results: dict) -> str:
    """The golden's JSON, one violation a line."""
    parts = []
    for name, res in results.items():
        rows = ",\n".join(f"   {json.dumps(v)}" for v in res["violations"])
        parts.append(
            f' {json.dumps(name)}: {{"jarnik_skips": {res["jarnik_skips"]}, '
            f'"violations": [\n{rows}\n ]}}'
        )
    return "{\n" + ",\n".join(parts) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cross_failures_match_golden(golden, name):
    assert run_scenario(name) == golden[name]


def test_golden_holds_every_cross_text(golden):
    """Each text the cross worker writes occurs in the golden, so a change
    to any of them fails a scenario above."""
    expected = [v[3] for res in golden.values() for v in res["violations"]]
    for text in TEXTS:
        assert any(re.fullmatch(text, e) for e in expected), text
    assert all(any(re.fullmatch(t, e) for t in TEXTS) for e in expected)
    assert set(golden) == set(SCENARIOS)


if __name__ == "__main__":
    GOLDEN.write_text(_dump({name: run_scenario(name) for name in SCENARIOS}), encoding="utf-8")
