"""The y-nonneg check's failure wording, pinned.

Passing reports never reach the code that words a violation, so the
report bytes pinned elsewhere cannot show a change to it.  Each scenario
here corrupts the counts or keys that `divisors._tallies` gives for some
n, runs y-nonneg at m <= 12 and n <= 700 (three blocks of n), and its
report's violations and skips must equal tests/data/y_failure_golden.json
at parallelism 1, 2 and 3.  Together the scenarios produce every
violation text of the check: the five containment messages of
`divisors.containment_violation` and "Y^(m)(n) >= 0".

Re-record (only for a change meant to alter the wording):

    PYTHONPATH=src python tests/test_y_failures.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from unittest import mock

import pytest

from sptcrank import divisors
from sptcrank.verify import SweepConfig, run_checks
from test_verify import serial_pool
from test_window_failures import _dump

GOLDEN = Path(__file__).resolve().parent / "data" / "y_failure_golden.json"
M_MAX, N_MAX = 12, 700
A1, A2, B1, B2 = range(4)  # the set index of a count, and of a key's low two bits


def _key(k: int, i: int) -> int:
    """The key of an odd value v with v // 2 == k in the i-th set."""
    return 4 * k + i


def _corrupted(*edits):
    """_tallies with (n, set, delta, keys) edits: delta added to the count
    of that set in the row for n, and keys appended to the row's keys, on
    copies."""
    real = divisors._tallies

    def tallies(n_lo, n_hi, top):
        rows = real(n_lo, n_hi, top)
        for n, i, delta, keys in edits:
            if n_lo <= n <= n_hi:
                e, counts, old = rows[n - n_lo]
                counts = list(counts)
                counts[i] += delta
                rows[n - n_lo] = (e, counts, list(old) + list(keys))
        return rows

    return tallies


def _moved_keys(n_first: int, n_last: int, src: int, dst: int):
    """_tallies with every key of the set src moved to the set dst, at the
    same value, in the rows for n_first <= n <= n_last."""
    real = divisors._tallies

    def tallies(n_lo, n_hi, top):
        rows = real(n_lo, n_hi, top)
        for n in range(max(n_lo, n_first), min(n_hi, n_last) + 1):
            e, counts, keys = rows[n - n_lo]
            rows[n - n_lo] = (e, counts, [k - src + dst if k & 3 == src else k for k in keys])
        return rows

    return tallies


SCENARIOS = {
    # n = 45 is odd (e = 0): an A1 pair at v // 2 == 4 makes A1 nonempty at m <= 4
    "a1-at-odd-n": _corrupted((45, A1, 0, [_key(4, A1)])),
    # n = 255 and 257 are odd and end and start a block: one more B2 pair at
    # every m; Y = #B1 - #A2 - 1 goes negative where #B1 == #A2
    "b2-at-odd-n": _corrupted((255, B2, 1, []), (257, B2, 1, [])),
    # n = 521 is odd, with #A2 == #B1 == 1: A2 pairs at v // 2 == 11 and 3
    "a2-over-b1": _corrupted((521, A2, 0, [_key(11, A2), _key(3, A2)])),
    # n = 384 = 2^7 * 3: two more A2 pairs at every m
    "a2-over-a1": _corrupted((384, A2, 2, [])),
    # n = 600 = 2^3 * 75: three B2 pairs at v // 2 == 3, 7 and 9
    "b2-over-b1": _corrupted((600, B2, 0, [_key(3, B2), _key(7, B2), _key(9, B2)])),
    # a key at v // 2 >= m_max counts at every m, as a count does
    "key-beyond-m-max": _corrupted((1, A1, 0, [_key(M_MAX + 5, A1)]), (2, B2, 0, [_key(M_MAX, B2)])),
    # the B1 keys of n = 250..270, across a block end, read as A2 keys
    "b1-keys-as-a2": _moved_keys(250, 270, B1, A2),
}

# Every text the check words.
TEXTS = (
    r"A1 must be empty when e=0, got #A1=\d+",
    r"B2 must be empty when e=0, got #B2=\d+",
    r"A2 must be contained in B1 when e=0, got #A2=\d+ > #B1=\d+",
    r"A2 must be contained in A1 when e>=1, got #A2=\d+ > #A1=\d+",
    r"B2 must be contained in B1 when e>=1, got #B2=\d+ > #B1=\d+",
    r"Y\^\(m\)\(n\) >= 0",
)


def run_scenario(name: str, parallelism: int = 1) -> dict:
    cfg = SweepConfig(m_max=M_MAX, n_max=N_MAX, checks=("y-nonneg",), parallelism=parallelism)
    with mock.patch.object(divisors, "_tallies", SCENARIOS[name]):
        reports = run_checks(cfg)
    return {
        r.check_id: {"skips": r.skips, "violations": [[v.m, v.n, v.value, v.expected] for v in r.violations]}
        for r in reports
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("parallelism", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_y_failures_match_golden(monkeypatch, golden, name, parallelism):
    serial_pool(monkeypatch)
    assert run_scenario(name, parallelism) == golden[name]


def test_golden_holds_every_y_text(golden):
    """Each text the check words occurs in the golden, so a change to any
    of them fails a scenario above; every scenario fails the check."""
    expected = [v[3] for res in golden.values() for rep in res.values() for v in rep["violations"]]
    for text in TEXTS:
        assert any(re.fullmatch(text, e) for e in expected), text
    assert all(any(re.fullmatch(t, e) for t in TEXTS) for e in expected)
    assert set(golden) == set(SCENARIOS)
    assert all(res["y-nonneg"]["violations"] for res in golden.values())


if __name__ == "__main__":
    GOLDEN.write_text(_dump({name: run_scenario(name) for name in SCENARIOS}), encoding="utf-8")
