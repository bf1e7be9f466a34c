"""The window checks' failure wording, pinned.

Passing reports never reach the code that words a violation, so the
report bytes pinned elsewhere cannot show a change to it.  Each scenario
here corrupts a term table or the lists of `qseries.lambert_sweep`, runs
the checks x-small-n at m <= 17 and finite-window, and their reports'
violations and skips must equal tests/data/window_failure_golden.json at
parallelism 1, 2 and 3.  Together the scenarios produce every violation text
the two checks' workers word from their columns.

Re-record (only for a change meant to alter the wording):

    PYTHONPATH=src python tests/test_window_failures.py
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from unittest import mock

import pytest

from sptcrank import bounds, qseries
from sptcrank.verify import SweepConfig, run_checks
from test_verify import serial_pool

GOLDEN = Path(__file__).resolve().parent / "data" / "window_failure_golden.json"
CHECKS = ("x-small-n", "finite-window")
# A bump moves a coefficient by this much: far more than any coefficient
# it meets, so the divided column goes negative where the bump reaches.
HUGE = 10**12
W_M = 59  # an m inside a run of the finite window at every parallelism <= 3
W_HI = math.ceil(bounds.f_of_m(W_M)) - 1  # its window's last n


def _bumped_lambert(*bumps):
    """lambert_sweep with (name, m, n, delta) bumps: delta added to that
    part's numerator coefficient of q^n at m, on a copy, so later steps of
    the sweep stay true.  A bump of -d at q^n and +d at q^(n+2) moves only
    the coefficient of q^n of the numerator over 1 - q^2."""
    real = qseries.lambert_sweep

    def lambert_sweep(parts, m_lo, m_hi, order, on_drop=None):
        for m, lists in real(parts, m_lo, m_hi, order, on_drop):
            hits = [(parts.index(name), n, d) for name, m_bad, n, d in bumps
                    if m_bad == m and name in parts and n <= order]
            if hits:
                lists = [list(c) for c in lists]
                for i, n, d in hits:
                    lists[i][n] += d
            yield m, lists

    return lambert_sweep


def _flipped_row(name: str, index: int):
    """T_ROWS with the sign of one row of one table flipped."""
    rows = list(qseries.T_ROWS[name])
    alpha, beta, b, s = rows[index]
    rows[index] = (alpha, beta, b, -s)
    return {**qseries.T_ROWS, name: tuple(rows)}


SCENARIOS = {
    # -q^(80+10m)/(1-q^10) of T5 becomes +: the regrouping fails for m >= 8
    "t-rows": [(qseries, "T_ROWS", _flipped_row("T5", 2))],
    # X differs from T at n = 150, 152, ..., 180 of m = 9 only; the +1 in
    # the finite window's X at m = 9 sits below its window and breaks nothing
    "x-plus-one": [(qseries, "lambert_sweep", _bumped_lambert(("X", 9, 150, 1)))],
    # R1's -1 lowers every odd coefficient of R2 at m = 5 by one
    "r1-minus-one": [(qseries, "lambert_sweep", _bumped_lambert(("R1", 5, 1, -1)))],
    # T(59) at m = 3 is negative: it differs from X and from the components
    "t-negative": [(qseries, "lambert_sweep", _bumped_lambert(("T", 3, 59, -HUGE)))],
    # X^(59) negative at n = 20m (just below the window, so unreported),
    # n = 20m + 1 (its first n) and n = f's last n below f(59)
    "x-window": [(qseries, "lambert_sweep", _bumped_lambert(
        ("X", W_M, 20 * W_M, -HUGE), ("X", W_M, 20 * W_M + 2, HUGE),
        ("X", W_M, 20 * W_M + 1, -HUGE), ("X", W_M, 20 * W_M + 3, HUGE),
        ("X", W_M, W_HI, -1 - HUGE),
    ))],
}

# Every text the two workers word from their columns.
TEXTS = (
    r"T coefficient == X coefficient -?\d+",
    r"T1\+T3\+T5\+T7\+T9\+T' == T coefficient -?\d+",
    r"R2 coefficient >= 0",
    r"X\^\(m\)\(n\) >= 0 for n <= 20m",
    r"X\^\(m\)\(n\) >= 0 on 20m < n < f\(m\)",
)


def run_scenario(name: str, parallelism: int = 1) -> dict:
    cfg = SweepConfig(m_max=17, checks=CHECKS, parallelism=parallelism)
    patches = [mock.patch.object(module, attr, value) for module, attr, value in SCENARIOS[name]]
    for p in patches:
        p.start()
    try:
        reports = run_checks(cfg)
    finally:
        for p in reversed(patches):
            p.stop()
    return {
        r.check_id: {"skips": r.skips, "violations": [[v.m, v.n, v.value, v.expected] for v in r.violations]}
        for r in reports
    }


def _dump(results: dict) -> str:
    """The golden's JSON, one violation a line."""
    parts = []
    for name, res in results.items():
        checks = []
        for check, rep in res.items():
            rows = ",\n".join(f"    {json.dumps(v)}" for v in rep["violations"])
            checks.append(
                f'  {json.dumps(check)}: {{"skips": {json.dumps(rep["skips"])}, '
                f'"violations": [\n{rows}\n  ]}}'
            )
        parts.append(f" {json.dumps(name)}: {{\n" + ",\n".join(checks) + "\n }")
    return "{\n" + ",\n".join(parts) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("parallelism", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_window_failures_match_golden(monkeypatch, golden, name, parallelism):
    serial_pool(monkeypatch)
    assert run_scenario(name, parallelism) == golden[name]


def test_golden_holds_every_window_text(golden):
    """Each text the two workers word occurs in the golden, so a change to
    any of them fails a scenario above; every scenario fails some check."""
    expected = [v[3] for res in golden.values() for rep in res.values() for v in rep["violations"]]
    for text in TEXTS:
        assert any(re.fullmatch(text, e) for e in expected), text
    assert all(any(re.fullmatch(t, e) for t in TEXTS) for e in expected)
    assert set(golden) == set(SCENARIOS)
    assert all(any(rep["violations"] for rep in res.values()) for res in golden.values())


if __name__ == "__main__":
    GOLDEN.write_text(_dump({name: run_scenario(name) for name in SCENARIOS}), encoding="utf-8")
