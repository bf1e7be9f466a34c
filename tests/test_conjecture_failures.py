"""The conjecture check's failure wording, pinned.

Passing reports never reach the code that words a violation, so the
report bytes pinned elsewhere cannot show a change to it.  Each scenario
here corrupts a point that every M_C1/M_C5 build goes through: the P2
kernel `qseries._p2_kernel`, or the sign of one term of a Lambert sum
`_x_lead_terms`, `_y_lead_terms` or `_z_terms`.  It runs the conjecture
check at m <= 12 and n_max 300 and 301, and the report's violations and
skips must equal tests/data/conjecture_failure_golden.json at
parallelism 1, 2 and 3.  Together the scenarios put violations at n = 1
and at n = n_max for both parities of n_max, in M_C1 only, in M_C5 only
and in both, and one of them fills the violation cap.

Re-record (only for a change meant to alter the wording):

    PYTHONPATH=src python tests/test_conjecture_failures.py
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

from sptcrank import qseries
from sptcrank.verify import VIOLATION_CAP, SweepConfig, run_checks
from test_verify import serial_pool

GOLDEN = Path(__file__).resolve().parent / "data" / "conjecture_failure_golden.json"
N_MAXES = (300, 301)
# A P2 coefficient lowered by this much is far more negative than any
# coefficient it meets, and its absolute value dwarfs the sum of P2's.
HUGE = 10**12


def _lowered_p2(index: int, delta: int):
    """_p2_kernel with its coefficient of q^index lowered by delta."""
    real = qseries._p2_kernel

    def _p2_kernel(order):
        coeffs = list(real(order))
        if index <= order:
            coeffs[index] -= delta
        return tuple(coeffs)

    return _p2_kernel


def _flipped(name: str, index: int):
    """The term source qseries.<name> with the sign of its index-th term
    (index 1 is the first) flipped, at every m."""
    real = getattr(qseries, name)

    def terms(m, order):
        for i, (a, b, s) in enumerate(real(m, order), 1):
            yield a, b, -s if i == index else s

    return terms


SCENARIOS = {
    # P2 = 1/(q^2; q^2)_oo starts at -1: M(m, n) < 0 near n = m + 1, from
    # n = 1 at m = 0, in both families
    "p2-first": ("_p2_kernel", _lowered_p2(0, 2)),
    # p(149) - 10^12 at q^298 reaches only n >= 299: n_max at both parities
    "p2-last": ("_p2_kernel", _lowered_p2(298, HUGE)),
    # +q^(14+4m)/(1-q^4) of X's first sum turns -: M_C1 only, up to n = 300
    "x-lead-flip": ("_x_lead_terms", _flipped("_x_lead_terms", 2)),
    # +q^(6+4m)/(1-q^4) of Y's first sum turns -: M_C5 only
    "y-lead-flip": ("_y_lead_terms", _flipped("_y_lead_terms", 2)),
    # Z's first term q^(1+m)/(1-q) turns -: both families from n = 1 on,
    # far more violations than the cap keeps
    "z-flip": ("_z_terms", _flipped("_z_terms", 1)),
}


def run_scenario(name: str, n_max: int, parallelism: int = 1) -> dict:
    attr, value = SCENARIOS[name]
    cfg = SweepConfig(m_max=12, n_max=n_max, checks=("conjecture",), parallelism=parallelism)
    with mock.patch.object(qseries, attr, value):
        (report,) = run_checks(cfg)
    return {"skips": report.skips, "violations": [[v.m, v.n, v.value, v.expected] for v in report.violations]}


def _dump(results: dict) -> str:
    """The golden's JSON, one violation a line."""
    parts = []
    for name, by_n in results.items():
        runs = []
        for n_max, rep in by_n.items():
            rows = ",\n".join(f"    {json.dumps(v)}" for v in rep["violations"])
            runs.append(
                f'  "{n_max}": {{"skips": {json.dumps(rep["skips"])}, '
                f'"violations": [\n{rows}\n  ]}}'
            )
        parts.append(f" {json.dumps(name)}: {{\n" + ",\n".join(runs) + "\n }")
    return "{\n" + ",\n".join(parts) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("parallelism", [1, 2, 3])
@pytest.mark.parametrize("n_max", N_MAXES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_conjecture_failures_match_golden(monkeypatch, golden, name, n_max, parallelism):
    serial_pool(monkeypatch)
    assert run_scenario(name, n_max, parallelism) == golden[name][str(n_max)]


def test_golden_covers_both_ends_parities_and_families(golden):
    """The scenarios reach n = 1 and n = n_max at both parities of n_max,
    fail M_C1 alone, M_C5 alone and both, and fill the cap once."""
    assert set(golden) == set(SCENARIOS)
    texts = {1: "M_C1(m,n) >= 0", 5: "M_C5(m,n) >= 0"}
    runs = [(n_max, by_n[str(n_max)]["violations"]) for by_n in golden.values() for n_max in N_MAXES]
    assert all(violations for _, violations in runs)
    assert any(n == 1 for _, violations in runs for _, n, _, _ in violations)
    for n_max in N_MAXES:
        assert any(n == n_max for nm, violations in runs if nm == n_max
                   for _, n, _, _ in violations), n_max
    families = [{text for *_, text in violations} for _, violations in runs]
    assert {texts[1]} in families and {texts[5]} in families
    assert set(texts.values()) in families
    assert any(len(violations) == VIOLATION_CAP for _, violations in runs)


if __name__ == "__main__":
    GOLDEN.write_text(
        _dump({name: {n_max: run_scenario(name, n_max) for n_max in N_MAXES} for name in SCENARIOS}),
        encoding="utf-8",
    )
