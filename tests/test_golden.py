"""Golden report bytes: fixed CLI invocations in text, CSV and JSON.

Each invocation's output must equal, byte for byte, the file recorded
under tests/golden/ as <name>.<txt|csv|json>.  The files hold what the
verifier printed when they were added; a change meant to alter report
bytes replaces them and says so.
"""

from pathlib import Path

import pytest

from sptcrank.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

INVOCATIONS = {
    "verify-all": ["verify", "--check", "all", "--m-max", "3", "--n-max", "40",
                   "--bivariate-order", "12"],
    "verify-y-empty-n": ["verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "0"],
    "verify-cross-order-0": ["verify", "--check", "cross", "--m-max", "2", "--n-max", "20",
                             "--bivariate-order", "0"],
    "finite-window": ["finite-window"],
    "cross-check": ["cross-check"],
    "coeff-mc1": ["coeff", "--family", "mc1", "--m", "-2", "--n-max", "12"],
    "coeff-x": ["coeff", "--family", "x", "--m", "1", "--n-max", "12"],
    "lattice-omega": ["lattice", "--region", "omega", "--m", "1", "--n", "100"],
    "lattice-omega-n0": ["lattice", "--region", "omega", "--m", "0", "--n", "0"],
    "lattice-omega-prime": ["lattice", "--region", "omega-prime", "--m", "2", "--n", "100"],
    "lattice-omega-prime-n0": ["lattice", "--region", "omega-prime", "--m", "0", "--n", "0"],
    "bounds": ["bounds", "--m-max", "5"],
}

FORMATS = {"txt": [], "csv": ["--csv"], "json": ["--json"]}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_output_matches_golden(capsys, name, fmt):
    code = run_cli(INVOCATIONS[name] + FORMATS[fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
