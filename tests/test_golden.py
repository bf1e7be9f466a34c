"""Golden report bytes: fixed CLI invocations in text, CSV and JSON.

Each invocation's output must equal, byte for byte, the file recorded
under tests/golden/ as <name>.<txt|csv|json>.  The files hold what the
verifier printed when they were added; a change meant to alter report
bytes replaces them and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sptcrank.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# sha256 of the JSON report of each argv, for reports too long to keep whole
DIGESTS = json.loads((GOLDEN.parent / "coeff_digests.json").read_text(encoding="utf-8"))

INVOCATIONS = {
    "verify-all": ["verify", "--check", "all", "--m-max", "3", "--n-max", "40",
                   "--bivariate-order", "12"],
    "verify-y-empty-n": ["verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "0"],
    "verify-cross-order-0": ["verify", "--check", "cross", "--m-max", "2", "--n-max", "20",
                             "--bivariate-order", "0"],
    "finite-window": ["finite-window"],
    "cross-check": ["verify", "--check", "cross"],
    "cross-check-n300": ["verify", "--check", "cross", "--m-max", "6", "--n-max", "300",
                         "--bivariate-order", "0"],
    # at --parallel p, cross, conjecture and x-small-n split m <= 17 into p
    # runs of m, and finite-window its 121 m; test_cli checks all four
    # at --parallel 1, 2 and 3
    "cross-check-m17": ["verify", "--check", "cross", "--m-max", "17", "--n-max", "300",
                        "--bivariate-order", "20"],
    "conjecture-m17": ["verify", "--check", "conjecture", "--m-max", "17", "--n-max", "300"],
    "x-small-n-m17": ["verify", "--check", "x-small-n", "--m-max", "17"],
    "coeff-mc1": ["coeff", "--family", "mc1", "--m", "-2", "--n-max", "12"],
    "coeff-x": ["coeff", "--family", "x", "--m", "1", "--n-max", "12"],
    "coeff-mc5": ["coeff", "--family", "mc5", "--m", "2", "--n-max", "12"],
    "coeff-y": ["coeff", "--family", "y", "--m", "2", "--n-max", "12"],
    "coeff-z": ["coeff", "--family", "z", "--m", "2", "--n-max", "12"],
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


def test_cross_at_acceptance_scale_matches_golden(capsys):
    """Cross at m <= 120, n <= 2400: Omega is empty at every n < 4m + 10 and
    Omega' at smaller n, 18,604 points in all, so the checks at
    empty regions run at scale."""
    code = run_cli(["verify", "--check", "cross", "--m-max", "120", "--n-max", "2400",
                    "--bivariate-order", "0", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-cross-m120.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_large_order_coefficients_match_their_digests(capsys, argv):
    """M_C1 at m = 7 up to q^2000 and M_C5 at m = 3 up to q^2001: fields
    wider than 64 bits, and both parities of the order."""
    code = run_cli(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert code == 0
    assert digest == DIGESTS[argv]
