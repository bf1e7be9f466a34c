"""The CLI's help and usage-error texts, pinned byte for byte.

Each argv's output must equal tests/golden/cli/<name>.txt: standard output
for a --help (exit 0), standard error for a usage error (exit 2), with the
other stream empty.  argparse wraps its texts to the terminal width, so
the files are recorded, and compared, at COLUMNS=80.

Re-record (only for a change meant to alter a text):

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_texts.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from sptcrank.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

TEXTS = {
    "help": ["--help"],
    "help-coeff": ["coeff", "--help"],
    "help-verify": ["verify", "--help"],
    "help-finite-window": ["finite-window", "--help"],
    "help-lattice": ["lattice", "--help"],
    "help-bounds": ["bounds", "--help"],
    "usage-bogus": ["bogus"],
    "usage-verify-bogus": ["verify", "--bogus"],
    "usage-json-verify": ["--json", "verify"],
}


def run(argv: list) -> tuple:
    """(exit code, standard output, standard error) of run_cli(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_cli_text_matches_golden(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    expected = (0, golden, "") if name.startswith("help") else (2, "", golden)
    assert run(TEXTS[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in TEXTS.items():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.txt").write_text(out if code == 0 else err, encoding="utf-8")
