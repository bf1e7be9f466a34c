"""CLI surface: subcommands, formats, exit codes, byte-identical output."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sptcrank
from sptcrank import bounds, qseries, verify
from sptcrank.cli import run_cli
from sptcrank.series import TruncatedSeries


@pytest.fixture
def run(capsys):
    def _run(*args):
        code = run_cli(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def test_coeff_text(run):
    code, out, _ = run("coeff", "--family", "mc5", "--m", "0", "--n-max", "6")
    assert code == 0
    assert out.splitlines() == [
        "mc5 m=0 n=1 1",
        "mc5 m=0 n=2 0",
        "mc5 m=0 n=3 1",
        "mc5 m=0 n=4 0",
        "mc5 m=0 n=5 2",
        "mc5 m=0 n=6 2",
    ]


def test_coeff_csv_schema(run):
    code, out, _ = run("coeff", "--family", "x", "--m", "0", "--n-max", "10", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "m", "n", "value", "expected"]
    assert [r[3] for r in rows[1:]] == ["1", "1", "1", "1", "1", "2", "1", "2", "2", "1"]


def test_coeff_json(run):
    code, out, _ = run("coeff", "--family", "mc1", "--m", "-2", "--n-max", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert doc["tool"]["name"] == "sptcrank"
    assert [r["value"] for r in doc["records"]] == ["0", "0", "1", "1", "2"]


def test_coeff_negative_m_symmetric(run):
    _, out_pos, _ = run("coeff", "--family", "mc5", "--m", "3", "--n-max", "12")
    _, out_neg, _ = run("coeff", "--family", "mc5", "--m", "-3", "--n-max", "12")
    assert [l.split()[-1] for l in out_pos.splitlines()] == [
        l.split()[-1] for l in out_neg.splitlines()
    ]


@pytest.mark.parametrize("family", ["x", "y", "z"])
def test_coeff_negative_m_rejected_for_asymmetric_families(run, family):
    code, out, err = run("coeff", "--family", family, "--m", "-3", "--n-max", "10")
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def run_module(*args):
    """`python -m sptcrank.cli ARGS` in a child interpreter."""
    src = str(Path(sptcrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "sptcrank.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_entry_point():
    ok = run_module("verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "5")
    assert ok.returncode == 0
    assert "y-nonneg: pass" in ok.stdout
    bad = run_module("verify", "--check", "bogus")
    assert bad.returncode == 2
    assert "unknown check" in bad.stderr


def test_verify_pass_exit_zero(run):
    code, out, _ = run("verify", "--check", "y-nonneg", "--m-max", "2", "--n-max", "30")
    assert code == 0
    assert "y-nonneg: pass" in out


def test_verify_unknown_check_is_usage_error(run):
    code, _, err = run("verify", "--check", "bogus")
    assert code == 2
    assert "unknown check" in err
    assert ", ".join(verify.CHECK_IDS) in err


def test_bad_flag_is_usage_error(run):
    code, _, _ = run("verify", "--not-a-flag")
    assert code == 2


def test_negative_config_is_usage_error(run):
    code, _, err = run("verify", "--check", "y-nonneg", "--m-max", "-5")
    assert code == 2
    assert "error" in err


def test_negative_bivariate_order_is_usage_error(run):
    code, out, err = run("verify", "--check", "cross", "--bivariate-order", "-3")
    assert code == 2
    assert out == ""
    assert "bivariate_order must be non-negative" in err


def test_resource_guard_exit_three(run):
    code, _, err = run(
        "verify", "--check", "y-nonneg", "--m-max", "100000", "--n-max", "100000"
    )
    assert code == 3
    assert "resource" in err or "slots" in err


def test_verify_json_byte_identical_across_parallelism(run):
    argv = ["verify", "--check", "all", "--m-max", "2", "--n-max", "30",
            "--bivariate-order", "15", "--json"]
    code1, out1, _ = run(*argv, "--parallel", "1")
    code8, out8, _ = run(*argv, "--parallel", "8")
    assert code1 == code8 == 0
    assert out1 == out8
    doc = json.loads(out1)
    assert [r["checkId"] for r in doc["reports"]] == [
        "y-nonneg", "x-small-n", "finite-window", "conjecture", "cross"
    ]
    assert all(r["elapsedMs"] == 0 for r in doc["reports"])


def test_timing_flag_populates_elapsed(run):
    code, out, _ = run(
        "verify", "--check", "y-nonneg", "--m-max", "2", "--n-max", "30",
        "--json", "--timing",
    )
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["reports"][0]["elapsedMs"], int)


def test_out_flag_writes_file(run, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        "verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "20",
        "--json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schemaVersion"] == 1


def test_env_parallel_default(run, monkeypatch):
    monkeypatch.setenv("SPTCRANK_PARALLEL", "2")
    code, out, _ = run(
        "verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "20", "--json"
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["status"] == "pass"


def test_malformed_env_parallel_is_usage_error(run, monkeypatch):
    monkeypatch.setenv("SPTCRANK_PARALLEL", "abc")
    code, out, err = run("verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "5")
    assert code == 2
    assert out == ""
    assert "--parallel" in err and "'abc'" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "module, name, exc, argv",
    [
        (verify, "run_checks", RuntimeError("boom"), ("verify", "--check", "y-nonneg")),
        (bounds, "threshold_profile", ArithmeticError("near-tie"), ("bounds", "--m-max", "3")),
    ],
)
def test_unexpected_error_exits_four(run, monkeypatch, module, name, exc, argv):
    monkeypatch.setattr(module, name, _raise(exc))
    code, out, err = run(*argv)
    assert code == 4
    assert out == ""
    assert err.startswith(f"error: internal: {exc!r} at ")
    assert err.count("\n") == 1


def test_corrupted_series_is_verification_failure(run, monkeypatch):
    def negative(m, order):
        return TruncatedSeries(order, (-1,) * (order + 1))

    monkeypatch.setattr(qseries, "mc1_series", negative)
    code, out, _ = run("verify", "--check", "conjecture", "--m-max", "1", "--n-max", "5")
    assert code == 1
    assert "conjecture: fail" in out


def test_cross_check_alias(run):
    argv = ["--m-max", "1", "--n-max", "20", "--bivariate-order", "10", "--json"]
    c1, out1, _ = run("cross-check", *argv)
    c2, out2, _ = run("verify", "--check", "cross", *argv)
    assert c1 == c2 == 0
    assert out1 == out2


def test_lattice_subcommand(run):
    code, out, _ = run("lattice", "--region", "omega", "--m", "0", "--n", "10")
    assert code == 0
    assert "total=1 oddY=1" in out
    code, out, _ = run(
        "lattice", "--region", "omega-prime", "--m", "0", "--n", "10", "--json"
    )
    doc = json.loads(out)
    assert (doc["total"], doc["oddY"]) == ("4", "2")
    assert len(doc["vertices"]) == 4


def test_lattice_rejects_negative(run):
    code, _, err = run("lattice", "--region", "omega", "--m", "-1", "--n", "10")
    assert code == 2


def test_bounds_subcommand(run):
    code, out, _ = run("bounds", "--m-max", "3", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 5
    assert all(r[4] == "f(m)>20m" for r in rows[1:])


def test_verify_csv_summary_rows(run):
    code, out, _ = run(
        "verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "20", "--csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "m", "n", "value", "expected"]
    assert rows[-1][0] == "y-nonneg" and rows[-1][3] == "pass"
