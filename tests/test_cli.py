"""CLI surface: subcommands, formats, exit codes, byte-identical output."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sptcrank
from sptcrank import bivariate, bounds, lattice, qseries, verify
from sptcrank.cli import run_cli
from test_qseries import packed


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


def test_package_version_is_the_reported_tool_version():
    assert sptcrank.__version__ == verify.TOOL_VERSION
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert f'version = "{verify.TOOL_VERSION}"' in pyproject.read_text().splitlines()


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


@pytest.mark.parametrize("flag", [
    ["--m-max", "5"], ["--n-max", "5"], ["--bivariate-order", "5"],
    ["--override-resource-guard"],
])
def test_finite_window_takes_no_range_or_guard_flags(run, flag):
    """The window's range is fixed and never trips the guard, so these
    flags could not change the run: each is a usage error."""
    code, out, err = run("finite-window", *flag)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_resource_guard_exit_three(run):
    code, _, err = run(
        "verify", "--check", "y-nonneg", "--m-max", "100000", "--n-max", "100000"
    )
    assert code == 3
    assert "resource" in err or "slots" in err


def test_resource_guard_weighs_bivariate_order(run, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the guard should stop the check before the expansion")

    monkeypatch.setattr(verify.bivariate, "spt_crank_bivariate", must_not_run)
    code, out, err = run(
        "verify", "--check", "cross", "--m-max", "0", "--n-max", "1",
        "--bivariate-order", "10000",
    )
    assert code == 3
    assert out == ""
    assert "slots" in err


def test_resource_guard_weighs_every_check_before_any_runs(run, monkeypatch):
    # the cross row trips on --bivariate-order; the checks ahead of it in
    # canonical order must not run first and then have their work discarded
    def must_not_run(*args):
        raise AssertionError("the guard should stop every check before its sweep")

    monkeypatch.setattr(verify, "_CHECKS", {
        cid: c._replace(worker=must_not_run) for cid, c in verify._CHECKS.items()
    })
    code, out, err = run(
        "verify", "--check", "all", "--m-max", "0", "--n-max", "1",
        "--bivariate-order", "10000",
    )
    assert code == 3
    assert out == ""
    assert "slots" in err


def test_resource_guard_weighs_grid_slots(run, monkeypatch):
    # 100 * 1,000,001 = 100,000,100 coefficient slots, just over the guard
    def must_not_sweep(n_lo, n_hi, top):
        raise AssertionError("the guard should stop the check before its sweep")

    monkeypatch.setattr(verify.divisors, "_tallies", must_not_sweep)
    code, out, err = run(
        "verify", "--check", "y-nonneg", "--m-max", "99", "--n-max", "1000000"
    )
    assert code == 3
    assert out == ""
    assert "slots" in err


@pytest.mark.parametrize("argv, module, builder", [
    (("coeff", "--family", "mc1", "--n-max", "1000000000"), qseries, "mc1_series"),
    (("coeff", "--family", "z", "--m", "2", "--n-max", "1000000000"), qseries, "z_series"),
    (("bounds", "--m-max", "1000000000"), bounds, "threshold_profile"),
    # about isqrt(2 * 10^17) = 447,213,595 columns
    (("lattice", "--region", "omega-prime", "--m", "0", "--n", str(10**17)), lattice,
     "count_region"),
])
def test_resource_guard_weighs_coeff_and_bounds(run, monkeypatch, argv, module, builder):
    def must_not_build(*args):
        raise AssertionError("the guard should stop the command before it builds")

    monkeypatch.setattr(module, builder, must_not_build)
    code, out, err = run(*argv)
    assert code == 3
    assert out == ""
    assert "slots" in err


@pytest.mark.parametrize("argv", [
    ("coeff", "--family", "mc5", "--n-max", "20"),
    ("bounds", "--m-max", "20"),
    ("lattice", "--region", "omega", "--m", "1", "--n", "100"),
])
def test_env_overrides_the_guard_of_coeff_and_bounds(run, monkeypatch, argv):
    """--override-resource-guard, the one override, lets coeff, bounds and
    lattice past the guard as it does verify."""
    monkeypatch.setattr(verify, "RESOURCE_GUARD_SLOTS", 10)
    assert run(*argv)[0] == 3
    assert run(*argv, "--override-resource-guard")[0] == 0


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "y-nonneg", "--m-max", "3", "--n-max", "20"),
    ("coeff", "--family", "mc5", "--n-max", "20"),
    ("bounds", "--m-max", "20"),
    ("lattice", "--region", "omega-prime", "--m", "2", "--n", "100"),
])
def test_guard_refusal_names_the_override_flag(run, monkeypatch, argv):
    monkeypatch.setattr(verify, "RESOURCE_GUARD_SLOTS", 10)
    code, out, err = run(*argv)
    assert code == 3
    assert out == ""
    assert "--override-resource-guard" in err


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


def test_cross_json_byte_identical_across_parallelism(run):
    """--parallel p splits m <= 17 into p cross parts; every p gives the golden bytes."""
    argv = ["verify", "--check", "cross", "--m-max", "17", "--n-max", "300",
            "--bivariate-order", "20", "--json"]
    golden = (Path(__file__).resolve().parent / "golden" / "cross-check-m17.json").read_text(
        encoding="utf-8"
    )
    for parallel in ("1", "2", "3"):
        assert run(*argv, "--parallel", parallel) == (0, golden, ""), parallel


def test_conjecture_json_byte_identical_across_parallelism(run):
    """--parallel p splits m <= 17 into p conjecture parts; every p gives the golden bytes."""
    argv = ["verify", "--check", "conjecture", "--m-max", "17", "--n-max", "300", "--json"]
    golden = (Path(__file__).resolve().parent / "golden" / "conjecture-m17.json").read_text(
        encoding="utf-8"
    )
    for parallel in ("1", "2", "3"):
        assert run(*argv, "--parallel", parallel) == (0, golden, ""), parallel



def test_window_checks_json_byte_identical_across_parallelism(run):
    """The x-small-n check at m <= 17 and the finite window print their
    golden bytes at every --parallel."""
    golden = Path(__file__).resolve().parent / "golden"
    for name, argv in (
        ("x-small-n-m17", ["verify", "--check", "x-small-n", "--m-max", "17", "--json"]),
        ("finite-window", ["finite-window", "--json"]),
    ):
        expected = (golden / f"{name}.json").read_text(encoding="utf-8")
        for parallel in ("1", "2", "3"):
            assert run(*argv, "--parallel", parallel) == (0, expected, ""), (name, parallel)

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


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_unwritable_out_is_usage_error_before_the_sweep(run, monkeypatch, tmp_path, where):
    """--out into a missing directory, or onto a directory, exits 2 and runs no sweep."""
    swept = []
    monkeypatch.setattr(verify, "run_checks", lambda cfg: swept.append(cfg) or [])
    target = tmp_path / where
    code, out, err = run("verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "5",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert err.count("\n") == 1
    assert swept == []
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_out_check_leaves_an_existing_file_alone(run, tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("old contents", encoding="utf-8")
    code, _, _ = run("verify", "--check", "bogus", "--out", str(target))
    assert code == 2
    assert target.read_text(encoding="utf-8") == "old contents"
    code, _, _ = run("verify", "--check", "bogus", "--out", str(tmp_path / "new.txt"))
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "module, name, exc, argv",
    [
        (verify, "run_checks", RuntimeError("boom"), ("verify", "--check", "y-nonneg")),
        (bounds, "threshold_profile", ArithmeticError("near-tie"), ("bounds", "--m-max", "3")),
        # a ValueError past the argv's own checks is a fault, not a usage error
        (qseries, "x_series", ValueError("m must be non-negative"),
         ("coeff", "--family", "x", "--n-max", "5")),
        (lattice, "count_region", ValueError("odd_y must lie between 0 and total"),
         ("lattice", "--region", "omega", "--m", "1", "--n", "10")),
        (bivariate, "spt_crank_bivariate", ValueError("z^-20 is nonzero below q^20"),
         ("verify", "--check", "cross", "--m-max", "2", "--n-max", "20")),
    ],
)
def test_unexpected_error_exits_four(run, monkeypatch, module, name, exc, argv):
    fail = _raise(exc)
    monkeypatch.setattr(module, name, fail)
    code, out, err = run(*argv)
    assert code == 4
    assert out == ""
    assert err.startswith(f"error: internal: {exc!r} at ")
    assert err.count("\n") == 1
    # the innermost frame: the `raise exc` line of fail, one after its `def`
    raised_at = f"{fail.__code__.co_filename}:{fail.__code__.co_firstlineno + 1}"
    assert err.removeprefix(f"error: internal: {exc!r} at ") == raised_at + "\n"


@pytest.mark.parametrize("check", verify.CHECK_IDS)
def test_a_value_error_in_a_worker_exits_four(run, monkeypatch, check):
    """Only the argv's own checks exit 2: a worker that raises ValueError
    while its check runs is an internal error."""
    fail = _raise(ValueError("z^-20 is nonzero below q^20"))
    monkeypatch.setitem(verify._CHECKS, check, verify._CHECKS[check]._replace(worker=fail))
    argv = ["verify", "--check", check, "--m-max", "2", "--n-max", "20"]
    code, out, err = run(*(["finite-window"] if check == "finite-window" else argv))
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: ValueError('z^-20 is nonzero below q^20') at ")


def test_corrupted_series_is_verification_failure(run, monkeypatch):
    def negative(m_lo, m_hi, order):
        for m in range(m_lo, m_hi + 1):
            yield m, packed((-1,) * (order + 1)), packed(qseries.mc5_series(m, order).coeffs)

    monkeypatch.setattr(qseries, "mc_sweep", negative)
    code, out, _ = run("verify", "--check", "conjecture", "--m-max", "1", "--n-max", "5")
    assert code == 1
    assert "conjecture: fail" in out


@pytest.mark.parametrize("argv", [
    ("cross-check",),
    ("coeff", "--family", "mc5", "--n-max", "5", "--timing"),
    ("lattice", "--region", "omega", "--m", "1", "--n", "10", "--timing"),
    ("bounds", "--m-max", "3", "--timing"),
    ("verify", "--check", "y-nonneg", "--m-max", "1", "--n-max", "5", "--csv", "--json"),
])
def test_flags_that_would_do_nothing_are_usage_errors(run, argv):
    """An unknown subcommand, --timing where no time is reported, and a
    second output format are usage errors, never silently ignored."""
    code, out, _ = run(*argv)
    assert (code, out) == (2, "")


def test_environment_sets_no_default(run, monkeypatch, tmp_path):
    """SPTCRANK_* variables neither redirect, break nor change a run."""
    monkeypatch.setenv("SPTCRANK_OUT", str(tmp_path / "report.json"))
    monkeypatch.setenv("SPTCRANK_PARALLEL", "abc")
    monkeypatch.setenv("SPTCRANK_OVERRIDE_RESOURCE_GUARD", "yes")
    golden = (Path(__file__).resolve().parent / "golden" / "finite-window.json").read_text(
        encoding="utf-8"
    )
    assert run("finite-window", "--json") == (0, golden, "")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv, line", [
    (["lattice", "--region", "omega", "--m", "22000", "--n", "4"], "  total=0 oddY=0"),
    (["verify", "--check", "cross", "--m-max", "14000", "--n-max", "4", "--bivariate-order", "0"],
     "cross: pass (0<=m<=14000, 1<=n<=4; bivariate order 0, 0 violations)"),
])
def test_large_m_is_no_usage_error(run, argv, line):
    """At m >> sqrt(n) the region figures stay well ordered, so these valid
    runs succeed, where cancelling vertex forms once made them exit 2."""
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


def test_lattice_rejects_negative(run):
    code, _, err = run("lattice", "--region", "omega", "--m", "-1", "--n", "10")
    assert code == 2


def test_lattice_rejects_m_and_n_past_the_float_range(run):
    """(m, n) whose root radicand 4m^2 + 12(n+1) exceeds the largest float
    is a usage error (exit 2), not an internal one; the largest m below the
    limit still runs."""
    n = 4
    edge = math.isqrt((int(sys.float_info.max) - 12 * (n + 1)) // 4)
    for m in (edge + 1, 10**160):
        assert run("lattice", "--region", "omega", "--m", str(m), "--n", str(n)) == (
            2, "", "error: m and n too large: 4m^2 + 12(n+1) exceeds the largest float\n")
    for region in ("omega", "omega-prime"):
        code, out, err = run("lattice", "--region", region, "--m", str(edge), "--n", str(n))
        assert (code, err) == (0, ""), region
        assert "  total=0 oddY=0" in out.splitlines(), region


def test_lattice_rejects_an_area_term_past_the_float_range(run):
    """At m = 10^153, n = 10^306 the radicand fits a float but 8m(n+1), the
    areas' rational term, does not: a usage error (exit 2), before the
    guard weighs the columns."""
    assert run("lattice", "--region", "omega", "--m", str(10**153), "--n", str(10**306)) == (
        2, "", "error: m and n too large: 8m(n+1) exceeds the largest float\n")


def test_lattice_guard_weighs_its_exact_column_bound(run):
    """The guard weighs min(m + isqrt(2(n+1)), n // 2) + 1 exactly, where a
    float square root would be off by one at n = 10^33."""
    n = 10**33
    columns = math.isqrt(2 * (n + 1)) + 1
    assert columns == 44721359549995794
    code, out, err = run("lattice", "--region", "omega", "--m", "0", "--n", str(n))
    assert (code, out) == (3, "")
    assert f"~{columns} columns" in err


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
