"""Verifier orchestration: reports, determinism, negative paths, guard."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sptcrank
from sptcrank import bivariate, bounds, divisors, lattice, qseries, verify
from sptcrank.verify import (
    CHECK_IDS,
    ResourceGuardError,
    SweepConfig,
    Violation,
    run_checks,
)
from sptcrank.cli import run_cli
from test_bivariate import OTHER_FAMILIES
from test_qseries import packed


def small_cfg(**kw):
    base = dict(m_max=3, n_max=50, checks=CHECK_IDS, bivariate_order=20)
    base.update(kw)
    return SweepConfig(**base)


def report_key(r):
    return (r.check_id, r.range_desc, r.status, tuple(r.violations), tuple(map(tuple, (s.items() for s in r.skips))))


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(m_max=-1)
    with pytest.raises(ValueError):
        SweepConfig(parallelism=0)
    with pytest.raises(ValueError, match="unknown check id 'nope'; choose from y-nonneg"):
        SweepConfig(checks=("nope",))
    with pytest.raises(ValueError):
        SweepConfig(bivariate_order=-1)
    SweepConfig(bivariate_order=0)


def test_all_checks_pass_on_small_grid():
    reports = run_checks(small_cfg())
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    assert all(r.status == "pass" for r in reports)
    assert all(not r.violations for r in reports)


def test_check_subset_and_order():
    reports = run_checks(small_cfg(checks=("cross", "y-nonneg")))
    # canonical order, not request order
    assert [r.check_id for r in reports] == ["y-nonneg", "cross"]


def test_parallel_results_identical():
    serial = run_checks(small_cfg(checks=("y-nonneg", "conjecture", "cross")))
    parallel = run_checks(
        small_cfg(checks=("y-nonneg", "conjecture", "cross"), parallelism=4)
    )
    assert [report_key(r) for r in serial] == [report_key(r) for r in parallel]


def test_cross_reports_jarnik_skips():
    rep = run_checks(small_cfg(checks=("cross",)))[0]
    reasons = [s["reason"] for s in rep.skips]
    assert any("Jarnik" in r for r in reasons)


def test_finite_window_reports_coverage_count():
    rep = run_checks(small_cfg(checks=("finite-window",)))[0]
    assert rep.status == "pass"
    counted = [s for s in rep.skips if s["reason"] == "values checked"]
    assert counted and counted[0]["count"] > 70000


def test_conjecture_notes_an_empty_n_range():
    rep = run_checks(small_cfg(checks=("conjecture",), n_max=0))[0]
    assert rep.status == "pass"
    assert rep.skips == [{"reason": "empty n range", "count": 1}]
    assert run_checks(small_cfg(checks=("conjecture",), n_max=1))[0].skips == []


def test_cross_notes_an_empty_n_range():
    """With n_max = 0 and no bivariate order, cross checks nothing, so its
    report says so, as y-nonneg's and conjecture's do."""
    rep = run_checks(small_cfg(checks=("cross",), m_max=0, n_max=0, bivariate_order=0))[0]
    assert rep.status == "pass"
    assert rep.skips == [{"reason": "empty n range", "count": 1}]
    assert run_checks(small_cfg(checks=("cross",), m_max=0, n_max=1, bivariate_order=0))[0].skips == []


def test_checks_over_n_note_an_empty_n_range(capsys):
    """Each check whose range reads n_max notes n_max = 0 once; x-small-n
    and finite-window, whose n ranges do not read it, note nothing of it."""
    argv = ["verify", "--check", "all", "--m-max", "1", "--n-max", "0",
            "--bivariate-order", "0", "--json"]
    assert run_cli(argv) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    notes = {r["checkId"]: [s for s in r["skipped"] if s["reason"] == "empty n range"]
             for r in reports}
    one = [{"reason": "empty n range", "count": 1}]
    assert notes == {"y-nonneg": one, "x-small-n": [], "finite-window": [],
                     "conjecture": one, "cross": one}


def serial_pool(monkeypatch) -> list:
    """Replace the process pool by one whose map runs in this process, so
    patches and call records hold in every part; returns the list that
    records each pool's max_workers."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked


def test_worker_pool_capped_at_the_number_of_parts(monkeypatch):
    """The pool is asked for at most one worker per part; its map runs serially."""
    asked = serial_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 10**6)  # far above every part count
    checks = ("y-nonneg", "finite-window", "conjecture")
    pooled = run_checks(small_cfg(m_max=9, checks=checks, parallelism=5000))
    # y-nonneg's one n-block runs without a pool; the window and conjecture
    # split into one run per m, 121 and 10, far fewer than the 5000 asked for
    assert len(verify.WINDOW_M) == 121
    assert asked == [121, 10]
    serial = run_checks(small_cfg(m_max=9, checks=checks))
    assert [report_key(r) for r in pooled] == [report_key(r) for r in serial]


@pytest.mark.parametrize("cpus, pools", [(4, [4, 4]), (1, []), (None, [])])
def test_worker_pool_capped_at_the_cpu_count(monkeypatch, cpus, pools):
    """--parallel above the CPU count asks the pool for one worker per CPU;
    with one CPU, or an unknown count, the parts run in this process and
    no pool starts.  The reports keep their bytes."""
    asked = serial_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    checks = ("finite-window", "conjecture")
    pooled = run_checks(small_cfg(m_max=9, checks=checks, parallelism=1000))
    assert asked == pools
    serial = run_checks(small_cfg(m_max=9, checks=checks))
    assert [report_key(r) for r in pooled] == [report_key(r) for r in serial]


WEIGHTS = {
    "unit": lambda m: 1,
    "x-small-n": lambda m: 20 * m + 1,
    "steep": lambda m: 4**m,  # the last m outweighs all before it
    "spikes": lambda m: 1000 if m % 7 == 3 else 1,  # one m can hold several shares
}


@settings(max_examples=300, deadline=None)
@given(first=st.integers(0, 130), count=st.integers(1, 160), parts=st.integers(1, 200),
       weight=st.sampled_from(sorted(WEIGHTS)))
def test_m_runs_cover_the_range_contiguously(first, count, parts, weight):
    """min(parts, #m) nonempty runs, ascending, each starting just after the
    last one ends, from the first m to the last."""
    ms = range(first, first + count)
    runs = verify._m_runs(ms, parts, WEIGHTS[weight])
    assert len(runs) == min(parts, count)
    assert all(lo <= hi for lo, hi in runs)
    assert [m for lo, hi in runs for m in range(lo, hi + 1)] == list(ms)


def test_each_m_check_splits_into_one_run_per_worker():
    """At parallelism 1 each m-check is one run from m = 0; at parallelism 2
    the grid checks and the window split their m evenly, and x-small-n its
    work: 20m + 1 values at each m put the boundary near m = 212 of 300."""
    def parts(check, **kw):
        return verify._CHECKS[check].args(SweepConfig(checks=(check,), **kw))

    for check in ("conjecture", "cross"):
        assert parts(check, m_max=300, n_max=9) == [(0, 300, 9)]
        assert parts(check, m_max=300, n_max=9, parallelism=2) == [(0, 150, 9), (151, 300, 9)]
    assert parts("finite-window") == [(0, 120)]
    assert parts("finite-window", parallelism=2) == [(0, 60), (61, 120)]
    assert parts("x-small-n", m_max=300) == [(0, 300)]
    runs = parts("x-small-n", m_max=300, parallelism=2)
    assert runs == [(0, 212), (213, 300)]
    work = [sum(20 * m + 1 for m in range(lo, hi + 1)) for lo, hi in runs]
    assert abs(work[0] - work[1]) <= 20 * 212 + 1  # within one m's work of equal


def test_window_m_ends_where_f_stops_exceeding_20m():
    """The finite window's m range is exactly where f(m) > 20m: it holds at
    every m of WINDOW_M and at no m after it (f(m) - 20m decreases)."""
    assert verify.WINDOW_M == range(121)
    assert all(bounds.threshold_profile(m).f_exceeds_20m for m in verify.WINDOW_M)
    after = range(verify.WINDOW_M[-1] + 1, 400)
    assert not any(bounds.threshold_profile(m).f_exceeds_20m for m in after)


def test_finite_window_fails_when_its_m_range_ends_early(monkeypatch, capsys):
    """A window one m short leaves m = 120, where f(m) > 20m still holds,
    unswept: finite-window reports the gap there, words its range from the
    shortened window, and exits 1."""
    monkeypatch.setattr(verify, "WINDOW_M", range(120))
    assert run_cli(["finite-window", "--parallel", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("finite-window: fail (0<=m<=119, 20m<n<f(m), 1 violations)\n")
    assert "m=120 n=0 value=coverage gap expected: f(m) <= 20m for m > 119" in out


def test_importing_the_cli_loads_no_process_pool():
    """A serial run never loads concurrent.futures or multiprocessing:
    verify imports the pool only when it maps parts over one."""
    src = str(Path(sptcrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, sptcrank.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def _poisoned_rows(m_bad=None, n_bad=15):
    """divisors.census_rows with #A1 one too large at n_bad, at every m or
    at m_bad only, which raises Y^(m)(n_bad) by one."""
    real = divisors.census_rows

    def census_rows(m_lo, m_hi, n_max):
        for m, (ys, zs) in zip(range(m_lo, m_hi + 1), real(m_lo, m_hi, n_max)):
            if m_bad in (None, m) and n_bad <= n_max:
                ys = list(ys)  # a copy: the real rows carry to the next m
                ys[n_bad - 1] += 1
            yield ys, zs

    return census_rows


def test_census_corruption_is_caught(monkeypatch):
    """Poisoning the divisor census must surface as cross-check violations."""
    monkeypatch.setattr(divisors, "census_rows", _poisoned_rows())
    rep = run_checks(small_cfg(checks=("cross",)))[0]
    assert rep.status == "fail"
    assert any(v.n == 15 and "divisor Y" in v.expected for v in rep.violations)


def test_census_corruption_in_the_second_block_names_its_m(monkeypatch):
    """A census poisoned at m = 9 only, an m of the second cross part, is
    reported at m = 9 and at no other m."""
    monkeypatch.setattr(divisors, "census_rows", _poisoned_rows(m_bad=9))
    serial_pool(monkeypatch)
    cfg = small_cfg(m_max=17, checks=("cross",), parallelism=3)
    second = verify._CHECKS["cross"].args(cfg)[1]
    assert second[0] <= 9 <= second[1]
    rep = run_checks(cfg)[0]
    assert rep.status == "fail"
    assert {v.m for v in rep.violations} == {9}
    assert any(v.n == 15 and "divisor Y" in v.expected for v in rep.violations)


def test_cross_worker_takes_one_census_per_n_and_no_region_count(monkeypatch):
    """Each cross part reads each n's divisor pairs once, by one _tallies
    over 1..n_max for its whole run of m, never by census, and takes its
    lattice counts from the count sweep, never from count_region."""
    calls = {"census": [], "_tallies": [], "count_region": []}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(divisors, "census")
    counting(divisors, "_tallies")
    counting(lattice, "count_region")
    serial_pool(monkeypatch)
    shapes = {1: [(0, 17, 120)], 3: [(0, 5, 120), (6, 11, 120), (12, 17, 120)]}
    for parallelism, parts in shapes.items():
        cfg = small_cfg(m_max=17, n_max=120, checks=("cross",), bivariate_order=0,
                        parallelism=parallelism)
        assert verify._CHECKS["cross"].args(cfg) == parts
        for found in calls.values():
            found.clear()
        rep = run_checks(cfg)[0]
        assert rep.status == "pass" and rep.skips
        assert calls == {
            "census": [], "count_region": [],
            "_tallies": [(1, cfg.n_max, 2 * m_hi + 1) for _, m_hi, _ in parts],
        }


def test_cross_worker_computes_each_area_once_per_even_n(monkeypatch):
    """Figures, M1/M2 bounds and the bound combination share one area per
    region and even n."""
    calls = {1: 0, 2: 0}  # points of lattice._area_columns: 1 Omega, 2 Omega'
    real = lattice._area_columns

    def counting(m, ns):
        area_o, area_p = real(m, ns)
        calls[1] += len(area_o)
        calls[2] += len(area_p)
        return area_o, area_p

    monkeypatch.setattr(lattice, "_area_columns", counting)
    violations, skips = verify._cross_worker((3, 3, 120))
    assert violations == [] and skips > 0
    assert calls == {1: 60, 2: 60}


def test_a_passing_cross_worker_decides_every_column_at_once(monkeypatch):
    """On a passing part, every strict inequality of _cross_lattice is
    decided by bounds.all_strictly_less's column test: no point falls back
    to bounds.strictly_less.  The M1, M2, theorem 2 and bound-combination
    columns are never built: the column test runs on the two Jarnik
    columns at each m, and once on the points where a region is empty,
    which at every m <= 30 include n = 2 (Omega is empty while n < 4m + 10)."""
    calls, columns, built = [], [], []
    real = bounds.strictly_less
    monkeypatch.setattr(bounds, "strictly_less", lambda a, b: calls.append((a, b)) or real(a, b))
    real_all = bounds.all_strictly_less
    monkeypatch.setattr(bounds, "all_strictly_less", lambda a, b: columns.append(len(a)) or real_all(a, b))
    monkeypatch.setattr(lattice, "bound_columns", lambda *args: built.append(args))
    violations, skips = verify._cross_worker((0, 30, 2000))
    assert violations == [] and skips > 0
    assert calls == [] and built == []
    assert len(columns) == 31 * 2 + 31


@st.composite
def jarnik_columns(draw):
    """(totals, length): totals with zeros anywhere, or growing with n as
    count_sweep's do, and lengths on both sides of 1."""
    totals = draw(st.lists(st.sampled_from((0, 0, 1, 5, 10**20)), max_size=24))
    if draw(st.booleans()):
        totals.sort()
    bound = st.one_of(st.sampled_from((1.0, 0.0, math.nextafter(1.0, 0.0))), st.floats(0, 3))
    length = draw(st.lists(bound, min_size=len(totals), max_size=len(totals)))
    if draw(st.booleans()):
        length = [max(b, 1.0) for b in length]
    return totals, length


@given(jarnik_columns())
@settings(max_examples=500, deadline=None)
def test_jarnik_points_are_those_that_meet_its_hypothesis(columns):
    """_jarnik_points keeps exactly the points with a nonempty region and a
    length bound >= 1, and counts the others, as the point-by-point
    comprehension does; every point from the start it returns on is kept."""
    totals, length = columns
    ns = range(2, 2 * len(totals) + 2, 2)
    dev = [0.5 * i for i in range(len(totals))]
    met = [total != 0 and not bound < 1 for total, bound in zip(totals, length)]
    skips, kept, start = verify._jarnik_points(ns, totals, dev, length)
    assert skips == len(met) - sum(met)
    assert [list(c) for c in kept] == [list(compress(c, met)) for c in (ns, dev, length)]
    assert all(met[start:]) and start in (totals.count(0), len(ns))


def test_lattice_corruption_in_the_second_block_names_its_m_and_n(monkeypatch):
    """An Omega' odd count poisoned at one (m, even n) of the second cross
    part is reported as a lattice M2-M1 violation at exactly that point."""
    real = lattice.count_sweep
    m_bad, n_bad = 10, 40

    def bad(kind, m, n_max):
        totals, odds = real(kind, m, n_max)
        if kind is lattice.RegionKind.OMEGA_PRIME and m == m_bad:
            odds = odds[:n_bad] + [odds[n_bad] + 1] + odds[n_bad + 1:]
        return totals, odds

    monkeypatch.setattr(lattice, "count_sweep", bad)
    serial_pool(monkeypatch)
    cfg = small_cfg(m_max=17, n_max=60, checks=("cross",), bivariate_order=0, parallelism=3)
    second = verify._CHECKS["cross"].args(cfg)[1]
    assert second[0] <= m_bad <= second[1]
    rep = run_checks(cfg)[0]
    assert rep.status == "fail"
    lattice_x = [(v.m, v.n) for v in rep.violations if "lattice M2-M1 == series X" in v.expected]
    assert lattice_x == [(m_bad, n_bad)]
    assert {(v.m, v.n) for v in rep.violations} == {(m_bad, n_bad)}


def test_jarnik_near_tie_is_reported_as_a_near_tie(monkeypatch):
    """An Omega area within the near-tie margin of N - length at one point
    fails the Jarnik check with classify_strict's "[near-tie]" text."""
    m, n = 2, 50
    total = lattice.count_region(lattice.RegionSpec(lattice.RegionKind.OMEGA, m, n)).total
    length = lattice.OMEGA_LENGTH * (n + 1) ** 0.5
    assert total > 0 and length >= 1
    real = lattice._area_columns

    def tied(m_, ns):
        area_o, area_p = real(m_, ns)
        return [total - length * (1 + 1e-12) if (m_, n_) == (m, n) else a
                for n_, a in zip(ns, area_o)], area_p

    monkeypatch.setattr(lattice, "_area_columns", tied)
    violations, _ = verify._cross_worker((0, 7, 60))
    jarnik = [v for v in violations if v[3].startswith("Jarnik")]
    assert [(v[0], v[1]) for v in jarnik] == [(m, n)]
    assert jarnik[0][3].endswith("[near-tie]")


def test_t_component_corruption_is_caught(monkeypatch):
    """Perturbing one T-component's term table must break the regrouping identity."""
    (alpha, beta, b, s), *rest = qseries.T_ROWS["T5"]
    monkeypatch.setitem(qseries.T_ROWS, "T5", ((alpha, beta, b, -s), *rest))
    rep = run_checks(small_cfg(checks=("x-small-n",)))[0]
    assert rep.status == "fail"
    assert any("T1+T3+T5" in v.expected for v in rep.violations)



@pytest.mark.parametrize("check, part", [("x-small-n", "R1"), ("finite-window", "X")])
def test_corrupted_sweep_is_caught_by_the_direct_build(monkeypatch, check, part):
    """A sweep whose last list is off by one at its run's last m fails its
    check with one violation per run, naming the part."""
    real = qseries.lambert_sweep

    def bad(parts, m_lo, m_hi, order, on_drop=None):
        for m, lists in real(parts, m_lo, m_hi, order, on_drop):
            if m == m_hi:
                lists[-1][-1] += 1
            yield m, lists

    monkeypatch.setattr(qseries, "lambert_sweep", bad)
    serial_pool(monkeypatch)
    for parallelism in (1, 3):
        cfg = small_cfg(m_max=17, checks=(check,), parallelism=parallelism)
        rep = run_checks(cfg)[0]
        assert rep.status == "fail"
        assert rep.violations == [
            Violation(m_hi, 0, f"swept {part} series", "equals the direct build")
            for _, m_hi in verify._CHECKS[check].args(cfg)
        ]
        assert len(rep.violations) == parallelism

def test_a_wrong_first_step_is_caught_at_the_end_of_its_run(monkeypatch):
    """A sweep that misses one monomial in its m = 0 -> 1 step, the first
    _drop_monomial call, is wrong at every later m of its run, so the one
    direct build at the run's last m sees it.  Each check runs as one sweep
    from m = 0 at parallelism 1; finite-window's X stays nonnegative, so only
    that comparison, at m = 120, reports the step."""
    real = qseries._drop_monomial
    missed = []

    def drop(acc, a, s):
        if missed:
            real(acc, a, s)
        else:
            missed.append((a, s))

    monkeypatch.setattr(qseries, "_drop_monomial", drop)
    x_small = run_checks(small_cfg(checks=("x-small-n",)))[0]
    assert missed == [(4, -1)]  # T's first term, -q^4/(1-q^2) at m = 0
    assert x_small.status == "fail"
    assert Violation(3, 0, "swept T series", "equals the direct build") in x_small.violations
    missed.clear()
    window = run_checks(small_cfg(checks=("finite-window",)))[0]
    assert missed == [(4, -1)]  # X's first term
    assert window.violations == [Violation(120, 0, "swept X series", "equals the direct build")]


@pytest.mark.parametrize("parallelism", [1, 3])
def test_a_packed_step_one_field_too_high_is_caught_by_the_direct_build(monkeypatch, parallelism):
    """An mc_sweep whose every step subtracts P2 one field too high gives
    series with no negative coefficient at m <= 20, n <= 1000, so
    has_negative cannot see it; the direct build at each run's last m,
    compared as whole ints, reports both families there."""
    real = qseries._sweep

    def sweep(live, accs, m_lo, m_hi, order, leave):
        # q^(a+2) is one field above q^a in a's parity int
        return real(live, accs, m_lo, m_hi, order, lambda acc, a, s: leave(acc, a + 2, s))

    monkeypatch.setattr(qseries, "_sweep", sweep)
    serial_pool(monkeypatch)
    cfg = SweepConfig(m_max=20, n_max=1000, checks=("conjecture",), parallelism=parallelism)
    rep = run_checks(cfg)[0]
    assert rep.violations == [
        Violation(m_hi, 0, f"swept {name} series", "equals the direct build")
        for _, m_hi, _ in verify._CHECKS["conjecture"].args(cfg)
        for name in ("M_C1", "M_C5")
    ]


def test_bivariate_z_asymmetry_is_caught(monkeypatch):
    """An expansion whose z^-1 column differs from its z^1 column must fail
    cross, though every +m slice still matches the univariate series."""
    real = bivariate.spt_crank_bivariate

    def skewed(family, order):
        s = real(family, order)
        rows = list(s.rows)
        z_inv = rows[order - 1]
        n = next(n for n, c in enumerate(z_inv) if c)
        rows[order - 1] = z_inv[:n] + (2 * z_inv[n],) + z_inv[n + 1:]
        return bivariate.LaurentSeries(s.order, tuple(rows))

    monkeypatch.setattr(bivariate, "spt_crank_bivariate", skewed)
    rep = run_checks(small_cfg(checks=("cross",)))[0]
    assert rep.status == "fail"
    assert rep.violations == [
        Violation(1, 0, "bivariate C1 slice at -m", "equals slice at +m"),
        Violation(1, 0, "bivariate C5 slice at -m", "equals slice at +m"),
    ]


def test_bivariate_negative_coefficient_above_m_max_is_caught(monkeypatch):
    """The sign scan reads every z-degree of the expansion: a negative
    coefficient at d > m_max fails cross though every slice check passes."""
    real = bivariate.spt_crank_bivariate
    cfg = small_cfg(checks=("cross",))
    d, n = cfg.m_max + 2, cfg.bivariate_order

    def negated(family, order):
        s = real(family, order)
        if family != "C5":
            return s
        rows = list(s.rows)
        rows[order + d] = rows[order + d][:n] + (-1,)
        return bivariate.LaurentSeries(s.order, tuple(rows))

    monkeypatch.setattr(bivariate, "spt_crank_bivariate", negated)
    rep = run_checks(cfg)[0]
    assert rep.status == "fail"
    assert rep.violations == [
        Violation(d, n, "-1", "M_C5(m,n) >= 0 on the bivariate expansion")
    ]


def test_cross_sign_scan_fails_the_e2_control(monkeypatch):
    """Negative control: with E2's row in bivariate.FAMILIES, cross reports
    each negative coefficient of E2's expansion, the first -1 at z^0 q^1.
    The slice checks read only C1 and C5, so the sign scan alone finds them."""
    monkeypatch.setitem(bivariate.FAMILIES, "E2", OTHER_FAMILIES["E2"])
    rep = run_checks(small_cfg(checks=("cross",), bivariate_order=2))[0]
    assert rep.status == "fail"
    assert rep.violations == [
        Violation(d, n, "-1", "M_E2(m,n) >= 0 on the bivariate expansion")
        for d, n in ((-1, 2), (0, 1), (1, 2))
    ]


def test_bivariate_expansions_have_no_negative_coefficient():
    for order in (12, 30, 60):
        for family in ("C1", "C5"):
            rows = bivariate.spt_crank_bivariate(family, order).rows
            assert min(map(min, rows)) >= 0, (family, order)


def test_worker_violations_capped_report_unchanged(monkeypatch):
    """Workers keep at most VIOLATION_CAP violations each, and the report
    is still the first VIOLATION_CAP of all violations in (m, n) order."""

    def failing(m_lo, m_hi, order):
        for m in range(m_lo, m_hi + 1):
            s = packed((-1,) * (order + 1))
            yield m, s, s

    def direct(m, order, width):  # the same series, so the sweep's audit passes
        s = packed((-1,) * (order + 1))
        return s, s

    monkeypatch.setattr(qseries, "mc_sweep", failing)
    monkeypatch.setattr(qseries, "mc_packed", direct)
    n_max = verify.VIOLATION_CAP + 200
    chunk, _ = verify._conjecture_worker((1, 1, n_max))
    assert len(chunk) == verify.VIOLATION_CAP
    assert chunk[:2] == [(1, 1, "-1", "M_C1(m,n) >= 0"), (1, 1, "-1", "M_C5(m,n) >= 0")]
    rep = run_checks(SweepConfig(m_max=2, n_max=n_max, checks=("conjecture",)))[0]
    everything = [
        Violation(m, n, "-1", f"M_C{c}(m,n) >= 0")
        for m in range(3)
        for n in range(1, n_max + 1)
        for c in (1, 5)
    ]
    assert rep.status == "fail"
    assert rep.violations == everything[: verify.VIOLATION_CAP]


def test_y_nonneg_violations_capped_across_n_blocks(monkeypatch, capsys):
    """With a containment failing at every (m, n), the y-nonneg report is
    the first VIOLATION_CAP violations in (m, n) order, though they span
    several n-blocks, and its bytes do not depend on parallelism.  The
    tallies gain one pair in A1 at e = 0, and 10^6 pairs in each of A2 and
    B1 at e >= 1, at every m: one containment fails and Y stays >= 0."""
    real = divisors._tallies

    def tallies(n_lo, n_hi, top):
        return [(e, [a1 + 1, a2, b1, b2] if e == 0 else [a1, a2 + 10**6, b1 + 10**6, b2], keys)
                for e, (a1, a2, b1, b2), keys in real(n_lo, n_hi, top)]

    monkeypatch.setattr(divisors, "_tallies", tallies)
    m_max, n_max = 3, 2 * verify.Y_BLOCK + 100
    rep = run_checks(SweepConfig(m_max=m_max, n_max=n_max, checks=("y-nonneg",)))[0]
    everything = []
    for m in range(m_max + 1):
        for n in range(1, n_max + 1):
            c = divisors.census(m, n)  # read through the corrupted tallies
            bad = divisors.containment_violation(c, divisors.OddPartDecomposition.of(n).e)
            assert bad is not None and c.y >= 0
            everything.append(Violation(m, n, f"{c}", bad))
    assert rep.status == "fail"
    assert rep.violations == everything[: verify.VIOLATION_CAP]
    assert {v.m for v in rep.violations} == {0, 1}
    outs = []
    for parallel in ("1", "2"):
        argv = ["verify", "--check", "y-nonneg", "--m-max", str(m_max),
                "--n-max", str(n_max), "--parallel", parallel, "--json"]
        assert run_cli(argv) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_violations_sorted_and_capped(monkeypatch):
    """The report holds its parts' violations in (m, n, expected) order,
    capped at VIOLATION_CAP, whatever order the parts return them in."""
    parts = iter([
        [(2, 5, "v", "e"), (1, 9, "v", "e")],
        [(1, 2, "v", "e")] + [(9, n, "v", "e") for n in range(2000)],
    ])
    check = verify._CHECKS["y-nonneg"]._replace(worker=lambda args: (next(parts), 0))
    monkeypatch.setitem(verify._CHECKS, "y-nonneg", check)
    cfg = SweepConfig(m_max=1, n_max=verify.Y_BLOCK + 1, checks=("y-nonneg",))
    rep = run_checks(cfg)[0]
    assert next(parts, None) is None
    assert rep.status == "fail"
    assert len(rep.violations) == verify.VIOLATION_CAP
    assert rep.violations[0] == Violation(1, 2, "v", "e")
    assert rep.violations[1] == Violation(1, 9, "v", "e")
    assert rep.violations[2] == Violation(2, 5, "v", "e")
    assert rep.violations[3:] == [Violation(9, n, "v", "e") for n in range(verify.VIOLATION_CAP - 3)]


def test_resource_guard_trips_and_overrides():
    huge = SweepConfig(m_max=10**4, n_max=10**5, checks=("y-nonneg",))
    with pytest.raises(ResourceGuardError):
        run_checks(huge)
    # the override flag disables the guard (not actually run to completion
    # here; the guard check itself is what's under test)
    ok = SweepConfig(
        m_max=10**4, n_max=10**5, checks=("y-nonneg",), override_resource_guard=True
    )
    verify.guard(10**12, ok.override_resource_guard)  # does not raise


@pytest.mark.parametrize("check", ("y-nonneg", "cross"))
def test_guard_weighs_grid_slots(check):
    # the weight is the grid's coefficient slots and nothing else
    for m, n, b in ((0, 0, 0), (0, 20_000_000, 0), (7, 2400, 30), (120, 10**5, 3)):
        cfg = SweepConfig(m_max=m, n_max=n, checks=(check,), bivariate_order=b)
        grid = (m + 1) * (n + 1)
        if check == "cross":
            grid = 3 * grid + (2 * b + 1) * (b + 1)
        assert verify._CHECKS[check].slots(cfg) == grid


@pytest.mark.parametrize("check, m_max, n_max", [
    ("y-nonneg", 99, 999_999),  # 100 * 10^6 = 10^8 slots
    ("cross", 0, 33_333_332),  # 3 * 33,333,333 + 1 = 10^8 slots
], ids=("y-nonneg", "cross"))
def test_guard_boundary(check, m_max, n_max):
    def weigh(n):
        cfg = SweepConfig(m_max=m_max, n_max=n, checks=(check,), bivariate_order=0)
        verify.guard(verify._CHECKS[check].slots(cfg), cfg.override_resource_guard)

    weigh(n_max)  # exactly the limit passes
    with pytest.raises(ResourceGuardError):
        weigh(n_max + 1)


def test_elapsed_ms_recorded():
    rep = run_checks(small_cfg(checks=("y-nonneg",)))[0]
    assert isinstance(rep.elapsed_ms, int) and rep.elapsed_ms >= 0
