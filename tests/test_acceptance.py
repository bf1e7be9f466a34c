"""Acceptance gate: the eight primary criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test prints exactly one `criterion N ...: PASS|FAIL` line and
then asserts, so a red test always has a matching FAIL line.
"""

import math

from sptcrank import bivariate, bounds, divisors, lattice, qseries
from sptcrank.cli import run_cli
from sptcrank.verify import SweepConfig, run_checks


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"{criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_1_oracle_triangle():
    """Series, divisor, and (even n) lattice paths agree exactly on X, Y, Z
    for 0 <= m <= 20, 1 <= n <= 1000."""
    bad = 0
    for m in range(21):
        xs = qseries.x_series(m, 1000)
        ys = qseries.y_series(m, 1000)
        zs = qseries.z_series(m, 1000)
        z_odd_acc = 0
        for n in range(1, 1001):
            if ys[n] != divisors.y_direct(m, n):
                bad += 1
            if zs[n] != divisors.z_direct(m, n):
                bad += 1
            if n % 2 == 1:
                z_odd_acc += zs[n]
                if xs[n] != z_odd_acc:
                    bad += 1
            else:
                if xs[n] != divisors.x_direct(m, n):
                    bad += 1
    assert report("criterion 1 (oracle triangle, m<=20, n<=1000)", bad == 0,
                  f"{bad} mismatches")


def test_criterion_2_finite_window():
    """X^(m)(n) >= 0 for all 0 <= m <= 120 and 20m < n < f(m)."""
    rep = run_checks(SweepConfig(checks=("finite-window",), parallelism=1))[0]
    checked = next(s["count"] for s in rep.skips if s["reason"] == "values checked")
    ok = rep.status == "pass" and checked > 0
    assert report("criterion 2 (finite window, m<=120, 20m<n<f(m))", ok,
                  f"{checked} values, {len(rep.violations)} violations")


def test_criterion_3_t_decomposition_window():
    """For 1 <= m <= 40, n <= 20m: T == X exactly, T == T1+...+T9+T',
    and R2 is coefficient-wise nonnegative."""
    bad = 0
    for m in range(1, 41):
        order = 20 * m
        t = qseries.t_series(m, order)
        if t.coeffs != qseries.x_series(m, order).coeffs:
            bad += 1
        comp = (
            qseries.t1(m, order) + qseries.t3(m, order) + qseries.t5(m, order)
            + qseries.t7(m, order) + qseries.t9(m, order) + qseries.tprime(m, order)
        )
        if t.coeffs != comp.coeffs:
            bad += 1
        if not qseries.r2(m, order).nonnegative():
            bad += 1
    assert report("criterion 3 (T-decomposition, m<=40, n<=20m)", bad == 0,
                  f"{bad} identity failures")


def test_criterion_4_conjecture_grid():
    """M_C1(m,n) >= 0 and M_C5(m,n) >= 0 for |m| <= 50, n <= 500, with
    m <-> -m symmetry."""
    bad = 0
    for m in range(51):
        c1 = qseries.mc1_series(m, 500)
        c5 = qseries.mc5_series(m, 500)
        if not (c1.nonnegative() and c5.nonnegative()):
            bad += 1
        if c1.coeffs != qseries.mc1_series(-m, 500).coeffs:
            bad += 1
        if c5.coeffs != qseries.mc5_series(-m, 500).coeffs:
            bad += 1
    assert report("criterion 4 (conjecture grid, |m|<=50, n<=500)", bad == 0,
                  f"{bad} failures")


def test_criterion_5_bivariate_cross_oracle():
    """Fixed-m slices of the bivariate C1/C5 expansions equal the univariate
    generating functions for |m| <= 20, n <= 60."""
    c1 = bivariate.spt_crank_bivariate(bivariate.FamilyId.C1, 60)
    c5 = bivariate.spt_crank_bivariate(bivariate.FamilyId.C5, 60)
    bad = 0
    for m in range(-20, 21):
        if bivariate.extract_m(c1, m).coeffs != qseries.mc1_series(m, 60).coeffs:
            bad += 1
        if bivariate.extract_m(c5, m).coeffs != qseries.mc5_series(m, 60).coeffs:
            bad += 1
    assert report("criterion 5 (bivariate cross-oracle, |m|<=20, n<=60)", bad == 0,
                  f"{bad} slice mismatches")


def test_criterion_6_geometric_inequalities():
    """On 0 <= m <= 30, even 2 <= n <= 3000: the lattice-vs-area bound,
    parity bound, M1 upper and M2 lower bounds, and the combined strict
    lower bound on X^(m)(n), all with 1e-9 relative slack and no near-ties."""
    fails = 0
    near_ties = 0
    xs = {m: qseries.x_series(m, 3000) for m in range(31)}
    for m in range(31):
        for n in range(2, 3001, 2):
            for kind in (lattice.RegionKind.OMEGA, lattice.RegionKind.OMEGA_PRIME):
                spec = lattice.RegionSpec(kind, m, n)
                cnt = lattice.count_region(spec)
                fig = lattice.geometry_figures(spec)
                if cnt.total > 0 and fig.length_bound >= 1:
                    o = bounds.classify_strict(abs(cnt.total - fig.area), fig.length_bound)
                    if o is bounds.StrictOutcome.FAIL:
                        fails += 1
                    elif o is bounds.StrictOutcome.NEAR_TIE:
                        near_ties += 1
                if not lattice.parity_lemma_check(spec):
                    fails += 1
            mo = lattice.count_region(lattice.RegionSpec(lattice.RegionKind.OMEGA, m, n))
            mp = lattice.count_region(
                lattice.RegionSpec(lattice.RegionKind.OMEGA_PRIME, m, n)
            )
            for smaller, larger in (
                (float(mo.odd_y), lattice.m1_upper_bound(m, n)),
                (lattice.m2_lower_bound(m, n), float(mp.odd_y)),
                (bounds.theorem2_lower_bound(m, n), float(xs[m][n])),
            ):
                o = bounds.classify_strict(smaller, larger)
                if o is bounds.StrictOutcome.FAIL:
                    fails += 1
                elif o is bounds.StrictOutcome.NEAR_TIE:
                    near_ties += 1
    ok = fails == 0 and near_ties == 0
    assert report("criterion 6 (geometric inequalities, m<=30, even n<=3000)", ok,
                  f"{fails} failures, {near_ties} near-ties")


def test_criterion_7_threshold_crossover():
    """f(120) > 2400, f(121) < 2420, and f(0) matches the high-precision
    oracle within 1e-6 relative."""
    f0_oracle = 1221.8426318056260585400979576467487194484651691390
    ok = (
        bounds.f_of_m(120) > 2400
        and bounds.f_of_m(121) < 2420
        and abs(bounds.f_of_m(0) - f0_oracle) < 1e-6 * f0_oracle
        and all(bounds.threshold_profile(m).f_exceeds_20m for m in range(121))
        and not bounds.threshold_profile(121).f_exceeds_20m
    )
    assert report("criterion 7 (threshold crossover at m=120/121)", ok)


def test_criterion_8_determinism(capsys):
    """`verify --check all` emits byte-identical JSON at parallelism 1 and 8."""
    argv = ["verify", "--check", "all", "--m-max", "3", "--n-max", "60",
            "--bivariate-order", "20", "--json"]
    code1 = run_cli(argv + ["--parallel", "1"])
    out1 = capsys.readouterr().out
    code8 = run_cli(argv + ["--parallel", "8"])
    out8 = capsys.readouterr().out
    ok = code1 == 0 and code8 == 0 and out1 == out8 and len(out1) > 0
    with capsys.disabled():
        print()
        report("criterion 8 (byte-identical JSON, parallelism 1 vs 8)", ok)
    assert ok
