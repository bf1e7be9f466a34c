"""Verifier orchestration: reports, determinism, negative paths, guard."""

import pytest

from sptcrank import bivariate, divisors, qseries, verify
from sptcrank.series import TruncatedSeries
from sptcrank.verify import (
    CHECK_IDS,
    ResourceGuardError,
    SweepConfig,
    VerificationReport,
    Violation,
    run_checks,
)


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


def test_census_corruption_is_caught(monkeypatch):
    """Poisoning the divisor census must surface as cross-check violations."""
    real = divisors.census

    def bad(m, n):
        c = real(m, n)
        if n == 15:
            return divisors.DivisorPairCensus(c.a1 + 1, c.a2, c.b1, c.b2)
        return c

    monkeypatch.setattr(divisors, "census", bad)
    rep = run_checks(small_cfg(checks=("cross",)))[0]
    assert rep.status == "fail"
    assert any(v.n == 15 and "divisor Y" in v.expected for v in rep.violations)


def test_t_component_corruption_is_caught(monkeypatch):
    """Perturbing one T-component must break the regrouping identity."""
    real = qseries.t5

    def bad(m, order):
        s = real(m, order)
        cs = list(s.coeffs)
        if len(cs) > 7:
            cs[7] += 1
        return TruncatedSeries(s.order, tuple(cs))

    monkeypatch.setattr(qseries, "t5", bad)
    rep = run_checks(small_cfg(checks=("x-small-n",)))[0]
    assert rep.status == "fail"
    assert any("T1+T3+T5" in v.expected for v in rep.violations)


def test_bivariate_z_asymmetry_is_caught(monkeypatch):
    """An expansion whose z^-1 column differs from its z^1 column must fail
    cross, though every +m slice still matches the univariate series."""
    real = bivariate.spt_crank_bivariate

    def skewed(family, order):
        s = real(family, order)
        rows = list(s.qcoeffs)
        for n, (lo, cs) in enumerate(rows):
            i = -1 - lo
            if 0 <= i < len(cs) and cs[i]:
                rows[n] = (lo, cs[:i] + (2 * cs[i],) + cs[i + 1:])
                break
        return bivariate.LaurentSeries(s.order, tuple(rows))

    monkeypatch.setattr(bivariate, "spt_crank_bivariate", skewed)
    rep = run_checks(small_cfg(checks=("cross",)))[0]
    assert rep.status == "fail"
    assert rep.violations == [
        Violation(1, 0, "bivariate C1 slice at -m", "equals slice at +m"),
        Violation(1, 0, "bivariate C5 slice at -m", "equals slice at +m"),
    ]


def test_worker_violations_capped_report_unchanged(monkeypatch):
    """Workers keep at most VIOLATION_CAP violations each, and the report
    is still the first VIOLATION_CAP of all violations in (m, n) order."""

    def failing(m, order):
        return TruncatedSeries(order, (-1,) * (order + 1))

    monkeypatch.setattr(qseries, "mc1_series", failing)
    monkeypatch.setattr(qseries, "mc5_series", failing)
    n_max = verify.VIOLATION_CAP + 200
    chunk, _ = verify._conjecture_worker((1, n_max))
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


def test_violations_sorted_and_capped():
    rep = VerificationReport("y-nonneg", "r", "pending")
    rep.violations = [
        Violation(2, 5, "v", "e"),
        Violation(1, 9, "v", "e"),
        Violation(1, 2, "v", "e"),
    ] + [Violation(9, n, "v", "e") for n in range(2000)]
    rep.finalize()
    assert rep.status == "fail"
    assert len(rep.violations) == verify.VIOLATION_CAP
    assert rep.violations[0] == Violation(1, 2, "v", "e")
    assert rep.violations[1] == Violation(1, 9, "v", "e")
    assert rep.violations[2] == Violation(2, 5, "v", "e")


def test_resource_guard_trips_and_overrides():
    huge = SweepConfig(m_max=10**4, n_max=10**5, checks=("y-nonneg",))
    with pytest.raises(ResourceGuardError):
        run_checks(huge)
    # the override flag disables the guard (not actually run to completion
    # here; the guard check itself is what's under test)
    ok = SweepConfig(
        m_max=10**4, n_max=10**5, checks=("y-nonneg",), override_resource_guard=True
    )
    verify._guard(ok, 10**12)  # does not raise


def test_elapsed_ms_recorded():
    rep = run_checks(small_cfg(checks=("y-nonneg",)))[0]
    assert isinstance(rep.elapsed_ms, int) and rep.elapsed_ms >= 0
