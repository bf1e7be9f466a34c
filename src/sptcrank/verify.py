"""Orchestration of the complete verification pipeline.

Each check sweeps a configured (m, n) grid, collects violations
exhaustively (capped), and returns a deterministic report: identical
configuration yields an identical violation list, sorted by (m, n),
regardless of parallelism.  Work is partitioned by m because building one
series per m and sharing it across all its n-checks dominates the cost.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import bivariate, bounds, divisors, lattice, qseries

TOOL_NAME = "sptcrank"
TOOL_VERSION = "0.1.0"

VIOLATION_CAP = 1000
RESOURCE_GUARD_SLOTS = 10**8

CHECK_IDS = ("y-nonneg", "x-small-n", "finite-window", "conjecture", "cross")


class ResourceGuardError(RuntimeError):
    """Raised when a configuration implies more work than the guard allows."""


@dataclass(frozen=True)
class SweepConfig:
    m_max: int = 10
    n_max: int = 200
    checks: tuple = CHECK_IDS
    parallelism: int = 1
    output_path: str | None = None
    bivariate_order: int = 30
    override_resource_guard: bool = False

    def __post_init__(self) -> None:
        if self.m_max < 0 or self.n_max < 0:
            raise ValueError("m_max and n_max must be non-negative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        for c in self.checks:
            if c not in CHECK_IDS:
                raise ValueError(f"unknown check id {c!r}")


@dataclass(frozen=True)
class Violation:
    m: int
    n: int
    value: str
    expected: str


@dataclass
class VerificationReport:
    check_id: str
    range_desc: str
    status: str  # pass | fail | skipped
    violations: list = field(default_factory=list)
    skips: list = field(default_factory=list)  # [{"reason": str, "count": int}]
    elapsed_ms: int = 0
    tool_version: str = TOOL_VERSION

    def finalize(self) -> "VerificationReport":
        self.violations = sorted(
            self.violations, key=lambda v: (v.m, v.n, v.expected)
        )[:VIOLATION_CAP]
        if self.status != "skipped":
            self.status = "fail" if self.violations else "pass"
        return self


def _guard(cfg: SweepConfig, slots: int) -> None:
    if slots > RESOURCE_GUARD_SLOTS and not cfg.override_resource_guard:
        raise ResourceGuardError(
            f"configuration implies ~{slots} coefficient slots "
            f"(> {RESOURCE_GUARD_SLOTS}); pass the override flag to proceed"
        )


def _map_over_m(worker, args, parallelism: int):
    if parallelism <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=parallelism) as ex:
        return list(ex.map(worker, args))


# -- per-m workers (top-level so they pickle for process pools) --------------


def _capped(out: list) -> list:
    """One worker's violation tuples in report order, at most VIOLATION_CAP.

    Each worker covers one m, so the report's first VIOLATION_CAP
    violations over all workers are among the ones kept here.
    """
    return sorted(out, key=lambda v: (v[0], v[1], v[3]))[:VIOLATION_CAP]


def _y_worker(args):
    m, n_max = args
    out = []
    for n in range(1, n_max + 1):
        dec = divisors.OddPartDecomposition.of(n)
        c = divisors.census(m, n)
        bad = divisors.containment_violation(c, dec.e)
        if bad is not None:
            out.append((m, n, f"{c}", bad))
        y = c.a1 + c.b1 - c.a2 - c.b2
        if y < 0:
            out.append((m, n, str(y), "Y^(m)(n) >= 0"))
    return _capped(out)


def _x_small_worker(args):
    (m,) = args
    out = []
    order = 20 * m
    if order < 1:
        return out
    t = qseries.t_series(m, order)
    x = qseries.x_series(m, order)
    comp = (
        qseries.t1(m, order)
        + qseries.t3(m, order)
        + qseries.t5(m, order)
        + qseries.t7(m, order)
        + qseries.t9(m, order)
        + qseries.tprime(m, order)
    )
    rem = qseries.r2(m, order)
    for n in range(order + 1):
        if t[n] != x[n]:
            out.append((m, n, str(t[n]), f"T coefficient == X coefficient {x[n]}"))
        if t[n] != comp[n]:
            out.append(
                (m, n, str(comp[n]), f"T1+T3+T5+T7+T9+T' == T coefficient {t[n]}")
            )
        if rem[n] < 0:
            out.append((m, n, str(rem[n]), "R2 coefficient >= 0"))
        if t[n] < 0:
            out.append((m, n, str(t[n]), "X^(m)(n) >= 0 for n <= 20m"))
    return _capped(out)


def _finite_window_worker(args):
    (m,) = args
    out = []
    f = bounds.f_of_m(m)
    lo = 20 * m + 1
    hi = math.ceil(f) - 1
    if hi < lo:
        return out, 0
    x = qseries.x_series(m, hi)
    checked = 0
    for n in range(lo, hi + 1):
        if n < f:
            checked += 1
            if x[n] < 0:
                out.append((m, n, str(x[n]), "X^(m)(n) >= 0 on 20m < n < f(m)"))
    return _capped(out), checked


def _conjecture_worker(args):
    m, n_max = args
    out = []
    c1 = qseries.mc1_series(m, n_max)
    c5 = qseries.mc5_series(m, n_max)
    if qseries.mc1_series(-m, n_max).coeffs != c1.coeffs:
        out.append((m, 0, "asymmetric", "M_C1(-m, .) == M_C1(m, .)"))
    if qseries.mc5_series(-m, n_max).coeffs != c5.coeffs:
        out.append((m, 0, "asymmetric", "M_C5(-m, .) == M_C5(m, .)"))
    for n in range(1, n_max + 1):
        if c1[n] < 0:
            out.append((m, n, str(c1[n]), "M_C1(m,n) >= 0"))
        if c5[n] < 0:
            out.append((m, n, str(c5[n]), "M_C5(m,n) >= 0"))
    return _capped(out)


def _cross_worker(args):
    m, n_max = args
    out = []
    jarnik_skips = 0
    xs = qseries.x_series(m, n_max)
    ys = qseries.y_series(m, n_max)
    zs = qseries.z_series(m, n_max)
    z_acc_odd = 0
    for n in range(1, n_max + 1):
        yd = divisors.y_direct(m, n)
        zd = divisors.z_direct(m, n)
        if yd != ys[n]:
            out.append((m, n, str(yd), f"divisor Y == series Y {ys[n]}"))
        if zd != zs[n]:
            out.append((m, n, str(zd), f"divisor Z == series Z {zs[n]}"))
        if zd < 0:
            out.append((m, n, str(zd), "Z^(m)(n) >= 0"))
        if n % 2 == 1:
            z_acc_odd += zs[n]
            if z_acc_odd != xs[n]:
                out.append(
                    (m, n, str(z_acc_odd), f"odd-k Z partial sum == series X {xs[n]}")
                )
        else:
            o_spec = lattice.RegionSpec(lattice.RegionKind.OMEGA, m, n)
            p_spec = lattice.RegionSpec(lattice.RegionKind.OMEGA_PRIME, m, n)
            mo = lattice.count_region(o_spec)
            mp = lattice.count_region(p_spec)
            if mp.odd_y - mo.odd_y != xs[n]:
                out.append(
                    (m, n, str(mp.odd_y - mo.odd_y), f"lattice M2-M1 == series X {xs[n]}")
                )
            for spec, cnt in ((o_spec, mo), (p_spec, mp)):
                fig = lattice.geometry_figures(spec)
                if cnt.total == 0 or fig.length_bound < 1:
                    jarnik_skips += 1
                else:
                    o = bounds.classify_strict(abs(cnt.total - fig.area), fig.length_bound)
                    if o is not bounds.StrictOutcome.PASS:
                        out.append(
                            (m, n, f"|N-A|={abs(cnt.total - fig.area)!r}",
                             f"Jarnik |N-A| < {fig.length_bound!r} [{o.value}]")
                        )
                if not lattice.parity_lemma_check(spec):
                    out.append((m, n, spec.kind.value, "parity bound |N/2-M| <= sup+1"))
            if bounds.classify_strict(mo.odd_y, lattice.m1_upper_bound(m, n)) is not bounds.StrictOutcome.PASS:
                out.append((m, n, str(mo.odd_y), "M1 < upper bound"))
            if bounds.classify_strict(lattice.m2_lower_bound(m, n), mp.odd_y) is not bounds.StrictOutcome.PASS:
                out.append((m, n, str(mp.odd_y), "M2 > lower bound"))
            if bounds.classify_strict(bounds.theorem2_lower_bound(m, n), xs[n]) is not bounds.StrictOutcome.PASS:
                out.append((m, n, str(xs[n]), "X > (ln2/4)(n+1)-6sqrt(n+1)-m-2"))
            if not bounds.m2_minus_m1_bound_check(m, n):
                out.append((m, n, "bound-combination", "M2bound-M1bound >= theorem bound"))
    return _capped(out), jarnik_skips


# -- check drivers -----------------------------------------------------------


def verify_y_nonneg(cfg: SweepConfig) -> VerificationReport:
    t0 = time.monotonic()
    _guard(cfg, (cfg.m_max + 1) * (cfg.n_max + 1))
    rep = VerificationReport(
        "y-nonneg", f"0<=m<={cfg.m_max}, 1<=n<={cfg.n_max}", "pending"
    )
    if cfg.n_max == 0:
        rep.skips.append({"reason": "empty n range", "count": 1})
    args = [(m, cfg.n_max) for m in range(cfg.m_max + 1)]
    for chunk in _map_over_m(_y_worker, args, cfg.parallelism):
        rep.violations.extend(Violation(*v) for v in chunk)
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def verify_x_small_n(cfg: SweepConfig) -> VerificationReport:
    t0 = time.monotonic()
    _guard(cfg, (cfg.m_max + 1) * (20 * cfg.m_max + 1))
    rep = VerificationReport("x-small-n", f"0<=m<={cfg.m_max}, n<=20m", "pending")
    args = [(m,) for m in range(cfg.m_max + 1)]
    for chunk in _map_over_m(_x_small_worker, args, cfg.parallelism):
        rep.violations.extend(Violation(*v) for v in chunk)
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def verify_x_finite_window(cfg: SweepConfig | None = None) -> VerificationReport:
    """The fixed sweep 0 <= m <= 120, 20m < n < f(m); range is not configurable."""
    cfg = cfg or SweepConfig()
    t0 = time.monotonic()
    rep = VerificationReport(
        "finite-window", "0<=m<=120, 20m<n<f(m)", "pending"
    )
    checked = 0
    args = [(m,) for m in range(121)]
    for (chunk, cnt) in _map_over_m(_finite_window_worker, args, cfg.parallelism):
        rep.violations.extend(Violation(*v) for v in chunk)
        checked += cnt
    # coverage: the three windows n<=20m, 20m<n<f(m), n>=f(m) leave no gap
    for m in range(121):
        if not bounds.threshold_profile(m).f_exceeds_20m:
            rep.violations.append(
                Violation(m, 0, "coverage gap", "f(m) > 20m for m <= 120")
            )
    rep.skips.append({"reason": "values checked", "count": checked})
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def verify_conjecture(cfg: SweepConfig) -> VerificationReport:
    t0 = time.monotonic()
    _guard(cfg, 2 * (cfg.m_max + 1) * (cfg.n_max + 1))
    rep = VerificationReport(
        "conjecture", f"|m|<={cfg.m_max}, 1<=n<={cfg.n_max}", "pending"
    )
    args = [(m, cfg.n_max) for m in range(cfg.m_max + 1)]
    for chunk in _map_over_m(_conjecture_worker, args, cfg.parallelism):
        rep.violations.extend(Violation(*v) for v in chunk)
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


def cross_check(cfg: SweepConfig) -> VerificationReport:
    t0 = time.monotonic()
    _guard(cfg, 3 * (cfg.m_max + 1) * (cfg.n_max + 1))
    rep = VerificationReport(
        "cross",
        f"0<=m<={cfg.m_max}, 1<=n<={cfg.n_max}; bivariate order {cfg.bivariate_order}",
        "pending",
    )
    args = [(m, cfg.n_max) for m in range(cfg.m_max + 1)]
    jarnik_skips = 0
    for (chunk, skips) in _map_over_m(_cross_worker, args, cfg.parallelism):
        rep.violations.extend(Violation(*v) for v in chunk)
        jarnik_skips += skips
    # bivariate cross-oracle for the C1/C5 slices
    order = cfg.bivariate_order
    if order >= 1:
        c1 = bivariate.spt_crank_bivariate(bivariate.FamilyId.C1, order)
        c5 = bivariate.spt_crank_bivariate(bivariate.FamilyId.C5, order)
        for m in range(min(cfg.m_max, order) + 1):
            s1 = bivariate.extract_m(c1, m).coeffs
            s5 = bivariate.extract_m(c5, m).coeffs
            if s1 != qseries.mc1_series(m, order).coeffs:
                rep.violations.append(
                    Violation(m, 0, "bivariate C1 slice", "equals mc1 series")
                )
            if s5 != qseries.mc5_series(m, order).coeffs:
                rep.violations.append(
                    Violation(m, 0, "bivariate C5 slice", "equals mc5 series")
                )
            # z <-> 1/z symmetry of the expansion itself: the univariate
            # builders take |m|, so they cannot tell -m from m.
            if m and bivariate.extract_m(c1, -m).coeffs != s1:
                rep.violations.append(
                    Violation(m, 0, "bivariate C1 slice at -m", "equals slice at +m")
                )
            if m and bivariate.extract_m(c5, -m).coeffs != s5:
                rep.violations.append(
                    Violation(m, 0, "bivariate C5 slice at -m", "equals slice at +m")
                )
    if jarnik_skips:
        rep.skips.append(
            {
                "reason": "Jarnik hypothesis not met (empty region or length bound < 1)",
                "count": jarnik_skips,
            }
        )
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep.finalize()


_DRIVERS = {
    "y-nonneg": verify_y_nonneg,
    "x-small-n": verify_x_small_n,
    "finite-window": verify_x_finite_window,
    "conjecture": verify_conjecture,
    "cross": cross_check,
}


def run_checks(cfg: SweepConfig) -> list:
    """Run the configured checks in canonical order."""
    return [_DRIVERS[c](cfg) for c in CHECK_IDS if c in cfg.checks]
