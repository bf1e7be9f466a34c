"""Orchestration of the complete verification pipeline.

Each check sweeps a configured (m, n) grid, collects violations
exhaustively (capped), and returns a deterministic report: identical
configuration yields an identical violation list, sorted by (m, n),
regardless of parallelism.  Each check splits its grid into parts, one
worker call each.  y-nonneg's parts are blocks of n, because one
divisors._tallies per block reads each n's divisor pairs once, for
every m of the part.  The other checks' parts are contiguous runs of m,
at most one per worker: a run pays for one direct build at its first m,
and each later m costs one sweep step, less than a build, so at
parallelism 1 each check is one sweep from m = 0.  The runs take equal
shares of the m range, except x-small-n's, which take equal shares of
its work, 20m + 1 values at each m.  conjecture takes its M_C1/M_C5
series from one qseries.mc_sweep per run; x-small-n, finite-window and
cross take theirs from one qseries.lambert_sweep, and cross takes its
divisor census from one divisors.census_rows per run.  x-small-n,
finite-window and conjecture compare the sweep's series at each run's
last m with a direct build of the same sums, conjecture's as whole packed
ints at the sweep's field width; a wrong step changes every later series
of its run, so it cannot pass unseen.  A check reads columns over n at one
m and is decided by one comparison of two columns; only a failing column
is read point by point, to word its violations.  x-small-n and
finite-window decide on the swept numerators over 1 - q^2, since dividing
a prefix by 1 - q^2 is invertible, and carry their verdicts across the
run's m: the sweep's on_drop hands over each list's batch of dropped terms
once per step, so each m reads only what its batches and its window's ends
moved.  x-small-n carries the n <= 20m where T, X and T1+...+T' differ and
where T's and R1's numerators are negative; a running sum falls only at a
negative term, so X >= 0 is read at T's few negative terms and R2 >= 0 at
what r2_numerator writes and at R1's.  A series.ParitySums decides X >= 0
on 20m < n < f(m), reading the window only where its carried sums cannot
rule out a negative value.  Only a failing m is divided, to word its
violations.  conjecture decides each M_C1/M_C5 series of its sweep with
one has_negative, an AND over the packed series, and decodes only a
failing series.  cross checks Jarnik's bound, the parity lemma and lattice
M2 - M1 == X as columns at every m.  The M1, M2, theorem 2 and
bound-combination checks follow from those, by the margins of
bounds.derivation_margins and A' - A >= (LN2/2)(n+1) - d_bc*sqrt(n+1): at
an m where all of these hold and the margins beat the near-tie slack with
room for rounding, the four are decided without their columns (see
_cross_lattice), and elsewhere read as columns.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_left
from itertools import accumulate, chain, compress
from operator import ge, is_, le, sub
from typing import Callable, NamedTuple

from . import bivariate, bounds, divisors, lattice, qseries
from .series import ParitySums, negative_running_sum, over_one_minus_qk

TOOL_NAME = "sptcrank"
TOOL_VERSION = "0.1.0"

VIOLATION_CAP = 1000
RESOURCE_GUARD_SLOTS = 10**8

CHECK_IDS = ("y-nonneg", "x-small-n", "finite-window", "conjecture", "cross")

WINDOW_M = range(121)  # the finite window's fixed m range, 0 <= m <= 120
Y_BLOCK = 256  # n per y-nonneg part


class ResourceGuardError(RuntimeError):
    """Raised when a configuration implies more work than the guard allows."""


class _Config(NamedTuple):
    m_max: int = 10
    n_max: int = 200
    checks: tuple = CHECK_IDS
    parallelism: int = 1
    bivariate_order: int = 30
    override_resource_guard: bool = False


class SweepConfig(_Config):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.m_max < 0 or self.n_max < 0:
            raise ValueError("m_max and n_max must be non-negative")
        if self.bivariate_order < 0:
            raise ValueError("bivariate_order must be non-negative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        for c in self.checks:
            if c not in CHECK_IDS:
                raise ValueError(
                    f"unknown check id {c!r}; choose from {', '.join(CHECK_IDS)}"
                )
        return self


class Violation(NamedTuple):
    m: int
    n: int
    value: str
    expected: str


class VerificationReport(NamedTuple):
    """One check's report, built once from what its parts return."""

    check_id: str
    range_desc: str
    status: str  # pass | fail
    violations: list  # Violation in report order, at most VIOLATION_CAP
    skips: list  # [{"reason": str, "count": int}]
    elapsed_ms: int


def guard(slots: int, override: bool, unit: str = "coefficient slots") -> None:
    """Refuse, unless overridden, work of more than RESOURCE_GUARD_SLOTS
    slots; unit names what the caller weighs as one slot."""
    if slots > RESOURCE_GUARD_SLOTS and not override:
        raise ResourceGuardError(
            f"configuration implies ~{slots} {unit} "
            f"(> {RESOURCE_GUARD_SLOTS} slots); pass --override-resource-guard to proceed"
        )


def _map_parts(worker, args, parallelism: int):
    workers = min(parallelism, len(args), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, args))


# -- workers, one call per part (top-level so they pickle for process pools) --


def _capped(out: list) -> list:
    """Violation tuples in report order, at most VIOLATION_CAP: a worker's
    part, or a whole report with its post step's.  The parts partition the
    grid, so each of the report's first VIOLATION_CAP violations is among the
    first VIOLATION_CAP of its part, which are the ones its worker keeps."""
    return sorted(out, key=lambda v: (v[0], v[1], v[3]))[:VIOLATION_CAP]


def _y_worker(args):
    """Containments and Y >= 0 for every m <= m_max and n_lo <= n <= n_hi, from
    one divisors._tallies.  Each n's keys, walked from the highest v // 2 down,
    give the counts of each run of m with one census, as v >= 2m+1 exactly when
    v // 2 >= m.  Y < 0 breaks a containment, so the containments of e decide a
    run; only a failing run is worded, by divisors.containment_violation."""
    n_lo, n_hi, m_max = args
    out = []
    for n, (e, counts, keys) in enumerate(divisors._tallies(n_lo, n_hi, 2 * m_max + 1), n_lo):
        keys.sort(reverse=True)
        keys.append(-1)  # ends the last run, at m = 0
        hi = m_max
        for key in keys:
            k = key >> 2
            if k < hi:  # counts is the census at k+1 <= m <= hi
                a1, a2, b1, b2 = counts
                if (a1 or b2 or a2 > b1) if e == 0 else (a2 > a1 or b2 > b1):
                    c, ms = divisors.DivisorPairCensus(a1, a2, b1, b2), range(k + 1, hi + 1)
                    out += ((m, n, f"{c}", divisors.containment_violation(c, e)) for m in ms)
                    out += ((m, n, str(c.y), "Y^(m)(n) >= 0") for m in ms if c.y < 0)
                hi = k
            counts[key & 3] += 1
    return _capped(out), 0


def _sweep_mismatches(m: int, names: tuple, swept, direct) -> list:
    """A violation for each named swept series at m that differs from its
    direct build."""
    return [
        (m, 0, f"swept {name} series", "equals the direct build")
        for name, got, want in zip(names, swept, direct)
        if got != want
    ]


_X_SMALL_PARTS = ("T", "X", "T-components", "R1")


def _x_small_worker(args):
    """T == X, T == T1+T3+T5+T7+T9+T', R2 >= 0 and X >= 0 for
    m_lo <= m <= m_hi and n <= 20m, from one sweep at order 20*m_hi.

    Carried from m to m: the n <= 20m where T, X and the T-components
    differ, and those where T's and R1's numerators are negative (at most 9
    and none at m <= 120).  An m reads again only the exponents below the
    last window that its on_drop batches name, and the 20 n its window
    gained; lists other than those last read, or batches of other lists,
    start over on the whole window.  R2 >= 0 reads what r2_numerator wrote.
    """
    m_lo, m_hi = args
    out = []
    order = 20 * m_hi
    read, batches = (), []  # the lists last read, and the (list, terms) dropped since
    sweep = qseries.lambert_sweep(_X_SMALL_PARTS, m_lo, m_hi, order,
                                  lambda acc, terms: batches.append((acc, terms)))
    k = 0
    for m, swept in sweep:
        t, x, comp, r1 = swept
        lo, k = k, 20 * m + 1
        # carried only on the lists last read, each with one batch since
        if len(batches) == len(read) == len(swept) and all(
                map(is_, chain(swept, (acc for acc, _ in batches)), read * 2)):
            ns = {a for _, terms in batches for a, _, _ in terms if a < lo}.union(range(lo, k))
        else:
            unequal = t_neg = r1_neg = ()
            ns = range(k)
        read, batches[:] = tuple(swept), ()
        unequal = {n for n in chain(unequal, ns) if not t[n] == x[n] == comp[n]}
        t_neg = {n for n in chain(t_neg, ns) if t[n] < 0}
        r1_neg = {n for n in chain(r1_neg, ns) if r1[n] < 0}
        rem = qseries.r2_numerator(r1[:k], m)
        # rem can be negative only where r2_numerator wrote or at R1's negatives
        written = chain.from_iterable(rem[slice(*p)] for p in qseries._r2_progressions(m))
        r2_ok = (min(written, default=0) >= 0 and all(rem[n] >= 0 for n in r1_neg)
                 or not negative_running_sum(rem, [n for n, c in enumerate(rem) if c < 0]))
        if not unequal and r2_ok and not negative_running_sum(t, t_neg):
            continue
        t, x, comp, rem = (over_one_minus_qk(c[:k], 2) for c in (t, x, comp, rem))
        ns = range(k)
        out += _unequal(m, ns, t, x, "T coefficient == X coefficient")
        out += _unequal(m, ns, comp, t, "T1+T3+T5+T7+T9+T' == T coefficient")
        out += _negatives(m, ns, rem, "R2 coefficient >= 0")
        out += _negatives(m, ns, t, "X^(m)(n) >= 0 for n <= 20m")
    direct = [qseries.lambert_part(name, m_hi, order) for name in _X_SMALL_PARTS]
    out += _sweep_mismatches(m_hi, _X_SMALL_PARTS, swept, direct)
    return _capped(out), 0


def _finite_window_worker(args):
    """X >= 0 on 20m < n < f(m) for m_lo <= m <= m_hi, from one sweep of X
    at the run's largest n; counts the values checked.

    One series.ParitySums carries, from m to m, each parity class's sum of
    X's numerator up to its window's first n and the sum of the negative
    terms in its window; the sweep's on_drop hands it the batch of terms
    that each step drops from X.  Each m adds only the terms its window's
    ends moved past: 20 below the window, and the few that f(m) grew by.  A
    window whose two sums add to >= 0 has no negative running sum, so only
    the other windows are read, in place; an m costs what its window moved,
    not f(m).
    """
    m_lo, m_hi = args
    out = []
    his = [math.ceil(bounds.f_of_m(m)) - 1 for m in range(m_lo, m_hi + 1)]  # largest n < f(m)
    order = max(his)
    counted = 0
    sums = ParitySums()
    for (m, (x,)), hi in zip(qseries.lambert_sweep(("X",), m_lo, m_hi, order, sums.drop), his):
        lo = 20 * m + 1
        if hi < lo:
            continue
        counted += hi - lo + 1
        if sums.negative(x, lo, hi):
            xs = over_one_minus_qk(x[: hi + 1], 2)[lo:]
            out += _negatives(m, range(lo, hi + 1), xs, "X^(m)(n) >= 0 on 20m < n < f(m)")
    out += _sweep_mismatches(m_hi, ("X",), [x], [qseries.lambert_part("X", m_hi, order)])
    return _capped(out), counted


_MC_NAMES = ("M_C1", "M_C5")


def _conjecture_worker(args):
    """M_C1(m, n) >= 0 and M_C5(m, n) >= 0 for m_lo <= m <= m_hi, 1 <= n <= n_max;
    only a series with a negative coefficient is decoded.  The run's last
    series are compared, as whole ints, with a direct build at its width."""
    m_lo, m_hi, n_max = args
    out = []
    ns = range(1, n_max + 1)
    for m, *swept in qseries.mc_sweep(m_lo, m_hi, n_max):
        for name, c in zip(_MC_NAMES, swept):
            if c.has_negative():
                out += _negatives(m, ns, c.coeffs[1:], f"{name}(m,n) >= 0")
    direct = qseries.mc_packed(m_hi, n_max, swept[0].width)
    out += _sweep_mismatches(m_hi, _MC_NAMES, swept, direct)
    return _capped(out), 0


def _cross_worker(args):
    """Series, divisor and lattice paths against each other for m_lo <= m <= m_hi.

    Each check compares two columns over n at one m once, and words its
    violations point by point only when the columns fail.  The census rows
    come from one divisors.census_rows for the run, the lattice counts
    from one count sweep per region and m, and the figures from one
    lattice.figure_columns per m.  Its m-free columns and margins come from
    one _cross_part for the run.  The lattice path enumerates points and
    never reads the census.
    """
    m_lo, m_hi, n_max = args
    out = []
    ns = range(1, n_max + 1)
    part = _cross_part(n_max)
    jarnik_skips = 0
    sweep = qseries.lambert_sweep(("X", "Y", "Z"), m_lo, m_hi, n_max)
    for (m, (x, y, z)), (y_div, z_div) in zip(sweep, divisors.census_rows(m_lo, m_hi, n_max)):
        xs = over_one_minus_qk(x, 2)
        out += _unequal(m, ns, y_div, y[1:], "divisor Y == series Y")
        out += _unequal(m, ns, z_div, z[1:], "divisor Z == series Z")
        out += _negatives(m, ns, z_div, "Z^(m)(n) >= 0")
        z_odd = list(accumulate(z[1::2]))
        out += _unequal(m, ns[::2], z_odd, list(xs[1::2]), "odd-k Z partial sum == series X")
        jarnik_skips += _cross_lattice(m, n_max, xs, part, out)
    return _capped(out), jarnik_skips


def _unequal(m: int, ns, got: list, want: list, text: str) -> list:
    """A violation (m, n, got, "text want") at each n where the columns differ."""
    if got == want:
        return []
    return [(m, n, str(a), f"{text} {b}") for n, a, b in zip(ns, got, want) if a != b]


def _negatives(m: int, ns, col, text: str) -> list:
    """A violation (m, n, value, text) at each n where the column is negative."""
    if min(col, default=0) >= 0:
        return []
    return [(m, n, str(a), text) for n, a in zip(ns, col) if a < 0]


def _not_less(ns, smaller: list, larger: list) -> list:
    """(n, smaller, larger) at each n where bounds.strictly_less fails."""
    if bounds.all_strictly_less(smaller, larger):
        return []
    return [(n, a, b) for n, a, b in zip(ns, smaller, larger) if not bounds.strictly_less(a, b)]


def _jarnik_points(ns, totals: list, dev: list, length: list) -> tuple:
    """(skips, (ns, dev, length) at the points where Jarnik's bound applies,
    start): it needs a nonempty region and a length bound >= 1, skips counts
    the other points, and every point from index start on is kept.  Every
    length is >= 1 at the paper's constants, and the totals of count_sweep
    grow with n, so the empty regions are the first start = totals.count(0)
    points: then the columns are sliced, else compressed, with start =
    len(ns)."""
    empty = totals.count(0)
    if min(length, default=1) >= 1 and not any(totals[:empty]):
        return empty, [c[empty:] for c in (ns, dev, length)], empty
    met = [total != 0 and not bound < 1 for total, bound in zip(totals, length)]
    return len(met) - sum(met), [list(compress(c, met)) for c in (ns, dev, length)], len(ns)


def _cross_part(n_max: int) -> tuple:
    """The m-free columns and numbers of a cross part over the even n <= n_max:
    (terms, t2_free, o_limits, d_floor, margin, scale), with terms =
    lattice.sqrt_columns of the even n, t2_free = bounds.theorem2_m_free of
    them, o_limits = Omega's parity limits, its x-extent bound + 1, and
    d_floor = (LN2/2)(n+1) - d_bc*sqrt(n+1).  From bounds.derivation_margins
    at the constants as they are at the call, margin = min(d1, d2,
    d_bc)*sqrt(3); scale = (C+4)*sqrt(n_max+1) + n_max + 4, where C sums the
    constants' magnitudes."""
    terms = lattice.sqrt_columns(range(2, n_max + 1, 2))
    constants = (lattice.M1_SQRT, lattice.M2_SQRT, lattice.OMEGA_LENGTH,
                 lattice.OMEGA_PRIME_LENGTH, bounds.THEOREM2_SQRT)
    margins = bounds.derivation_margins(*constants)
    d_bc = float(margins[2])
    return (
        terms, list(map(bounds.theorem2_m_free, *terms[:2])), [e + 1 for e in terms[3]],
        [bounds.LN2 / 2 * (n + 1) - d_bc * r for n, r in zip(*terms[:2])],
        float(min(margins)) * math.sqrt(3),
        (sum(map(abs, constants)) + 4) * math.sqrt(n_max + 1) + n_max + 4,
    )


def _cross_lattice(m: int, n_max: int, xs: tuple, part: tuple, out: list) -> int:
    """The lattice and analytic bound checks at one m and every even n, with
    xs = X^(m) up to n_max and part = _cross_part(n_max).  Appends to out,
    returns the Jarnik skips.

    Jarnik's bound, the parity lemma and lattice M2 - M1 == X are read as
    columns, point by point only when they fail.  The M1, M2, theorem 2 and
    bound-combination checks follow from them, so where all three pass, the
    margin test below passes and D = A' - A >= d_floor at every n, those
    four are decided without their columns: at the points where a region is
    empty, which Jarnik's bound skips, by the single-point bounds in one
    bounds.all_strictly_less, and past them by the proof below.  Otherwise
    the four columns are built and read, and only they word violations.

    Past the empty regions, each point passes strictly_less in the four
    checks.  Let s = NEAR_TIE_SLACK >= 0, u = 2^-53, rho = sqrt(n+1) >=
    sqrt(3), d = min(d1, d2, d_bc) of bounds.derivation_margins, amax the
    largest |area| and V = amax + scale + 2m.  A NaN area fails the D test,
    so amax is the largest, and an infinite one fails the margin test.  Each
    value below, exact or computed (areas, counts, X, lengths, extents,
    limits, bounds and the four gaps), is at most V in magnitude: each of
    its terms is below a term of V (the counts and X by the two lemmas), and
    the +4s leave room for the roundings, V's own too.  So a rounding, or a
    conversion from int, moves a value by at most e = u*V (underflow by
    2^-1074 < e), and c*fl(rho) is within 2e of c*rho.
    - Omega: Jarnik passed, so |N - A| < L + 2e <= OMEGA_LENGTH*rho + 4e
      (dev < L, as s >= 0); parity passed, so |N/2 - M1| <= sqrt(2)rho/4 +
      1 + 4e.  So M1 < A/2 + (OMEGA_LENGTH/2 + sqrt(2)/4)rho + 1 + 6e and
      m1_bound >= A/2 + M1_SQRT*rho + 1 - 5e: the gap m1_bound - M1 is
      > d1*rho - 11e.
    - Omega': in the same way, L <= OMEGA_PRIME_LENGTH*rho + m + 4e and the
      limit is <= sqrt(3)rho/2 + m/2 + 1 + 5e, so M2 > A'/2 -
      (OMEGA_PRIME_LENGTH/2 + sqrt(3)/2)rho - m - 1 - 9e, and m2_bound <=
      A'/2 - M2_SQRT*rho - m - 1 + 7e: M2 - m2_bound > d2*rho - 16e.
    - t2 <= (LN2/4)(n+1) - THEOREM2_SQRT*rho - m - 2 + 10e, and D >= d_floor
      gives A' - A >= d_floor - e >= (LN2/2)(n+1) - d_bc*rho - 8e, as
      rounding is monotone.  As THEOREM2_SQRT - M1_SQRT - M2_SQRT = 2d_bc,
      m2_bound - m1_bound - t2 >= (3/2)d_bc*rho - 26e: the bound
      combination's gap is at least that - e, and, as M2 - M1 == X, theorem
      2's X - t2 > (d1 + d2 + 3/2 d_bc)rho - 53e.
    Each gap g is so > d*sqrt(3) - 53e.  strictly_less rounds g and its
    operands, within 4e, and weighs s by a magnitude <= V, so it passes when
    g - 4e > s*V*(1 + 3u).  The margin test, margin > (s + 2^-46)*2V as
    rounded, gives d*sqrt(3) > (s + 2^-46)*2V*(1 - 5u), which is more than
    s*V*(1 + 3u) + 57e.
    """
    terms, t2_free, o_limits, d_floor, margin, scale = part
    ns = terms[0]
    even = slice(2, n_max + 1, 2)
    x = list(xs[even])
    counts = [[c[even] for c in lattice.count_sweep(kind, m, n_max)] for kind in lattice.RegionKind]
    (_, o_odds), (_, p_odds) = counts
    figures = lattice.figure_columns(m, terms)
    before = len(out)
    out += _unequal(m, ns, list(map(sub, p_odds, o_odds)), x, "lattice M2-M1 == series X")
    jarnik_skips = prefix = 0  # the points before prefix are those Jarnik skips in a region
    parity_limits = o_limits, [e + 1 for e in figures[1][2]]  # Omega''s x-extent bound + 1
    for kind, (totals, odds), (area, length, _), limits in zip(
        lattice.RegionKind, counts, figures, parity_limits
    ):
        skips, columns, kept_from = _jarnik_points(
            ns, totals, list(map(abs, map(sub, totals, area))), length)
        jarnik_skips += skips
        prefix = max(prefix, kept_from)
        for n, d, bound in _not_less(*columns):
            o = bounds.classify_strict(d, bound)
            out.append((m, n, f"|N-A|={d!r}", f"Jarnik |N-A| < {bound!r} [{o.value}]"))
        # parity_lemma_check: abs(total - 2 * odd) / 2 <= extent + 1
        gaps = [abs(total - 2 * odd) / 2 for total, odd in zip(totals, odds)]
        if not all(map(le, gaps, limits)):
            out += [(m, n, kind.value, "parity bound |N/2-M| <= sup+1")
                    for n, g, lim in zip(ns, gaps, limits) if not g <= lim]
    (area_o, *_), (area_p, *_) = figures
    slack = bounds.NEAR_TIE_SLACK
    if (ns and len(out) == before and 0 <= slack
            and margin > (slack + 2**-46) * 2 * (
                max(max(area_o), -min(area_o), max(area_p), -min(area_p)) + scale + 2 * m)
            and all(map(ge, map(sub, area_p, area_o), d_floor))
            and (not prefix
                 or _bounds_hold(m, ns[:prefix], o_odds, p_odds, x, t2_free, area_o, area_p))):
        return jarnik_skips
    m1_bound, m2_bound = lattice.bound_columns(m, terms, area_o, area_p)
    t2 = [t - m - 2 for t in t2_free]  # bounds.theorem2_lower_bound(m, n)
    out += [(m, n, str(a), "M1 < upper bound") for n, a, _ in _not_less(ns, o_odds, m1_bound)]
    out += [(m, n, str(b), "M2 > lower bound") for n, _, b in _not_less(ns, m2_bound, p_odds)]
    out += [(m, n, str(b), "X > (ln2/4)(n+1)-6sqrt(n+1)-m-2") for n, _, b in _not_less(ns, t2, x)]
    for n, *_ in _not_less(ns, t2, list(map(sub, m2_bound, m1_bound))):
        out.append((m, n, "bound-combination", "M2bound-M1bound >= theorem bound"))
    return jarnik_skips


def _bounds_hold(m: int, ns, o_odds, p_odds, x, t2_free, area_o, area_p) -> bool:
    """M1, M2, theorem 2 and the bound combination at the n of ns, the first
    len(ns) points of the columns, from the single-point bounds, decided by
    one bounds.all_strictly_less."""
    k = len(ns)
    m1 = [lattice.m1_upper_bound(m, n, a) for n, a in zip(ns, area_o)]
    m2 = [lattice.m2_lower_bound(m, n, a) for n, a in zip(ns, area_p)]
    t2 = [t - m - 2 for t in t2_free[:k]]
    return bounds.all_strictly_less(o_odds[:k] + m2 + t2 + t2,
                                    m1 + p_odds[:k] + x[:k] + list(map(sub, m2, m1)))


def _window_coverage(cfg: SweepConfig) -> list:
    """The three windows n<=20m, 20m<n<f(m), n>=f(m) leave no gap: f(m) > 20m
    at every m of WINDOW_M and not at the next m; as f(m) - 20m decreases,
    no later m needs the sweep."""
    last = WINDOW_M[-1]
    out = [(m, 0, "coverage gap", f"f(m) > 20m for m <= {last}")
           for m in WINDOW_M if not bounds.threshold_profile(m).f_exceeds_20m]
    if bounds.threshold_profile(last + 1).f_exceeds_20m:
        out.append((last + 1, 0, "coverage gap", f"f(m) <= 20m for m > {last}"))
    return out


def _bivariate_slices(cfg: SweepConfig) -> list:
    """The bivariate cross-oracle: each z^m slice of the C1/C5 expansions
    equals the univariate M_C1/M_C5 series and the z^-m slice, and every
    coefficient of every expansion in bivariate.FAMILIES, at every z-degree
    |m| <= order, is >= 0.

    The univariate series come from qseries.mc_sweep, the builder the
    conjecture check reads, so the product form checks every step of it.
    The z <-> 1/z symmetry is checked on the expansion itself because the
    univariate builders take |m|, so they cannot tell -m from m.
    """
    order = cfg.bivariate_order
    if order < 1:
        return []
    out = []
    expansions = {name: bivariate.spt_crank_bivariate(name, order) for name in bivariate.FAMILIES}
    for m, *univariate in qseries.mc_sweep(0, min(cfg.m_max, order), order):
        for name, series in zip(("C1", "C5"), univariate):
            expansion = expansions[name]
            s = bivariate.extract_m(expansion, m).coeffs
            if s != series.coeffs:
                out.append((m, 0, f"bivariate {name} slice", f"equals m{name.lower()} series"))
            if m and bivariate.extract_m(expansion, -m).coeffs != s:
                out.append((m, 0, f"bivariate {name} slice at -m", "equals slice at +m"))
    for name, expansion in expansions.items():
        out += ((d, n, str(v), f"M_{name}(m,n) >= 0 on the bivariate expansion")
                for d, row in enumerate(expansion.rows, -order) if min(row) < 0
                for n, v in enumerate(row) if v < 0)
    return out


# -- the check table and its one driver --------------------------------------


class _Check(NamedTuple):
    """One check: a sweep over parts of its grid, then a post step."""

    worker: Callable  # one part's argument tuple -> (violation tuples, count)
    args: Callable  # cfg -> the parts' argument tuples
    range_desc: str  # report range text, formatted with the config's fields and window_last
    slots: Callable  # cfg -> coefficient slots the guard weighs
    count_reason: str | None = None  # skip reason for the workers' summed count
    post: Callable = lambda cfg: ()  # cfg -> violation tuples, run after the sweep


def _n_blocks(cfg: SweepConfig) -> list:
    """(lo, hi, m_max) for consecutive blocks lo..hi of Y_BLOCK n from 1 to n_max."""
    return [(lo, min(lo + Y_BLOCK - 1, cfg.n_max), cfg.m_max)
            for lo in range(1, cfg.n_max + 1, Y_BLOCK)]


def _m_runs(ms: range, parts: int, weight=lambda m: 1) -> list:
    """(lo, hi) for k = min(parts, len(ms)) nonempty contiguous runs lo..hi
    that cover ms in ascending order.  The j-th run ends at the first m where
    the weight summed from ms[0] reaches j/k of the total, moved only as far
    as keeps every run nonempty."""
    k = min(parts, len(ms))
    cum = list(accumulate(map(weight, ms)))
    ends = []  # the index in ms of each run's last m
    for j in range(1, k):
        i = bisect_left(cum, -(-j * cum[-1] // k))
        ends.append(min(max(i, ends[-1] + 1 if ends else 0), len(ms) - 1 - k + j))
    ends.append(len(ms) - 1)
    return [(ms[a], ms[b]) for a, b in zip([0] + [e + 1 for e in ends[:-1]], ends)]


def _x_small_runs(cfg: SweepConfig) -> list:
    return _m_runs(range(cfg.m_max + 1), cfg.parallelism, lambda m: 20 * m + 1)


def _window_runs(cfg: SweepConfig) -> list:
    return _m_runs(WINDOW_M, cfg.parallelism)


def _grid_runs(cfg: SweepConfig) -> list:
    return [(lo, hi, cfg.n_max) for lo, hi in _m_runs(range(cfg.m_max + 1), cfg.parallelism)]


_CHECKS = {
    "y-nonneg": _Check(
        _y_worker, _n_blocks, "0<=m<={m_max}, 1<=n<={n_max}",
        lambda cfg: (cfg.m_max + 1) * (cfg.n_max + 1),
    ),
    "x-small-n": _Check(
        _x_small_worker, _x_small_runs,
        "0<=m<={m_max}, n<=20m", lambda cfg: (cfg.m_max + 1) * (20 * cfg.m_max + 1),
    ),
    # The finite window's range is fixed, so no configuration can trip the guard.
    "finite-window": _Check(
        _finite_window_worker, _window_runs,
        "0<=m<={window_last}, 20m<n<f(m)", lambda cfg: 0,
        count_reason="values checked", post=_window_coverage,
    ),
    # Only m >= 0 is built: negative m rest on M(-m,n) = M(m,n), which only
    # the cross check's bivariate checks test, for n <= --bivariate-order.
    "conjecture": _Check(
        _conjecture_worker, _grid_runs, "|m|<={m_max}, 1<=n<={n_max}",
        lambda cfg: 2 * (cfg.m_max + 1) * (cfg.n_max + 1),
    ),
    "cross": _Check(
        _cross_worker, _grid_runs,
        "0<=m<={m_max}, 1<=n<={n_max}; bivariate order {bivariate_order}",
        lambda cfg: 3 * (cfg.m_max + 1) * (cfg.n_max + 1)
        + (2 * cfg.bivariate_order + 1) * (cfg.bivariate_order + 1),
        count_reason="Jarnik hypothesis not met (empty region or length bound < 1)",
        post=_bivariate_slices,
    ),
}


def _run_check(check_id: str, cfg: SweepConfig) -> VerificationReport:
    """The check's report, built once from what its parts and post step
    return; a check whose range reads n_max notes an empty n range first."""
    check = _CHECKS[check_id]
    t0 = time.monotonic()
    out, counted = [], 0
    for chunk, count in _map_parts(check.worker, check.args(cfg), cfg.parallelism):
        out += chunk
        counted += count
    out += check.post(cfg)
    violations = [Violation(*v) for v in _capped(out)]
    skips = []
    if cfg.n_max == 0 and "{n_max}" in check.range_desc:
        skips.append({"reason": "empty n range", "count": 1})
    if counted:
        skips.append({"reason": check.count_reason, "count": counted})
    return VerificationReport(
        check_id, check.range_desc.format(**cfg._asdict(), window_last=WINDOW_M[-1]),
        "fail" if violations else "pass", violations, skips,
        int((time.monotonic() - t0) * 1000),
    )


def run_checks(cfg: SweepConfig) -> list:
    """Run the configured checks in canonical order, once the resource guard
    has passed every one of them."""
    selected = [c for c in CHECK_IDS if c in cfg.checks]
    for c in selected:
        guard(_CHECKS[c].slots(cfg), cfg.override_resource_guard)
    return [_run_check(c, cfg) for c in selected]
