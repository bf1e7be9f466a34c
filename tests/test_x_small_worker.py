"""x-small-n's worker, which carries its verdicts across m, against the
per-m full read it replaced.

`full_read_worker` reads the whole window n <= 20m of each list again at
every m: it is the reference.  The carried worker must return its
violations and count on clean runs, on sweeps whose lists are bumped on
copies or in place, on sweeps that hand on_drop copies or nothing, on
term tables with a row's sign flipped, and with an r2_numerator that
writes other values than +1.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sptcrank import qseries, verify
from sptcrank.series import over_one_minus_qk
from test_series import negative_over_one_minus_q2


def full_read_worker(args):
    """verify._x_small_worker as a full read of each m's window: copies of
    the four lists up to n = 20m, compared whole, and R2's and T's running
    sums read by negative_over_one_minus_q2."""
    m_lo, m_hi = args
    out = []
    order = 20 * m_hi
    for m, swept in qseries.lambert_sweep(verify._X_SMALL_PARTS, m_lo, m_hi, order):
        k = 20 * m + 1
        t, x, comp, r1 = (acc[:k] for acc in swept)
        rem = qseries.r2_numerator(r1, m)
        r2_ok = min(rem) >= 0 or not negative_over_one_minus_q2(rem)
        if t == x == comp and r2_ok and not negative_over_one_minus_q2(t):
            continue
        t, x, comp, rem = (over_one_minus_qk(c, 2) for c in (t, x, comp, rem))
        ns = range(k)
        out += verify._unequal(m, ns, t, x, "T coefficient == X coefficient")
        out += verify._unequal(m, ns, comp, t, "T1+T3+T5+T7+T9+T' == T coefficient")
        out += verify._negatives(m, ns, rem, "R2 coefficient >= 0")
        out += verify._negatives(m, ns, t, "X^(m)(n) >= 0 for n <= 20m")
    direct = [qseries.lambert_part(name, m_hi, order) for name in verify._X_SMALL_PARTS]
    out += verify._sweep_mismatches(m_hi, verify._X_SMALL_PARTS, swept, direct)
    return verify._capped(out), 0


def bumped_sweep(on_copies, in_place, hand_over="lists"):
    """lambert_sweep with bumps, each (m, part indices, which, delta):
    - on_copies: delta added at exponent `which` of those lists at m, on a
      copy of the lists, so later steps stay true;
    - in_place: delta added, in the lists themselves, at the exponent of
      the `which`-th (cyclically) of the terms that the first named list's
      step to m dropped below the last window, 20(m - 1) + 1; no bump where
      it dropped none.
    The batches go on to on_drop, if given, before any bump: with the lists
    themselves, with copies of them (hand_over="copies"), or not at all
    (hand_over="none")."""
    real = qseries.lambert_sweep

    def lambert_sweep(parts, m_lo, m_hi, order, on_drop=None):
        batches = []

        def spy(acc, terms):
            batches.append(terms)
            if on_drop is not None and hand_over != "none":
                on_drop(acc if hand_over == "lists" else list(acc), terms)

        for m, lists in real(parts, m_lo, m_hi, order, spy):
            for m_bad, named, which, d in in_place:
                dropped = batches[named[0]] if m == m_bad and batches else ()
                inside = [a for a, _, _ in dropped if a < 20 * (m - 1) + 1]
                for i in named if inside else ():
                    lists[i][inside[which % len(inside)]] += d
            batches.clear()
            hits = [(i, n, d) for m_bad, named, n, d in on_copies if m_bad == m and n <= order
                    for i in named]
            if hits:
                lists = [list(c) for c in lists]
                for i, n, d in hits:
                    lists[i][n] += d
            yield m, lists

    return lambert_sweep


def lifted_r2_numerator(lift: int):
    """qseries.r2_numerator adding lift, not 1, at each leftover exponent."""
    def r2_numerator(r1: list, m: int) -> list:
        for start, stop, step in qseries._r2_progressions(m):
            r1[start:stop:step] = [c + lift for c in r1[start:stop:step]]
        return r1

    return r2_numerator


def flipped_rows(flips):
    """T_ROWS with the sign of each (table, row) of flips flipped."""
    rows = {name: list(table) for name, table in qseries.T_ROWS.items()}
    for name, index in flips:
        alpha, beta, b, s = rows[name][index % len(rows[name])]
        rows[name][index % len(rows[name])] = (alpha, beta, b, -s)
    return {name: tuple(table) for name, table in rows.items()}


# one list, or T, X and the T-components alike, which only X >= 0 can see
parts = st.sampled_from(((0,), (1,), (2,), (3,), (0, 1, 2)))
deltas = st.sampled_from((-(10**9), -3, -1, 1, 2, 10**9))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_carried_worker_returns_the_full_read(data):
    """On random runs m_lo <= m_hi <= 60, the carried worker returns the
    reference's violations and count: on clean sweeps, on sweeps whose lists
    are bumped on copies (so the next m reads lists other than the ones it
    followed) or in place at an exponent a step dropped inside the window,
    on sweeps that hand on_drop copies or nothing, with T_ROWS rows' signs
    flipped, and with an r2_numerator that writes other values than +1 at
    its exponents."""
    m_lo, m_hi = sorted(data.draw(st.lists(st.integers(0, 60), min_size=2, max_size=2), "run"))
    ms = st.integers(m_lo, m_hi)
    on_copies = data.draw(st.lists(st.tuples(ms, parts, st.integers(0, 20 * m_hi), deltas),
                                   max_size=3), "bumps on copies")
    in_place = data.draw(st.lists(st.tuples(ms, parts, st.integers(0, 50), deltas),
                                  max_size=2), "bumps in place")
    flips = data.draw(st.lists(st.tuples(st.sampled_from(sorted(qseries.T_ROWS)),
                                         st.integers(0, 8)), max_size=2), "flipped rows")
    lift = data.draw(st.sampled_from((1, 0, -1)), "r2_numerator's lift")
    hand_over = data.draw(st.sampled_from(("lists", "copies", "none")), "hand over")
    sweep = bumped_sweep(on_copies, in_place, hand_over)
    with mock.patch.object(qseries, "T_ROWS", flipped_rows(flips)), \
            mock.patch.object(qseries, "lambert_sweep", sweep), \
            mock.patch.object(qseries, "r2_numerator", lifted_r2_numerator(lift)):
        got = verify._x_small_worker((m_lo, m_hi))
        want = full_read_worker((m_lo, m_hi))
    assert got == want


@pytest.mark.parametrize("named, which, hand_over, text", [
    ((0,), 0, "none", "T coefficient == X"),  # no batch: the next m reads afresh
    ((0,), 0, "copies", "T coefficient == X"),  # batches of other lists: likewise
    # a negative T term at q^5, which no later batch names, in the odd
    # class, where no sum up to a later negative term would read it
    ((0, 1, 2), 3, "lists", "X^(m)(n) >= 0"),
    ((3,), 0, "lists", "R2 coefficient >= 0"),  # a negative R1 term, likewise
])
def test_a_change_no_batch_names_again_is_carried(monkeypatch, named, which, hand_over, text):
    """A coefficient lowered in place at m = 5, at an exponent the step
    dropped inside the window, stays lowered at every later m, though no
    later batch names it, and each m reports it as the full read does."""
    sweep = bumped_sweep([], [(5, named, which, -(10**9))], hand_over)
    monkeypatch.setattr(qseries, "lambert_sweep", sweep)
    violations, _ = verify._x_small_worker((0, 10))
    assert {v[0] for v in violations if v[3].startswith(text)} == set(range(5, 11))
    assert violations == full_read_worker((0, 10))[0]


def test_r2_is_read_from_what_r2_numerator_writes(monkeypatch):
    """An r2_numerator that writes -1 in place of +1 makes R2 negative where
    R1 carries no negative term, from m = 1 on (at m = 0 it writes nothing
    below n = 1); each m reports it as the full read does."""
    monkeypatch.setattr(qseries, "r2_numerator", lifted_r2_numerator(-1))
    violations, _ = verify._x_small_worker((0, 8))
    assert {v[0] for v in violations if v[3] == "R2 coefficient >= 0"} == set(range(1, 9))
    assert violations == full_read_worker((0, 8))[0]


def test_a_bumped_copy_is_read_whole(monkeypatch):
    """A sweep that yields copies at m = 5, bumped at q^3, which no batch of
    that step names: the copies are not the lists whose batches were
    followed, so m = 5 reads its window whole, and so does m = 6, back on
    the sweep's own lists."""
    monkeypatch.setattr(qseries, "lambert_sweep", bumped_sweep([(5, (0,), 3, 1)], []))
    violations, _ = verify._x_small_worker((0, 8))
    assert {v[0] for v in violations} == {5}
    assert violations == full_read_worker((0, 8))[0]


def test_in_place_bumps_are_made_inside_the_window(monkeypatch):
    """The in-place bumps of the test above land where the carried sets must
    look again: a lifted T coefficient at m = 5 inside the window breaks
    T == X there and at every later m."""
    monkeypatch.setattr(qseries, "lambert_sweep", bumped_sweep([], [(5, (0,), 0, 1)]))
    violations, _ = verify._x_small_worker((0, 8))
    assert {v[0] for v in violations if v[3].startswith("T coefficient == X")} == {5, 6, 7, 8}
    assert violations == full_read_worker((0, 8))[0]


def test_a_passing_run_reads_no_window_by_running_sums(monkeypatch):
    """A passing _x_small_worker((0, 120)) reads no window's running sums:
    its one negative_running_sum call per m is handed T's list with T's
    negative terms, at most 9 of them, and R2's numerator is never read
    that way, as no coefficient r2_numerator writes or R1 carries is
    negative."""
    calls = []
    real = verify.negative_running_sum

    def negative_running_sum(coeffs, negatives):
        calls.append((coeffs, list(coeffs), sorted(negatives)))
        return real(coeffs, negatives)

    monkeypatch.setattr(verify, "negative_running_sum", negative_running_sum)
    monkeypatch.setattr(verify, "accumulate", None)
    monkeypatch.setattr(verify, "over_one_minus_qk", None)
    assert verify._x_small_worker((0, 120)) == ([], 0)
    assert len(calls) == 121
    for m, (_, t, negatives) in enumerate(calls):
        assert t == qseries.lambert_part("T", m, 2400), m
        assert negatives == [n for n, c in enumerate(t[: 20 * m + 1]) if c < 0], m
        assert len(negatives) <= 9, m
    assert all(t is calls[0][0] for t, _, _ in calls)  # the swept list, not a window's copy
