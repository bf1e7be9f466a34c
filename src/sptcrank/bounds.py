"""Analytic threshold f(m) and the even-n lower bound on X^(m)(n).

All real arithmetic here is 64-bit binary floating point.  Strict
inequalities are asserted through a near-tie policy: a margin within
1e-9 (relative) of zero is classified as a near-tie and treated as a
failure, never a pass.  The derived bounds have macroscopic margins, so a
near-tie signals a transcription bug rather than a rounding artifact.

"log 2" in the threshold is the natural logarithm: the constant originates
from the hyperbola-area integral of dx/x, and the quadratic-root
derivation of f(m) inherits the same base.
"""

from __future__ import annotations

import enum
import math
from operator import sub
from typing import NamedTuple

LN2 = math.log(2.0)

NEAR_TIE_SLACK = 1e-9

THEOREM2_SQRT = 6  # theorem 2's sqrt(n+1) coefficient, above lattice's M1 + M2 ones


class StrictOutcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NEAR_TIE = "near-tie"


def strictly_less(smaller: float, larger: float) -> bool:
    """smaller < larger by more than the near-tie margin: classify_strict's PASS."""
    return larger - smaller > NEAR_TIE_SLACK * max(1.0, abs(smaller), abs(larger))


def all_strictly_less(smaller, larger) -> bool:
    """all(map(strictly_less, smaller, larger)) for two lists, decided by the
    least gap when it beats the largest magnitude's margin, which, while >= 0,
    bounds each point's margin (rounding is monotone).  min may skip a NaN
    gap, which fails its point; a NaN sum of the gaps catches it.

    The largest magnitude is max(1, |s|, |l|) over every pair (s, l), but
    the fast path is taken only when every gap l - s is > 0, so s < l at
    every point, as a float difference has the sign of the exact one.  Then
    s < l <= max(larger) and -l < -s <= -min(smaller), so |s| and |l| are at
    most max(max(larger), -min(smaller)), which is itself some |l| or |s|:
    the two extremes give that scale exactly.  Where some gap is <= 0 or
    NaN, the fast path fails whatever the scale, and each point is decided
    on its own."""
    gaps = list(map(sub, larger, smaller))
    top = max(1.0, max(larger, default=0), -min(smaller, default=0))
    if 0 <= NEAR_TIE_SLACK * top < min(gaps, default=1.0) and not math.isnan(sum(gaps)):
        return True
    return all(map(strictly_less, smaller, larger))


def classify_strict(smaller: float, larger: float) -> StrictOutcome:
    """Classify the strict inequality smaller < larger under the near-tie policy."""
    if strictly_less(smaller, larger):
        return StrictOutcome.PASS
    if larger - smaller < -NEAR_TIE_SLACK * max(1.0, abs(smaller), abs(larger)):
        return StrictOutcome.FAIL
    return StrictOutcome.NEAR_TIE


def f_of_m(m: int) -> float:
    """Threshold beyond which the even-n lower bound on X^(m) is nonnegative:
    f(m) = (2*(6 + sqrt(36 + (m+2)*ln 2)) / ln 2)^2."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return (2.0 * (6.0 + math.sqrt(36.0 + (m + 2) * LN2)) / LN2) ** 2


class ThresholdProfile(NamedTuple):
    m: int
    f_value: float
    twenty_m: int
    f_exceeds_20m: bool


def threshold_profile(m: int) -> ThresholdProfile:
    """f(m) against 20m, with the comparison under the near-tie policy."""
    fv = f_of_m(m)
    outcome = classify_strict(20.0 * m, fv)
    if outcome is StrictOutcome.NEAR_TIE:
        raise ArithmeticError(f"near-tie comparing f({m}) with 20*{m}")
    return ThresholdProfile(m, fv, 20 * m, outcome is StrictOutcome.PASS)


def theorem2_m_free(n: int, root: float) -> float:
    """(ln2/4)*(n+1) - 6*root, theorem 2's bound before m, where root = sqrt(n+1)."""
    return LN2 / 4 * (n + 1) - THEOREM2_SQRT * root


def theorem2_lower_bound(m: int, n: int) -> float:
    """(ln2/4)*(n+1) - 6*sqrt(n+1) - m - 2; derived only for even n >= 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError("the lower bound is derived only for even n >= 2")
    if m < 0:
        raise ValueError("m must be non-negative")
    return theorem2_m_free(n, math.sqrt(n + 1)) - m - 2


def derivation_margins(m1_sqrt, m2_sqrt, omega_length, omega_prime_length, theorem2_sqrt) -> tuple:
    """Exact lower bounds, as Fractions of the constants as given, on the
    margins d1 = m1_sqrt - omega_length/2 - sqrt(2)/4, d2 = m2_sqrt -
    omega_prime_length/2 - sqrt(3)/2 and d_bc = (theorem2_sqrt - m1_sqrt -
    m2_sqrt)/2 by which the M1, M2 and theorem 2 bounds follow from the
    Jarnik and parity lemmas; each is > 0 exactly when its margin is:

    - M1 <= N/2 + sqrt(2(n+1))/4 + 1 and N < A + 3.6 sqrt(n+1) give
      M1 < A/2 + 2.2 sqrt(n+1) + 1 when d1 > 0;
    - M2 >= N/2 - sqrt(3(n+1))/2 - m/2 - 1 and N > A - 5.5 sqrt(n+1) - m
      give M2 > A/2 - 3.7 sqrt(n+1) - m - 1 when d2 > 0;
    - M2 - M1 then exceeds theorem 2's bound when d_bc > 0.

    With a = m1_sqrt - omega_length/2 > 0, d1 = (a^2 - 1/8)/(a + sqrt(2)/4),
    which (a^2 - 1/8)/(2a) bounds below with its sign, as a^2 = 1/8 has no
    rational root; a <= 0 gives a - 1 < d1 < 0.  The same holds for d2 with
    3/4.
    """
    from fractions import Fraction  # here: only cross and the tests read it

    m1, m2 = Fraction(m1_sqrt), Fraction(m2_sqrt)
    a, b = m1 - Fraction(omega_length) / 2, m2 - Fraction(omega_prime_length) / 2
    return (*((x * x - q) / (2 * x) if x > 0 else x - 1
              for x, q in ((a, Fraction(1, 8)), (b, Fraction(3, 4)))),
            (Fraction(theorem2_sqrt) - m1 - m2) / 2)


def m2_minus_m1_bound_check(m: int, n: int, m1_bound: float, m2_bound: float) -> bool:
    """Re-verify the combination step: the Omega'/Omega bound difference
    m2_bound - m1_bound (lattice.m2_lower_bound, lattice.m1_upper_bound) must
    exceed the even-n lower bound on X^(m)(n); a near-tie fails."""
    return strictly_less(theorem2_lower_bound(m, n), m2_bound - m1_bound)
