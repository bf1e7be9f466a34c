"""The value semantics of the record types: equality, hashing, immutability,
repr, pickling and validation.

Each record is an immutable value: equal fields make equal, equally hashed
values; assigning a field raises AttributeError; repr reads
Name(field=value, ...); a pickle round trip gives an equal value; and each
malformed construction raises its own exception class and message.
TruncatedSeries validates in __post_init__, once per construction, which
is the method bench/spans.py wraps to count constructions.
"""

import pickle

import pytest

from sptcrank.bivariate import LaurentSeries
from sptcrank.bounds import ThresholdProfile
from sptcrank.divisors import OddPartDecomposition
from sptcrank.lattice import GeometryFigures, LatticeCount, RegionKind, RegionSpec
from sptcrank.series import TruncatedSeries
from sptcrank.verify import CHECK_IDS, SweepConfig, VerificationReport, Violation, run_checks

# (build, one of its fields, its repr)
RECORDS = [
    (lambda: TruncatedSeries(2, (1, 0, -3)), "order",
     "TruncatedSeries(order=2, coeffs=(1, 0, -3))"),
    (lambda: RegionSpec(RegionKind.OMEGA, 1, 20), "m",
     "RegionSpec(kind=<RegionKind.OMEGA: 'omega'>, m=1, n=20)"),
    (lambda: LatticeCount(5, 2), "odd_y", "LatticeCount(total=5, odd_y=2)"),
    (lambda: GeometryFigures(1.5, 2.0, 0.25, ((1, 2), (3, 4))), "area",
     "GeometryFigures(area=1.5, length_bound=2.0, x_extent_bound=0.25, "
     "vertices=((1, 2), (3, 4)))"),
    (lambda: ThresholdProfile(3, 812.5, 60, True), "f_value",
     "ThresholdProfile(m=3, f_value=812.5, twenty_m=60, f_exceeds_20m=True)"),
    (lambda: LaurentSeries(1, ((0, 0), (1, 2), (0, 1))), "rows",
     "LaurentSeries(order=1, rows=((0, 0), (1, 2), (0, 1)))"),
    (lambda: OddPartDecomposition(3, 5), "e", "OddPartDecomposition(e=3, odd_part=5)"),
    (lambda: SweepConfig(m_max=4, checks=("cross",)), "m_max",
     "SweepConfig(m_max=4, n_max=200, checks=('cross',), parallelism=1, "
     "bivariate_order=30, override_resource_guard=False)"),
    (lambda: Violation(1, 2, "-1", "M_C1(m,n) >= 0"), "value",
     "Violation(m=1, n=2, value='-1', expected='M_C1(m,n) >= 0')"),
]


@pytest.mark.parametrize("build, field, text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_is_an_immutable_value(build, field, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


def test_series_equality_reads_order_and_coefficients():
    s = TruncatedSeries(2, (1, 0, -3))
    assert s != TruncatedSeries(2, (1, 0, 3))
    assert s != TruncatedSeries(1, (1, 0))
    assert s != (2, (1, 0, -3))
    with pytest.raises(AttributeError):
        del s.coeffs
    assert s.coeffs == (1, 0, -3)


@pytest.mark.parametrize("build, exc, message", [
    (lambda: RegionSpec(RegionKind.OMEGA, -1, 5), ValueError, "m and n must be non-negative"),
    (lambda: RegionSpec(RegionKind.OMEGA_PRIME, 0, -1), ValueError,
     "m and n must be non-negative"),
    # the radicand is in range, but 8m(n+1), the areas' rational term, is not
    (lambda: RegionSpec(RegionKind.OMEGA, 10**153, 10**306), ValueError,
     "m and n too large: 8m(n+1) exceeds the largest float"),
    (lambda: LatticeCount(2, 3), ValueError, "odd_y must lie between 0 and total"),
    (lambda: LatticeCount(2, -1), ValueError, "odd_y must lie between 0 and total"),
    (lambda: LaurentSeries(1, ((0, 0), (1, 2))), ValueError,
     "rows must be 2*order+1 rows of order+1 coefficients"),
    (lambda: LaurentSeries(1, ((1, 0), (1, 2), (0, 1))), ValueError,
     "z^-1 is nonzero below q^1"),
    (lambda: OddPartDecomposition(1, 4), ValueError, "odd_part must be an odd positive integer"),
    (lambda: OddPartDecomposition(-1, 3), ValueError, "e must be non-negative"),
    (lambda: SweepConfig(m_max=-1), ValueError, "m_max and n_max must be non-negative"),
    (lambda: SweepConfig(n_max=-1), ValueError, "m_max and n_max must be non-negative"),
    (lambda: SweepConfig(checks=("nope",)), ValueError,
     f"unknown check id 'nope'; choose from {', '.join(CHECK_IDS)}"),
    (lambda: SweepConfig(parallelism=0), ValueError, "parallelism must be positive"),
    (lambda: SweepConfig(bivariate_order=-1), ValueError,
     "bivariate_order must be non-negative"),
    (lambda: TruncatedSeries(1, (1.0, 0)), TypeError,
     "coeffs must be a tuple of ints, got (1.0, 0)"),
    (lambda: TruncatedSeries(1, [1, 0]), TypeError, "coeffs must be a tuple of ints, got [1, 0]"),
    (lambda: TruncatedSeries(2, (1, 0)), ValueError, "coeffs must have order+1=3 entries, got 2"),
    (lambda: TruncatedSeries(-1, ()), ValueError, "order must be non-negative"),
])
def test_malformed_record_raises(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_series_post_init_runs_once_per_construction(monkeypatch):
    """A __post_init__ patched on the class, as bench/spans.py patches it,
    sees every construction exactly once."""
    seen = []
    original = TruncatedSeries.__post_init__

    def counted(self):
        seen.append(self.order)
        original(self)

    monkeypatch.setattr(TruncatedSeries, "__post_init__", counted)
    a = TruncatedSeries(2, (1, 2, 3))
    a + a, a - a, -a, a * a, a.truncate(1)
    assert seen == [2, 2, 2, 2, 2, 1]
    with pytest.raises(TypeError):
        TruncatedSeries(0, (0.5,))
    assert seen[-1] == 0 and len(seen) == 7


def test_report_is_an_immutable_value():
    """VerificationReport is a value like the records above, but unhashable,
    as its violations and skips are lists."""
    def build():
        return VerificationReport("y-nonneg", "r", "fail", [Violation(0, 1, "v", "e")],
                                  [{"reason": "x", "count": 1}], 0)

    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert a != build()._replace(status="pass")
    assert repr(a) == (
        "VerificationReport(check_id='y-nonneg', range_desc='r', status='fail', "
        "violations=[Violation(m=0, n=1, value='v', expected='e')], "
        "skips=[{'reason': 'x', 'count': 1}], elapsed_ms=0)")
    assert pickle.loads(pickle.dumps(a)) == a
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    assert a == b


def test_report_lists_are_its_own():
    """No two reports share a violations or skips list, not even two runs'
    reports of the same check."""
    cfg = SweepConfig(m_max=1, n_max=0, bivariate_order=0)
    reports = run_checks(cfg) + run_checks(cfg)
    lists = [x for r in reports for x in (r.violations, r.skips)]
    assert len({id(x) for x in lists}) == len(lists) == 20
    reports[0].skips.append({"reason": "x", "count": 1})
    assert reports[5].skips == [{"reason": "empty n range", "count": 1}]
