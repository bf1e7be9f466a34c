"""Exact verification of nonnegativity for the spt-crank counting
functions M_C1(m, n) and M_C5(m, n).

Three mutually independent computation paths (q-series expansion,
divisor-pair census, lattice-point enumeration) are cross-checked
against each other before any nonnegativity claim is reported.
"""

from .series import TruncatedSeries
from .qseries import (
    mc1_series,
    mc5_series,
    x_series,
    y_series,
    z_series,
)
from .divisors import DivisorPairCensus, OddPartDecomposition, census
from .lattice import (
    GeometryFigures,
    LatticeCount,
    RegionKind,
    RegionSpec,
    count_region,
    geometry_figures,
)
from .bounds import StrictOutcome, ThresholdProfile, f_of_m, threshold_profile
from .bivariate import LaurentSeries, extract_m, spt_crank_bivariate
from .verify import (
    ResourceGuardError,
    SweepConfig,
    VerificationReport,
    Violation,
    run_checks,
)
from .verify import TOOL_VERSION as __version__

__all__ = [
    "TruncatedSeries",
    "mc1_series",
    "mc5_series",
    "x_series",
    "y_series",
    "z_series",
    "DivisorPairCensus",
    "OddPartDecomposition",
    "census",
    "GeometryFigures",
    "LatticeCount",
    "RegionKind",
    "RegionSpec",
    "count_region",
    "geometry_figures",
    "StrictOutcome",
    "ThresholdProfile",
    "f_of_m",
    "threshold_profile",
    "LaurentSeries",
    "extract_m",
    "spt_crank_bivariate",
    "ResourceGuardError",
    "SweepConfig",
    "VerificationReport",
    "Violation",
    "run_checks",
    "__version__",
]
