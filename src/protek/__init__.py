"""Maximum protection number of simply generated trees.

Exact distributions via truncated power-series solutions of the
bounded-protection functional system, a brute-force enumeration oracle,
and the asymptotic limit-law constants and formulas, all behind one CLI.
"""

from .asymptotics import (
    DEFAULT_PRECISION_BITS,
    FamilyConstants,
    RhoHSolution,
    cdf_asymptotic,
    complex_gamma,
    count_asymptotic,
    default_hmax,
    eta_sequence,
    expectation_asymptotic,
    family_constants,
    psi_fluctuation,
    solve_rho_h,
    solve_tau_rho,
    two_point_predictor,
)
from .counting import (
    ProtectionSeriesSet,
    bounded_count,
    cdf_exact,
    expectation_exact,
    solve_protection_system,
    solve_Y,
)
from .errors import (
    CapExceeded,
    InvalidArgument,
    InvalidWeights,
    NoConvergence,
    NoTau,
    OrderMismatch,
    PeriodMismatch,
    ProtekError,
    UnknownFamily,
    ValuationError,
    WrongRegime,
)
from .families import (
    BUILTIN_NAMES,
    FamilyStructure,
    WeightFamily,
    family_structure,
    make_builtin,
    make_polynomial,
)
from .oracle import (
    ENUMERATION_CAP,
    OracleDistribution,
    OracleReport,
    oracle_check,
    oracle_distribution,
)
from .series import TruncatedSeries, compose_phi

__version__ = "0.1.0"
