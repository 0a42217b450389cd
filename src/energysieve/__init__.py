"""Additive energy, representation functions, and sieve diagnostics for
integer sets, with exact dual-path verification of every identity."""

from .arith import (
    EPS_HALF,
    EPS_ONE,
    EPS_ZERO,
    EpsilonSpec,
    SeriesTable,
    delta,
    delta_prime_power,
    factorize,
    is_squarefree,
    m_partial_sum,
    series_table,
    sieve_primes,
    singular_series,
    t_partial_sum,
)
from .correlation import (
    DecompositionReport,
    ExperimentRow,
    LowerBoundReport,
    QuadraticHitsReport,
    SidonEnergyReport,
    energy_decomposition,
    energy_lower_bound,
    is_diff_of_squares,
    quadratic_hits,
    ramanujan_ratio,
    sidon_report,
)
from .energy import (
    CauchySchwarzReport,
    EnergyReport,
    RepFunction,
    cauchy_schwarz_check,
    energy_bruteforce,
    energy_diff_path,
    energy_sum_path,
    rep_diff,
    rep_sum,
    sumset,
)
from .errors import InvariantViolationError, ResourceLimitError, SetFileError
from .sets import (
    IntegerSet,
    is_sidon,
    mod4_restrict,
    occupancy,
    quadratic_image,
    read_set,
    residue_avoiding_random,
    sidon_set,
    squares_up_to,
    write_set,
)
from .sieve import (
    DivisorGrowthReport,
    DivisorSumTrace,
    SieveCheckResult,
    composite_moduli_check,
    divisor_growth_report,
    divisor_sum_direct,
    divisor_sum_partition,
    gallagher_bound,
)

__version__ = "0.1.0"
