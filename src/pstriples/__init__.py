"""Desk-scale computation of floor-power prime triples near a target.

The package makes every object in the underlying argument computable at
small scale: the floor-power prime sets and their indicator, the
smoothed window and its transform bounds, the weighted exponential sums
with their exact floor-error splitting, rational approximation and the
two-scale denominator dichotomy, and the three-band decomposition of
the weighted triple count with its full bound chain.  The cli module
exposes the same machinery as subcommands emitting CSV and JSON.
"""

__version__ = "0.1.0"

from .params import (
    Coefficients,
    CoefficientReport,
    GammaExponent,
    ParameterError,
    RunParameters,
    THEOREM_GAMMA_LOWER,
    feasible_box_check,
    validate_coefficients,
)
from .primes import (
    CacheFormatError,
    PrimeTable,
    PSPrimeSet,
    cache_load,
    cache_store,
    ps_enumerate_oracle,
    ps_indicator,
    ps_primes_in,
    sieve_primes,
)
from .kernel import (
    SmoothingKernel,
    invert_transform,
    make_kernel,
    theta,
    theta_transform,
    transform_bound,
    verify_bounds,
)
from .quadrature import QuadratureError, adaptive_simpson
from .expsums import (
    chebyshev_sum,
    decomposition_residual,
    floor_error_sum,
    interval_integral,
    l2_integral,
    minor_arc_check,
    prime_exp_sum,
    ps_exp_sum,
    ps_sum_grid,
    unit_mean_square,
)
from .approx import (
    ApproxError,
    ConvergentSeq,
    Rational,
    classify_denominator,
    continued_fraction,
    dichotomy_probe,
    dirichlet_approx,
)
from .triplesum import (
    DecompositionResult,
    TripleRecord,
    big_gamma_direct,
    box_integral_B,
    decompose,
    far_tail_majorant,
    find_triples,
    gamma2_majorant,
    integral_J,
    middle_band_sweep,
    phi_bound,
    piece3_truncation,
    threshold_vacuous,
    triple_sum_bruteforce,
    triple_threshold,
)
from .config import ConfigError, RunConfig, parse_config
from .pipeline import STAGES, RunManifest, run_pipeline

__all__ = [
    "__version__",
    "Coefficients", "CoefficientReport", "GammaExponent",
    "ParameterError", "RunParameters", "THEOREM_GAMMA_LOWER",
    "feasible_box_check", "validate_coefficients",
    "CacheFormatError", "PrimeTable", "PSPrimeSet", "cache_load",
    "cache_store", "ps_enumerate_oracle", "ps_indicator", "ps_primes_in",
    "sieve_primes",
    "SmoothingKernel", "invert_transform", "make_kernel", "theta",
    "theta_transform", "transform_bound", "verify_bounds",
    "QuadratureError", "adaptive_simpson",
    "chebyshev_sum", "decomposition_residual", "floor_error_sum",
    "interval_integral", "l2_integral", "minor_arc_check", "prime_exp_sum",
    "ps_exp_sum", "ps_sum_grid", "unit_mean_square",
    "ApproxError", "ConvergentSeq", "Rational", "classify_denominator",
    "continued_fraction", "dichotomy_probe", "dirichlet_approx",
    "DecompositionResult", "TripleRecord", "big_gamma_direct",
    "box_integral_B", "decompose", "far_tail_majorant", "find_triples",
    "gamma2_majorant", "integral_J", "middle_band_sweep",
    "phi_bound", "piece3_truncation",
    "threshold_vacuous", "triple_sum_bruteforce", "triple_threshold",
    "ConfigError", "RunConfig", "parse_config",
    "STAGES", "RunManifest", "run_pipeline",
]
