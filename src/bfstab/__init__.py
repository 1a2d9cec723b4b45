"""Stability certificates for Gaussian functional inequalities.

The package measures how far a probability density is from saturating the
Gaussian logarithmic Sobolev and Talagrand inequalities, using a bounded
transport distance between one-dimensional densities and its directional
lift to n dimensions. Deficit and lower bound are reported together with a
numerical error estimate and a pass/fail/inconclusive verdict.
"""

__version__ = "0.1.0"

from .errors import (BfstabError, CapabilityError, ConditioningError,
                     DomainError, EvaluationError, InvariantViolation,
                     ParseError, UnderflowError)
from .density1d import (Density1D, GaussianMixture1D, GridDensity1D,
                        StandardGaussian, entropy_fisher_1d,
                        load_grid_csv)
from .transport1d import (TransportMap1D, bf_distance_full,
                          bregman_integral_full, talagrand_deficit_1d_full,
                          w2_squared_1d_full)
from .densitynd import (GaussianMixtureND, ProductFunction,
                        entropy_fisher_nd, marginal_without,
                        mixture_from_json)
from .sphereopt import DnResult, dn_distance
from .deficits import (DeficitReport, GFun, LambdaDiagRow, PLTriple,
                       lambda_limit_diagnostics, lsi_deficit, pl_deficit_check,
                       sup_convolution, verify_corollary, verify_talagrand,
                       verify_thm_main)
from .corpus import (DEFAULT_TOL, SUITES, equality_cases, main_corpus,
                     pl_grid, run_case, suite_cases, suite_theorems,
                     talagrand_1d_corpus)

__all__ = [
    "__version__",
    # errors
    "BfstabError", "DomainError", "ParseError", "ConditioningError",
    "UnderflowError", "EvaluationError", "CapabilityError",
    "InvariantViolation",
    # one-dimensional densities
    "Density1D", "GaussianMixture1D", "GridDensity1D", "StandardGaussian",
    "entropy_fisher_1d", "load_grid_csv",
    # transport
    "TransportMap1D", "bf_distance_full", "w2_squared_1d_full",
    "talagrand_deficit_1d_full", "bregman_integral_full",
    # n dimensions
    "GaussianMixtureND", "ProductFunction", "entropy_fisher_nd",
    "marginal_without", "mixture_from_json",
    # sphere search
    "DnResult", "dn_distance",
    # deficits and reports
    "DeficitReport", "GFun", "PLTriple", "LambdaDiagRow", "lsi_deficit",
    "verify_thm_main", "verify_corollary", "verify_talagrand",
    "sup_convolution", "pl_deficit_check", "lambda_limit_diagnostics",
    # corpora
    "DEFAULT_TOL", "SUITES", "main_corpus", "talagrand_1d_corpus",
    "equality_cases", "pl_grid", "run_case", "suite_cases", "suite_theorems",
]
