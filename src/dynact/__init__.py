"""Layer normalization and its dynamic element-wise counterparts.

Provides LN with its exact analytic derivative, the scaled DyT and
DyISRU activation families, numerical identity checks, a deterministic
outlier simulation, and scalar least-squares fitting of the activation
parameters.
"""

from dynact.core_math import (
    DegenerateVariance,
    IndexOutOfRange,
    layer_norm,
    ln_derivative_analytic,
)
from dynact.activations import (
    BETA_MIN,
    DyISRUParams,
    DyTParams,
    beta_exact,
    dyisru,
    isru,
    scaled_dyt,
)
from dynact.fitting import (
    BracketFailure,
    FitDataset,
    FitResult,
    fit_dyisru,
    fit_dyt,
    mirror_augment,
)
from dynact.simulation import (
    EmptyOutliers,
    OutlierScenario,
    SimulationConfig,
    outlier_points,
    run_scenario,
    sample_base,
)
from dynact.verification import VerificationReport, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "BETA_MIN",
    "BracketFailure",
    "DegenerateVariance",
    "DyISRUParams",
    "DyTParams",
    "EmptyOutliers",
    "FitDataset",
    "FitResult",
    "IndexOutOfRange",
    "OutlierScenario",
    "SimulationConfig",
    "VerificationReport",
    "beta_exact",
    "dyisru",
    "fit_dyisru",
    "fit_dyt",
    "isru",
    "layer_norm",
    "ln_derivative_analytic",
    "mirror_augment",
    "outlier_points",
    "run_all_checks",
    "run_scenario",
    "sample_base",
    "scaled_dyt",
]
