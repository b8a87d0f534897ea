"""Spectral-Galerkin simulation and drift estimation for semilinear
stochastic reaction-diffusion equations."""

from .errors import (
    AdmissibilityWarning,
    BlowUpError,
    ConfigurationError,
    DegenerateTrajectoryError,
    DomainError,
    SpdeDriftError,
    StudyError,
)
from .spectrum import (
    OperatorSpec,
    eigenvalues,
    frac_power_apply,
    regularity_limit,
    sobolev_norm,
)
from .fields import (
    ALLEN_CAHN,
    FHNParams,
    GridSpec,
    NemytskiiPlan,
    NonlinearitySpec,
    burgers_modes,
    default_grid,
    fhn_drift,
    grid_to_modes,
    modes_to_grid,
    nemytskii_modes,
)
from .estimate import (
    EstimateResult,
    EstimatorAccumulator,
    EstimatorRequest,
    coupled_estimates,
    decompose,
    estimate_theta,
    robust_numerator,
    standardize,
)
from .simulate import (
    ModelSpec,
    SchemeSpec,
    SimOutput,
    simulate_model,
    simulate_ou_exact,
)
from .theory import (
    AdvisorQuery,
    AsymptoticConstants,
    advise,
    asymptotic_constants,
    ou_moment_oracle,
)
from .mc import MCReport, StudySpec, mix_seed, run_study, summarize

__all__ = [
    "AdmissibilityWarning",
    "BlowUpError",
    "ConfigurationError",
    "DegenerateTrajectoryError",
    "DomainError",
    "SpdeDriftError",
    "StudyError",
    "OperatorSpec",
    "eigenvalues",
    "frac_power_apply",
    "regularity_limit",
    "sobolev_norm",
    "ALLEN_CAHN",
    "FHNParams",
    "GridSpec",
    "NemytskiiPlan",
    "NonlinearitySpec",
    "burgers_modes",
    "default_grid",
    "fhn_drift",
    "grid_to_modes",
    "modes_to_grid",
    "nemytskii_modes",
    "EstimateResult",
    "EstimatorAccumulator",
    "EstimatorRequest",
    "coupled_estimates",
    "decompose",
    "estimate_theta",
    "robust_numerator",
    "standardize",
    "ModelSpec",
    "SchemeSpec",
    "SimOutput",
    "simulate_model",
    "simulate_ou_exact",
    "AdvisorQuery",
    "AsymptoticConstants",
    "advise",
    "asymptotic_constants",
    "ou_moment_oracle",
    "MCReport",
    "StudySpec",
    "mix_seed",
    "run_study",
    "summarize",
]

__version__ = "0.1.0"
