"""Koopman-lifted linear models with the negative-imaginary property enforced.

The package learns a lifted linear discrete-time model of a nonlinear
dynamical system from trajectory data.  The negative-imaginary (NI)
characterization is imposed as a convex semidefinite constraint and solved
with a small dense ADMM, then validated against unconstrained lifted
least-squares and Jacobian-linearization baselines, including closed-loop
tests with a strictly-NI positive-position-feedback controller.
"""

from .analysis import (
    CandidateModel,
    ValidationReport,
    compare_models,
    linearize_msd,
    mse,
    step_response,
)
from .dynamics import (
    InputSignal,
    MsdParams,
    TrajectoryData,
    check_dissipation,
    make_input,
    simulate,
    storage_value,
)
from .identify import (
    EdmdSolution,
    NiProgramSolution,
    complete_certificate,
    edmd_fit,
    identify_ni,
    identify_unconstrained,
    simulate_lifted,
    solve_ni,
)
from .lifting import (
    DataMatrices,
    LiftingDictionary,
    build_matrices,
    make_dictionary,
    sample_centers,
)
from .nicore import (
    ContinuousLinearModel,
    DiscreteLinearModel,
    PpfController,
    discrete_ni_residuals,
    freq_response,
    ni_frequency_check,
    positive_feedback,
    ppf_realize,
    to_continuous,
    to_discrete,
)
from .tolerances import TOL, Tolerances

__all__ = [
    "TOL",
    "Tolerances",
    "MsdParams",
    "InputSignal",
    "TrajectoryData",
    "simulate",
    "make_input",
    "storage_value",
    "check_dissipation",
    "LiftingDictionary",
    "DataMatrices",
    "sample_centers",
    "make_dictionary",
    "build_matrices",
    "DiscreteLinearModel",
    "ContinuousLinearModel",
    "PpfController",
    "to_continuous",
    "to_discrete",
    "discrete_ni_residuals",
    "freq_response",
    "ni_frequency_check",
    "ppf_realize",
    "positive_feedback",
    "EdmdSolution",
    "edmd_fit",
    "NiProgramSolution",
    "solve_ni",
    "complete_certificate",
    "identify_ni",
    "identify_unconstrained",
    "simulate_lifted",
    "linearize_msd",
    "mse",
    "step_response",
    "CandidateModel",
    "compare_models",
    "ValidationReport",
]

__version__ = "0.1.0"
