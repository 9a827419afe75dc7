"""Simulator for a single particle in a path superposition coupled to two
spatially separated meters, with postselection.

The package quantifies how postselection builds entanglement between the
two meters through the signed cross-moment indicator C = <tau x y>
(tau = +-1 for postselection success/failure): exactly for Gaussian
pointer states, numerically for any pointer function sampled on a grid, and
statistically from seeded Monte Carlo trials.  A positive check against
the PPT negativity of the embedded two-meter state certifies that a
nonzero indicator really is entanglement.
"""

from .config import ExperimentConfig, dump_config, load_config, parse_config_text
from .dynamics import (
    BranchWeights,
    JointMeterState,
    SuccessMoments,
    classical_mixture_density,
    failure_density,
    grid_moments,
    success_moments,
)
from .entanglement import (
    EmbeddedMeterState,
    NegativityReport,
    embed,
    gram_orthonormalize,
    meter_negativity,
    negativity,
)
from .errors import (
    CheshireError,
    ConsistencyError,
    FlatObjective,
    GridTooSmall,
    OrthogonalPostselection,
    PositivityError,
    ValidationError,
)
from .indicator import (
    OPTIMAL_COUPLING,
    CheshireResult,
    CouplingOptimum,
    MomentDecomposition,
    StateOptimum,
    cheshire_analytic,
    indicator_bound,
    local_averages,
    moment_decomposition,
    optimize_couplings,
    optimize_states,
)
from .meter import (
    DEFAULT_GRID,
    Grid,
    GridMeter,
    format_complex,
    gaussian_ground_state,
    parse_complex,
)
from .qsystem import (
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    WeakValues,
    transition_amplitudes,
    weak_values,
)
from .sampler import (
    EstimatorOutput,
    NoiseModel,
    NoiseStudyRow,
    Trials,
    estimate_cheshire,
    max_threads,
    noise_robustness,
    sample_estimate,
    sample_trials,
    trial_variance,
    write_trials_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BranchWeights",
    "CheshireError",
    "CheshireResult",
    "ConsistencyError",
    "CouplingOptimum",
    "DEFAULT_GRID",
    "EmbeddedMeterState",
    "EstimatorOutput",
    "ExperimentConfig",
    "FlatObjective",
    "Grid",
    "GridMeter",
    "GridTooSmall",
    "JointMeterState",
    "MomentDecomposition",
    "NegativityReport",
    "NoiseModel",
    "NoiseStudyRow",
    "OPTIMAL_COUPLING",
    "OrthogonalPostselection",
    "PhotonDensity",
    "PhotonEffect",
    "PhotonKet",
    "PositivityError",
    "StateOptimum",
    "SuccessMoments",
    "TransitionAmplitudes",
    "Trials",
    "ValidationError",
    "WeakValues",
    "cheshire_analytic",
    "classical_mixture_density",
    "dump_config",
    "embed",
    "estimate_cheshire",
    "failure_density",
    "format_complex",
    "gaussian_ground_state",
    "gram_orthonormalize",
    "grid_moments",
    "indicator_bound",
    "load_config",
    "local_averages",
    "max_threads",
    "meter_negativity",
    "moment_decomposition",
    "negativity",
    "noise_robustness",
    "optimize_couplings",
    "optimize_states",
    "parse_complex",
    "parse_config_text",
    "sample_estimate",
    "sample_trials",
    "success_moments",
    "transition_amplitudes",
    "trial_variance",
    "weak_values",
    "write_trials_csv",
]
