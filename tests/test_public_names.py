"""The package's public names, pinned: adding or removing an export has to
show up as an edit of this list."""

import cheshire

PUBLIC_NAMES = [
    "BASIS_LABELS", "BranchWeights", "CheshireError", "CheshireResult", "ConsistencyError",
    "CouplingOptimum", "DEFAULT_GRID", "EmbeddedMeterState", "EstimatorOutput",
    "ExperimentConfig", "FlatObjective", "Grid", "GridMeter", "GridTooSmall",
    "JointMeterState", "MomentDecomposition", "NegativityReport", "NoiseModel", "NoiseStudyRow",
    "OPTIMAL_COUPLING", "OrthogonalPostselection", "PhotonDensity", "PhotonEffect", "PhotonKet",
    "PositivityError", "StateOptimum", "SuccessMoments", "TransitionAmplitudes", "Trials",
    "ValidationError", "WeakValues", "cheshire_analytic", "classical_mixture_density",
    "dump_config", "embed", "estimate_cheshire", "failure_density", "format_complex",
    "gaussian_ground_state", "gram_orthonormalize", "grid_moments", "indicator_bound",
    "load_config", "local_averages", "max_threads", "meter_negativity", "moment_decomposition",
    "negativity", "noise_robustness", "optimize_couplings", "optimize_states", "parse_complex",
    "parse_config_text", "sample_estimate", "sample_trials", "success_moments", "trace_term",
    "transition_amplitudes", "trial_variance", "weak_values", "write_trials_csv",
]


def test_exports_are_the_pinned_names():
    assert len(PUBLIC_NAMES) == 61
    assert len(set(cheshire.__all__)) == len(cheshire.__all__)
    assert sorted(cheshire.__all__) == PUBLIC_NAMES


def test_every_export_resolves():
    for name in cheshire.__all__:
        assert getattr(cheshire, name) is not None, name
