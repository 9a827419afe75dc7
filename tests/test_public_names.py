"""The package's public names, pinned: adding or removing an export has to
show up as an edit of this list.  The result records are typed tuples with
these fields, in this order."""

import pytest

import cheshire

PUBLIC_NAMES = [
    "BranchWeights", "CheshireError", "CheshireResult", "ConsistencyError",
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
    "parse_config_text", "sample_estimate", "sample_trials", "success_moments",
    "transition_amplitudes", "trial_variance", "weak_values", "write_trials_csv",
]


def test_exports_are_the_pinned_names():
    assert len(PUBLIC_NAMES) == 59
    assert len(set(cheshire.__all__)) == len(cheshire.__all__)
    assert sorted(cheshire.__all__) == PUBLIC_NAMES


def test_every_export_resolves():
    for name in cheshire.__all__:
        assert getattr(cheshire, name) is not None, name


RECORD_FIELDS = {
    "TransitionAmplitudes": ("l", "r_plus", "r_minus"),
    "WeakValues": ("L_w", "Sigma_w"),
    "SuccessMoments": ("norm", "x", "y", "xy"),
    "MomentDecomposition": ("m_cl", "m_ent", "m_li"),
    "CheshireResult": ("c_value", "p_success", "trace_term"),
    "CouplingOptimum": ("g_a", "g_b", "c_value"),
    "StateOptimum": ("prep", "post", "c_value", "trace_term"),
    "EmbeddedMeterState": ("basis_a", "basis_b", "rho", "branch_norm_sq"),
    "NegativityReport": ("negativity", "min_pt_eigenvalue", "dim_a", "dim_b"),
    "EstimatorOutput": ("c_hat", "std_error", "p_hat", "n_trials"),
    "NoiseStudyRow": ("nu_a", "nu_b", "c_hat", "std_error", "n_required"),
}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_result_records_are_typed_tuples(name):
    record_type = getattr(cheshire, name)
    fields = RECORD_FIELDS[name]
    assert issubclass(record_type, tuple)
    assert record_type._fields == fields
    record = record_type(*range(len(fields)))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
