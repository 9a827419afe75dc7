"""One input contract: the config parser and every library entry point that
takes a coupling or a noise level reject the same values, with
`ValidationError`; the state optimizer meets a flat objective exactly where
the indicator bound is 0.0; an entry point that needs one coupling per meter
rejects a coupling stack with `ValidationError`; an operand that is not
numbers at all is rejected with `ValidationError` naming it, and so is a
Hermitian operand with a nan or inf entry, and a grid meter whose function
is not finite at a shifted point."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cheshire import (
    JointMeterState,
    NoiseModel,
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    cheshire_analytic,
    classical_mixture_density,
    embed,
    failure_density,
    gram_orthonormalize,
    grid_moments,
    indicator_bound,
    local_averages,
    meter_negativity,
    moment_decomposition,
    noise_robustness,
    optimize_states,
    parse_config_text,
    sample_estimate,
    sample_trials,
    success_moments,
    trial_variance,
    weak_values,
)
from cheshire.errors import FlatObjective, ValidationError
from cheshire.meter import MAX_READOUT_SCALE, Grid, GridMeter, gaussian_ground_state

CONFIG = """
prep = 0.57735026918962573+0i, 0+0i, 0.57735026918962573+0i, 0.57735026918962573+0i
post = 0.57735026918962573+0i, 0+0i, 0.57735026918962573+0i, -0.57735026918962573+0i
"""
CONFIG_CASE = parse_config_text(CONFIG)
K = CONFIG_CASE.coherence()
WEIGHTS = CONFIG_CASE.weights()
TINY_GRID = Grid(-6.0, 6.0, 25)

# every special float, and both sides of the bound, beside hypothesis's own
# choice of floats (which favours the same kinds of values)
SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e3,
            MAX_READOUT_SCALE, math.nextafter(MAX_READOUT_SCALE, math.inf), 1.7976931348623157e308]
values = st.one_of(st.sampled_from(SPECIALS), st.floats())


def rejects(compute) -> bool:
    """Whether compute() raises ValidationError; any other error propagates."""
    try:
        compute()
    except ValidationError:
        return True
    return False


def outcome(compute):
    """The type of the typed error compute() raises, or None."""
    try:
        compute()
    except (ValidationError, FlatObjective) as exc:
        return type(exc)
    return None


def coupling_entry_points(g_a, g_b):
    """Every public call that takes the couplings, with (g_a, g_b)."""
    p = (K, WEIGHTS)
    return {
        "cheshire_analytic": lambda: cheshire_analytic(CONFIG_CASE.post, CONFIG_CASE.prep, g_a, g_b),
        "indicator_bound": lambda: indicator_bound(g_a, g_b),
        "success_moments": lambda: success_moments(K, g_a, g_b),
        "local_averages": lambda: local_averages(K, g_a, g_b),
        "moment_decomposition": lambda: moment_decomposition(JointMeterState(K, g_a, g_b)),
        "grid_moments": lambda: grid_moments(JointMeterState(K, g_a, g_b), TINY_GRID),
        "classical_mixture_density": lambda: classical_mixture_density(WEIGHTS, g_a, g_b, TINY_GRID),
        "failure_density": lambda: failure_density(*p, g_a, g_b, TINY_GRID),
        "embed": lambda: embed(JointMeterState(K, g_a, g_b)),
        "meter_negativity": lambda: meter_negativity(JointMeterState(K, g_a, g_b)),
        "sample_trials": lambda: sample_trials(*p, g_a, g_b, n=64, seed=0),
        "sample_estimate": lambda: sample_estimate(*p, g_a, g_b, n=64, seed=0),
        "trial_variance": lambda: trial_variance(*p, g_a, g_b),
        "noise_robustness": lambda: noise_robustness(*p, g_a, g_b, [(0.0, 0.0)], n=64),
        "optimize_states": lambda: optimize_states(g_a, g_b),
    }


@pytest.mark.parametrize("field", ["g_a", "g_b"])
@given(value=values)
def test_couplings_rejected_alike(field, value):
    config_rejects = rejects(lambda: parse_config_text(CONFIG + f"{field} = {value!r}\n"))
    couplings = (value, 2.0) if field == "g_a" else (2.0, value)
    for name, compute in coupling_entry_points(*couplings).items():
        expected = ValidationError if config_rejects else None
        if name == "optimize_states" and not config_rejects and indicator_bound(*couplings) == 0.0:
            # C is 0.0 for every state there: a flat objective, not bad input
            expected = FlatObjective
        assert outcome(compute) is expected, name


# values no config text can hold: numpy orders complex numbers and counts
# bools as 0 and 1, and str or None fail numpy's comparison untyped
NON_REALS = [1 + 0j, 2j, "2", None, True, np.float64(2.0) + 0j]


@pytest.mark.parametrize("field", ["g_a", "g_b"])
@pytest.mark.parametrize("value", NON_REALS, ids=repr)
def test_non_real_couplings_rejected_alike(field, value):
    couplings = (value, 2.0) if field == "g_a" else (2.0, value)
    for name, compute in coupling_entry_points(*couplings).items():
        assert outcome(compute) is ValidationError, name


@pytest.mark.parametrize("value", NON_REALS + [np.array([0.1, 0.2])], ids=repr)
def test_non_real_noise_levels_rejected(value):
    for levels in ((value, 0.0), (0.0, value)):
        with pytest.raises(ValidationError, match="finite real"):
            NoiseModel(*levels)


@pytest.mark.parametrize("field", ["noise_a", "noise_b"])
@given(value=values)
def test_noise_levels_rejected_alike(field, value):
    config_rejects = rejects(lambda: parse_config_text(CONFIG + f"{field} = {value!r}\n"))
    levels = (value, 0.0) if field == "noise_a" else (0.0, value)
    assert rejects(lambda: NoiseModel(*levels)) == config_rejects
    assert rejects(lambda: noise_robustness(K, WEIGHTS, 2.0, 2.0, [levels], n=64)) == config_rejects


def test_largest_scales_stay_finite():
    # at the bound on every scale at once the readouts, the estimate and the
    # exact variance are finite, with no overflow on the way
    top = MAX_READOUT_SCALE
    noise = NoiseModel(top, top)
    estimate = sample_estimate(K, WEIGHTS, top, top, n=1 << 12, seed=0, noise=noise)
    assert all(map(math.isfinite, (estimate.c_hat, estimate.std_error)))
    assert math.isfinite(trial_variance(K, WEIGHTS, top, top, noise))
    assert np.isfinite(local_averages(K, top, top)).all()


SCALAR_ONLY = ["local_averages", "grid_moments", "classical_mixture_density", "failure_density",
               "sample_trials", "sample_estimate", "noise_robustness", "optimize_states"]


@pytest.mark.parametrize("name", SCALAR_ONLY)
@pytest.mark.parametrize("couplings", [(np.array([1.0, 2.0]), 2.0), (2.0, np.array([[2.0]]))],
                         ids=["stacked-g_a", "stacked-g_b"])
def test_coupling_stacks_rejected_where_one_per_meter_is_needed(name, couplings):
    with pytest.raises(ValidationError, match="needs one coupling per meter"):
        coupling_entry_points(*couplings)[name]()


STACKED = ["cheshire_analytic", "indicator_bound", "success_moments", "moment_decomposition",
           "embed", "meter_negativity", "trial_variance"]


@pytest.mark.parametrize("name", STACKED)
def test_stacks_that_do_not_broadcast_rejected(name):
    with pytest.raises(ValidationError, match="do not broadcast"):
        coupling_entry_points(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))[name]()


def test_noise_study_rejects_a_stack_before_any_row():
    with pytest.raises(ValidationError, match="needs one coupling per meter"):
        noise_robustness(K, WEIGHTS, np.array([1.0, 2.0]), 2.0, [], n=64)


def test_trial_variance_is_elementwise_over_stacks():
    noise = NoiseModel(0.7, 0.3)
    g_a, g_b = np.array([[0.0, 1.0, 2.0]]), np.array([[0.5], [3.0]])
    stacked = trial_variance(K, WEIGHTS, g_a, g_b, noise)
    a, b = np.broadcast_arrays(g_a, g_b)
    scalar = [trial_variance(K, WEIGHTS, float(x), float(y), noise) for x, y in zip(a.flat, b.flat)]
    assert stacked.shape == (2, 3)
    assert stacked.ravel().tolist() == scalar
    # nested lists are stacks too, as for `success_moments` and `indicator_bound`
    assert trial_variance(K, WEIGHTS, g_a.tolist(), g_b.tolist(), noise).tolist() == stacked.tolist()


# operands numpy cannot read as complex numbers, with the name each error gives
NON_NUMERIC_OPERANDS = [
    pytest.param(lambda: PhotonKet("abcd"), "amplitudes", id="PhotonKet-str"),
    pytest.param(lambda: PhotonKet(object()), "amplitudes", id="PhotonKet-object"),
    pytest.param(lambda: PhotonKet.normalized("x"), "amplitudes", id="PhotonKet.normalized"),
    pytest.param(lambda: PhotonDensity([["a"] * 4] * 4), "density matrix", id="PhotonDensity"),
    pytest.param(lambda: PhotonEffect([["a"] * 4] * 4), "effect", id="PhotonEffect"),
    pytest.param(lambda: JointMeterState("k", 1.0, 1.0), "branch coherence", id="JointMeterState"),
    pytest.param(lambda: gram_orthonormalize("x"), "gram matrix", id="gram_orthonormalize"),
]


@pytest.mark.parametrize("compute, operand", NON_NUMERIC_OPERANDS)
def test_non_numeric_operands_rejected(compute, operand):
    with pytest.raises(ValidationError, match=f"^{operand} must be complex numbers"):
        compute()


# branch coherences with a non-finite entry, as matrices and as amplitudes
NON_FINITE_COHERENCES = [
    pytest.param(np.full((3, 3), math.nan), id="nan"),
    pytest.param(np.full((3, 3), math.inf), id="inf"),
    pytest.param(np.where(np.eye(3) == 1, complex(0.0, math.inf), K), id="inf-imaginary"),
    pytest.param(TransitionAmplitudes(math.nan, 0.5, 0.5), id="nan-amplitudes"),
]


def coherence_entry_points(k):
    """Public calls that take the branch coherence, with k."""
    return {
        "JointMeterState": lambda: JointMeterState(k, 1.0, 1.0),
        "success_moments": lambda: success_moments(k, 1.0, 1.0),
        "local_averages": lambda: local_averages(k, 1.0, 1.0),
        "weak_values": lambda: weak_values(k),
        "trial_variance": lambda: trial_variance(k, WEIGHTS, 1.0, 1.0),
        "meter_negativity": lambda: meter_negativity(JointMeterState(k, 1.0, 1.0)),
    }


@pytest.mark.parametrize("k", NON_FINITE_COHERENCES)
@pytest.mark.parametrize("name", list(coherence_entry_points(K)))
def test_non_finite_coherence_rejected(name, k):
    # a typed error, not a nan result, a RuntimeWarning or numpy's LinAlgError
    with pytest.raises(ValidationError, match="^branch coherence must be finite$"):
        coherence_entry_points(k)[name]()


def test_validated_coherence_is_read_only():
    k = K.copy()
    for source in (k, TransitionAmplitudes(0.5, 0.25, -0.25)):
        coherence = JointMeterState(source, 1.0, 1.0).coherence
        with pytest.raises(ValueError, match="read-only"):
            coherence[0, 0] = math.nan
    # the caller's own K is copied, not frozen
    assert k.flags.writeable


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)], ids=repr)
def test_non_finite_gram_matrix_rejected(value):
    gram = np.eye(3, dtype=complex)
    gram[1, 1] = value
    with pytest.raises(ValidationError, match="^gram matrix must be finite$"):
        gram_orthonormalize(gram)
    with pytest.raises(ValidationError, match="^gram matrix must be finite$"):
        gram_orthonormalize(np.stack([np.eye(3), gram]))


def nan_past_the_left_edge(x):
    """The Gaussian pointer, finite on DEFAULT_GRID but nan left of it."""
    return np.where(x < -20.0, np.nan, gaussian_ground_state(x))


@pytest.mark.parametrize("compute", [moment_decomposition, meter_negativity, grid_moments],
                         ids=lambda compute: compute.__name__)
def test_non_finite_pointer_values_rejected(compute):
    # psi0 is finite on the grid; the wave shifted by g_A = 2 is not
    state = JointMeterState(K, 2.0, 2.0, GridMeter(nan_past_the_left_edge))
    with pytest.raises(ValidationError,
                       match="^pointer function must be finite at every shifted point$"):
        compute(state)
