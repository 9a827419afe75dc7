"""Success branch, success probability, and failure-branch density."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheshire import dynamics
from cheshire.dynamics import (
    POSITIVITY_TOL,
    REALIZABILITY_TOL,
    BranchWeights,
    JointMeterState,
    _check_realizable,
    classical_mixture_density,
    failure_density,
    grid_moments,
    success_moments,
)
from cheshire.errors import PositivityError, ValidationError
from cheshire.meter import Grid, GridMeter, gaussian_ground_state
from cheshire.qsystem import PhotonKet, TransitionAmplitudes, transition_amplitudes

from conftest import failed_state, unit_kets

EXAMPLE_AMPS = TransitionAmplitudes(1 / 3, 1 / 3, -1 / 3)
P_EXAMPLE_G2 = 0.3032588259474194  # 1/3 - (2/9) e^{-2}

SMALL_GRID = Grid(-12.0, 12.0, 1201)

couplings = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


class TestBranchWeights:
    def test_from_preparation(self, example_prep):
        w = BranchWeights.from_preparation(example_prep)
        assert np.isclose(w.a, 1 / math.sqrt(3))
        assert np.isclose(w.b, 1 / math.sqrt(3))
        assert np.isclose(w.c, 1 / math.sqrt(3))

    def test_left_weight_collects_both_polarizations(self):
        prep = PhotonKet.normalized([1.0, 1.0, 1.0, 1.0])
        w = BranchWeights.from_preparation(prep)
        assert np.isclose(w.a, math.sqrt(0.5))
        assert np.isclose(sum(w.probabilities), 1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            BranchWeights(1.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            BranchWeights.from_preparation(PhotonKet([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("weights", [(math.nan, 0.0, 0.0), (0.0, complex(math.nan, 0.0), 0.0),
                                         (1.0, 0.0, math.inf)], ids=["nan", "nan-complex", "inf"])
    def test_rejects_non_finite(self, weights):
        # a nan norm fails the norm test as any other norm off 1 does
        with pytest.raises(ValidationError, match="norm"):
            BranchWeights(*weights)


class TestSuccessProbability:
    def test_zero_coupling_is_overlap_squared(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        p = success_moments(amps, 0.0, 0.0).norm
        assert np.isclose(p, abs(np.vdot(example_post.amplitudes, example_prep.amplitudes)) ** 2, atol=1e-14)
        assert np.isclose(p, 1.0 / 9.0, atol=1e-14)

    def test_infinite_coupling_kills_cross_terms(self):
        # the strong limit is exact in double precision from g = 78 on
        p = success_moments(EXAMPLE_AMPS, 1e3, 1e3).norm
        assert np.isclose(p, 1.0 / 3.0, atol=1e-15)

    def test_example_closed_form(self):
        assert np.isclose(success_moments(EXAMPLE_AMPS, 2.0, 2.0).norm, P_EXAMPLE_G2, atol=1e-15)

    def test_matches_grid_oracle(self):
        state = JointMeterState(EXAMPLE_AMPS, 2.0, 2.0)
        assert abs(grid_moments(state).norm - P_EXAMPLE_G2) < 1e-8

    def test_inconsistent_amplitudes_returned_unclamped(self):
        # no physical pair gives these amplitudes; P is returned as computed
        assert success_moments(TransitionAmplitudes(1.0, 1.0, 0.0), 0.1, 0.1).norm > 1.0

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValidationError):
            success_moments(EXAMPLE_AMPS, -1.0, 2.0)

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    def test_bounded_for_physical_inputs(self, prep, post, g_a, g_b):
        # P is not clamped, so rounding can leave [0, 1]: 1.0000000000000004 at
        # g = 0 for prep = post = (0.8, 0.6, 0, 0)
        p = success_moments(transition_amplitudes(prep, post), g_a, g_b).norm
        assert -1e-10 <= p <= 1.0 + 1e-10


class TestSuccessMoments:
    def test_example_values(self):
        m = success_moments(EXAMPLE_AMPS, 2.0, 2.0)
        assert np.isclose(m.norm, P_EXAMPLE_G2, atol=1e-15)
        assert np.isclose(m.x, 2.0 / 9.0, atol=1e-15)
        assert np.isclose(m.y, (4.0 / 9.0) / math.e, atol=1e-15)
        assert np.isclose(m.xy, (4.0 / 9.0) / math.e, atol=1e-15)

    def test_matches_grid_oracle(self):
        state = JointMeterState(EXAMPLE_AMPS, 2.0, 2.0)
        grid = grid_moments(state)
        closed = success_moments(EXAMPLE_AMPS, 2.0, 2.0)
        assert abs(grid.norm - closed.norm) < 1e-8
        assert abs(grid.x - closed.x) < 1e-8
        assert abs(grid.y - closed.y) < 1e-8
        assert abs(grid.xy - closed.xy) < 1e-8

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    @settings(max_examples=25)
    def test_random_states_match_grid(self, prep, post, g_a, g_b):
        amps = transition_amplitudes(prep, post)
        closed = success_moments(amps, g_a, g_b)
        state = JointMeterState(amps, g_a, g_b)
        grid = grid_moments(state, SMALL_GRID)
        assert abs(grid.norm - closed.norm) < 1e-8
        assert abs(grid.xy - closed.xy) < 1e-8

    @pytest.mark.parametrize("shape_a, shape_b", [((0,), (0,)), ((7,), (7,)), ((), (7,)),
                                                  ((2, 3), (3,)), ((4, 1), (1, 5))])
    def test_stack_matches_scalar_calls(self, shape_a, shape_b):
        # each entry of a stacked call is the scalar call at its couplings,
        # repr for repr, on a random Hermitian K that need not be realizable
        rng = np.random.default_rng(len(shape_a) + len(shape_b))
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        k = m @ m.conj().T
        specials = [0.0, -0.0, 0.3, 2.0, 77.5, 78.0, 1e3]
        g_a = rng.choice(specials, size=shape_a)
        g_b = rng.uniform(0.0, 8.0, size=shape_b)
        stacked = success_moments(k, g_a, g_b)
        shape = np.broadcast_shapes(shape_a, shape_b)
        for field in ("norm", "x", "y", "xy"):
            values = np.asarray(getattr(stacked, field))
            assert values.shape == shape
            for i in np.ndindex(shape):
                a, b = np.broadcast_to(g_a, shape)[i].item(), np.broadcast_to(g_b, shape)[i].item()
                assert repr(values[i].item()) == repr(getattr(success_moments(k, a, b), field))


class TestJointMeterState:
    def test_zero_coupling_factorizes(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        state = JointMeterState(amps, 0.0, 0.0)
        x = np.linspace(-3, 3, 7)
        density = state.density(x, x)
        expected = amps.total * np.outer(gaussian_ground_state(x), gaussian_ground_state(x))
        assert np.allclose(density, np.abs(expected) ** 2, atol=1e-15)

    def test_pointwise_formula(self):
        state = JointMeterState(EXAMPLE_AMPS, 2.0, 1.0)
        x, y = 0.7, -0.4
        expected = (
            EXAMPLE_AMPS.l * gaussian_ground_state(x - 2.0) * gaussian_ground_state(y)
            + EXAMPLE_AMPS.r_plus * gaussian_ground_state(x) * gaussian_ground_state(y - 1.0)
            + EXAMPLE_AMPS.r_minus * gaussian_ground_state(x) * gaussian_ground_state(y + 1.0)
        )
        assert np.isclose(state.density(x, y)[0, 0], abs(expected) ** 2, atol=1e-15)

    @pytest.mark.parametrize("meter", ["gauss", 1.0, GridMeter.gaussian], ids=repr)
    def test_rejects_a_meter_that_is_not_a_grid_meter(self, meter):
        # when the state is built, not when its matrices are first read
        with pytest.raises(ValidationError, match="expected None or a GridMeter, got"):
            JointMeterState(EXAMPLE_AMPS, 1.0, 1.0, meter)

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    @settings(max_examples=40)
    def test_readout_plane_is_linear_in_coherence(self, prep, post, g_a, g_b):
        # K and diag(p) - K add up to diag(p) in every moment, x and y too
        amps = transition_amplitudes(prep, post)
        weights = BranchWeights.from_preparation(prep)
        mixture = JointMeterState(np.diag(weights.probabilities), g_a, g_b)
        success, failed, classical = (grid_moments(state, SMALL_GRID) for state in (
            JointMeterState(amps, g_a, g_b), failed_state(amps, weights, g_a, g_b), mixture))
        for field in ("norm", "x", "y", "xy"):
            total = getattr(success, field) + getattr(failed, field)
            assert abs(total - getattr(classical, field)) < 1e-12

    def test_grid_meter_state_matches_gaussian(self):
        meter = GridMeter.gaussian()
        state = JointMeterState(EXAMPLE_AMPS, 2.0, 2.0, meter)
        assert abs(grid_moments(state).norm - P_EXAMPLE_G2) < 1e-8

    def test_pointer_matrices_summed_once_and_read_only(self):
        g = np.array([0.0, 1.0, 2.0])
        state = JointMeterState(EXAMPLE_AMPS, g, 2.0, GridMeter.gaussian())
        matrices = state.pointer_matrices
        assert state.pointer_matrices is matrices
        closed = JointMeterState(EXAMPLE_AMPS, g, 2.0).pointer_matrices
        for grid_pair, closed_pair in zip(matrices, closed):
            for m, exact in zip(grid_pair, closed_pair):
                assert np.allclose(m, exact, atol=1e-12)
                with pytest.raises(ValueError):
                    m[..., 0, 0] = 0.0
        assert matrices[0][0].shape == (3, 3, 3) and matrices[1][0].shape == (3, 3)


class TestClassicalMixture:
    def test_density_integrates_to_one(self):
        w = BranchWeights(0.6, 0.8j, 0.0)
        p = classical_mixture_density(w, 2.0, 2.0, SMALL_GRID)
        dx = SMALL_GRID.spacing
        assert np.isclose(np.trapezoid(np.trapezoid(p, dx=dx), dx=dx), 1.0, atol=1e-10)


class TestFailureDensity:
    def test_example_partition(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        weights = BranchWeights.from_preparation(example_prep)
        density = failure_density(amps, weights, 2.0, 2.0, SMALL_GRID)
        failed = grid_moments(failed_state(amps, weights, 2.0, 2.0), SMALL_GRID)
        assert abs(failed.norm - (1.0 - P_EXAMPLE_G2)) < 1e-8
        assert density.min() >= -POSITIVITY_TOL
        assert not density.flags.writeable

    def test_cross_moment_antisymmetry(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        weights = BranchWeights.from_preparation(example_prep)
        failed = grid_moments(failed_state(amps, weights, 2.0, 2.0), SMALL_GRID)
        success_xy = success_moments(amps, 2.0, 2.0).xy
        assert abs(failed.xy + success_xy) < 1e-8

    def test_certain_failure_is_left_branch_density(self):
        # preparation entirely in the left arm, postselection orthogonal
        weights = BranchWeights(1.0, 0.0, 0.0)
        amps = TransitionAmplitudes(0.0, 0.0, 0.0)
        density = failure_density(amps, weights, 2.0, 1.0, SMALL_GRID)
        failed = grid_moments(failed_state(amps, weights, 2.0, 1.0), SMALL_GRID)
        assert abs(failed.norm - 1.0) < 1e-8
        x = SMALL_GRID.points
        expected = np.outer(gaussian_ground_state(x - 2.0) ** 2, gaussian_ground_state(x) ** 2)
        assert np.allclose(density, expected, atol=1e-12)

    def test_identical_states_weak_limit(self, example_prep):
        amps = transition_amplitudes(example_prep, example_prep)
        weights = BranchWeights.from_preparation(example_prep)
        failure_density(amps, weights, 0.01, 0.01, SMALL_GRID)
        assert grid_moments(failed_state(amps, weights, 0.01, 0.01), SMALL_GRID).norm < 1e-4

    @pytest.mark.parametrize("delta", [3e-10, 8e-10, 0.99 * REALIZABILITY_TOL])
    def test_negative_values_of_realizable_coherence_are_returned(self, example_prep, delta):
        # K = (1 + delta) diag(p) passes the realizability check for delta <
        # REALIZABILITY_TOL, and its failure density -delta p_cl dips below 0,
        # past -POSITIVITY_TOL for the larger delta: the values come back as
        # computed
        weights = BranchWeights.from_preparation(example_prep)
        k = (1.0 + delta) * np.diag(weights.probabilities)
        density = failure_density(k, weights, 0.0, 0.0, SMALL_GRID)
        p_cl = classical_mixture_density(weights, 0.0, 0.0, SMALL_GRID)
        assert density.min() < 0.0
        assert np.allclose(density, -delta * p_cl, rtol=1e-6, atol=0.0)
        failed = grid_moments(failed_state(k, weights, 0.0, 0.0), SMALL_GRID)
        assert abs(failed.norm + delta) < 1e-15

    def test_negative_values_beyond_realizability_slack_raise(self, example_prep, monkeypatch):
        # the check stops such K first; without it the density check still fires
        monkeypatch.setattr(dynamics, "_check_realizable", lambda coherence, weights: None)
        weights = BranchWeights.from_preparation(example_prep)
        k = (1.0 + 2.0 * REALIZABILITY_TOL) * np.diag(weights.probabilities)
        with pytest.raises(PositivityError):
            failure_density(k, weights, 0.0, 0.0, SMALL_GRID)

    def test_unrealizable_amplitudes_rejected(self):
        weights = BranchWeights.from_preparation(PhotonKet.normalized([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValidationError):
            failure_density(TransitionAmplitudes(0.9, 1 / 3, -1 / 3), weights, 2.0, 2.0, SMALL_GRID)

    def test_zero_weight_branch_with_amplitude_rejected(self):
        weights = BranchWeights(1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            failure_density(TransitionAmplitudes(0.5, 0.5, 0.0), weights, 1.0, 1.0, SMALL_GRID)

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    @settings(max_examples=25)
    def test_partition_and_positivity(self, prep, post, g_a, g_b):
        amps = transition_amplitudes(prep, post)
        weights = BranchWeights.from_preparation(prep)
        density = failure_density(amps, weights, g_a, g_b, SMALL_GRID)
        p = success_moments(amps, g_a, g_b).norm
        assert density.min() >= -POSITIVITY_TOL
        failed = grid_moments(failed_state(amps, weights, g_a, g_b), SMALL_GRID)
        assert abs(failed.norm - (1.0 - p)) < 1e-8


def coherence_with_spectrum(eigenvalues, weights, rng):
    """K = D^(1/2) U diag(eigenvalues) U^dagger D^(1/2), D = diag(p), for a
    random unitary U: the scaled coherence M then has the given spectrum."""
    unitary, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    m = (unitary * np.asarray(eigenvalues)) @ unitary.conj().T
    root = np.sqrt(weights.probabilities)
    k = m * np.outer(root, root)
    return 0.5 * (k + k.conj().T)


class TestRealizability:
    """`_check_realizable` decides by Cholesky factorization without
    LAPACK; the eigenvalues of M = D^(-1/2) K D^(-1/2) are the reference."""

    WEIGHTS = [BranchWeights(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3)),
               BranchWeights.from_preparation(PhotonKet.normalized([1.0, 0.5j, 2.0, -0.7]))]

    @pytest.mark.parametrize("weights", WEIGHTS, ids=["uniform", "skewed"])
    @pytest.mark.parametrize("spectrum, accepted", [
        ((0.2, 0.6, 1.0 + 5e-10), True),
        ((-5e-10, 0.3, 0.9), True),
        ((0.2, 0.6, 1.0 + 2e-9), False),
        ((-2e-9, 0.3, 0.9), False),
        ((0.0, 0.0, 1.0), True),
    ])
    def test_edges(self, weights, spectrum, accepted):
        k = coherence_with_spectrum(spectrum, weights, np.random.default_rng(3))
        if accepted:
            _check_realizable(k, weights)
        else:
            with pytest.raises(ValidationError, match="outside"):
                _check_realizable(k, weights)

    def test_pure_budget_edge(self):
        weights = self.WEIGHTS[0]
        # budget (amp / weight)^2 = 1 + 4e-10, inside REALIZABILITY_TOL
        _check_realizable(TransitionAmplitudes(1.0000000002 / math.sqrt(3), 0.0, 0.0), weights)
        with pytest.raises(ValidationError):
            _check_realizable(TransitionAmplitudes(1.000000002 / math.sqrt(3), 0.0, 0.0), weights)

    def test_agrees_with_eigenvalues_on_random_coherences(self):
        rng = np.random.default_rng(2026)
        decided = {True: 0, False: 0}
        for _ in range(400):
            amplitudes = rng.normal(size=3) + 1j * rng.normal(size=3)
            weights = BranchWeights(*amplitudes / np.linalg.norm(amplitudes))
            spectrum = rng.uniform(-0.2, 1.2, size=3)
            k = coherence_with_spectrum(spectrum, weights, rng)
            p = np.array(weights.probabilities)
            eigenvalues = np.linalg.eigvalsh(k / np.sqrt(np.outer(p, p)))
            if min(abs(eigenvalues[0] + REALIZABILITY_TOL),
                   abs(eigenvalues[-1] - 1.0 - REALIZABILITY_TOL)) < 1e-12:
                continue
            expected = (eigenvalues[0] >= -REALIZABILITY_TOL
                        and eigenvalues[-1] <= 1.0 + REALIZABILITY_TOL)
            try:
                _check_realizable(k, weights)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == expected
            decided[accepted] += 1
        assert min(decided.values()) > 50

    def test_nan_rejected(self):
        k = np.full((3, 3), np.nan + 0j)
        with pytest.raises(ValidationError, match="non-finite"):
            _check_realizable(k, self.WEIGHTS[0])

    def test_passing_check_makes_no_lapack_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called on the passing path")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        _check_realizable(EXAMPLE_AMPS, self.WEIGHTS[0])
