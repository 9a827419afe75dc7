"""Photon state, operator, and transition-amplitude layer."""

import numpy as np
import pytest
from hypothesis import given

from cheshire.errors import OrthogonalPostselection, ValidationError
from cheshire.indicator import cheshire_analytic
from cheshire.qsystem import (
    DIM,
    NORM_TOL,
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    transition_amplitudes,
    weak_values,
)

from conftest import projector, unit_kets

PI_L, PI_R_PLUS, PI_R_MINUS = projector(0, 1), projector(2), projector(3)
SIGMA_R = PI_R_PLUS - PI_R_MINUS


class TestOperators:
    def test_arm_projectors_partition_identity(self):
        assert np.allclose(PI_L + PI_R_PLUS + PI_R_MINUS, np.eye(DIM))

    def test_projectors_idempotent_orthogonal(self):
        for p in (PI_L, PI_R_PLUS, PI_R_MINUS):
            assert np.allclose(p @ p, p)
        assert np.allclose(PI_L @ PI_R_PLUS, 0.0)
        assert np.allclose(PI_L @ PI_R_MINUS, 0.0)
        assert np.allclose(PI_R_PLUS @ PI_R_MINUS, 0.0)

    def test_left_projector_rank_two(self):
        assert np.linalg.matrix_rank(PI_L) == 2
        assert np.linalg.matrix_rank(PI_R_PLUS) == 1
        assert np.linalg.matrix_rank(PI_R_MINUS) == 1

    def test_sigma_r_is_right_arm_polarization(self):
        assert np.allclose(SIGMA_R, PI_R_PLUS - PI_R_MINUS)
        assert np.allclose(SIGMA_R @ SIGMA_R, PI_R_PLUS + PI_R_MINUS)
        # sigma_R vanishes on the left arm
        assert np.allclose(SIGMA_R @ PI_L, 0.0)

    def test_constants_read_only(self):
        with pytest.raises(ValueError):
            PI_L[0, 0] = 5.0


class TestPhotonKet:
    def test_normalized_factory(self):
        ket = PhotonKet.normalized([3.0, 0.0, 4.0, 0.0])
        assert np.isclose(abs(ket.amplitudes[0]), 0.6)
        with pytest.raises(ValidationError):
            PhotonKet.normalized([0.0, 0.0, 0.0, 0.0])

    def test_unnormalized_flagged(self):
        # normalized by construction: norm^2 further than NORM_TOL from 1 fails
        with pytest.raises(ValidationError, match="norm"):
            PhotonKet([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="norm"):
            PhotonKet([np.sqrt(1.0 + 2.0 * NORM_TOL), 0.0, 0.0, 0.0])
        PhotonKet([np.sqrt(1.0 + 0.5 * NORM_TOL), 0.0, 0.0, 0.0])

    def test_amplitudes_read_only(self):
        ket = PhotonKet([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 2.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            PhotonKet([1.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            PhotonKet([np.nan, 0.0, 0.0, 0.0])

    def test_overlap_conjugate_linear(self):
        a = PhotonKet.normalized([1.0, 1j, 0.0, 0.0])
        b = PhotonKet.normalized([1.0, 0.0, 1.0, 0.0])
        assert np.isclose(np.vdot(a.amplitudes, b.amplitudes), np.conj(np.vdot(b.amplitudes, a.amplitudes)))

    def test_density_requires_normalization(self):
        with pytest.raises(ValidationError):
            PhotonDensity(np.outer([1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]))


class TestDensityAndEffect:
    def test_pure_density_valid(self):
        rho = PhotonDensity(PhotonKet.normalized([1.0, 2.0, 3.0, 4.0]).outer())
        assert np.isclose(np.trace(rho.matrix).real, 1.0)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            PhotonDensity(np.eye(DIM, dtype=complex))

    def test_density_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            PhotonDensity(m)

    def test_density_rejects_non_hermitian(self):
        m = np.eye(DIM, dtype=complex) / DIM
        m[0, 1] = 0.5
        with pytest.raises(ValidationError):
            PhotonDensity(m)

    def test_effect_accepts_projector(self):
        assert np.allclose(PhotonEffect(np.asarray(PI_L)).matrix, PI_L)

    def test_effect_rejects_eigenvalue_above_one(self):
        with pytest.raises(ValidationError):
            PhotonEffect(2.0 * np.eye(DIM, dtype=complex))

    def test_maximally_mixed_density(self):
        rho = PhotonDensity(np.eye(DIM, dtype=complex) / DIM)
        assert np.isclose(np.trace(rho.matrix).real, 1.0)

    def test_operands_in_any_memory_layout(self, example_prep):
        # a transposed (column-major) complex array is checked like any other
        m = np.asfortranarray(example_prep.outer())
        assert np.array_equal(PhotonDensity(m).matrix, PhotonDensity(m.copy(order="C")).matrix)
        assert np.array_equal(PhotonEffect(m).matrix, PhotonEffect(m.copy(order="C")).matrix)


class TestTransitionAmplitudes:
    def test_example_pair(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        assert np.isclose(amps.l, 1.0 / 3.0)
        assert np.isclose(amps.r_plus, 1.0 / 3.0)
        assert np.isclose(amps.r_minus, -1.0 / 3.0)
        assert np.isclose(amps.total, 1.0 / 3.0)
        assert np.isclose(amps.r_plus - amps.r_minus, 2.0 / 3.0)

    def test_requires_normalized_kets(self, example_prep):
        # an unnormalized ket fails before any amplitude is formed
        with pytest.raises(ValidationError):
            transition_amplitudes(PhotonKet([1.0, 1.0, 0.0, 0.0]), example_prep)
        with pytest.raises(ValidationError):
            transition_amplitudes(example_prep, PhotonKet([1.0, 1.0, 0.0, 0.0]))

    @given(prep=unit_kets(), post=unit_kets())
    def test_completeness_identity(self, prep, post):
        amps = transition_amplitudes(prep, post)
        assert np.isclose(amps.total, np.vdot(post.amplitudes, prep.amplitudes), atol=1e-12)

    @given(prep=unit_kets(), post=unit_kets())
    def test_matches_matrix_elements(self, prep, post):
        amps = transition_amplitudes(prep, post)
        phi = post.amplitudes
        psi = prep.amplitudes
        assert np.isclose(amps.l, phi.conj() @ PI_L @ psi, atol=1e-12)
        assert np.isclose(amps.r_plus, phi.conj() @ PI_R_PLUS @ psi, atol=1e-12)
        assert np.isclose(amps.r_minus, phi.conj() @ PI_R_MINUS @ psi, atol=1e-12)


class TestWeakValues:
    def test_example_pair(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        wv = weak_values(amps)
        assert np.isclose(wv.L_w, 1.0)
        assert np.isclose(wv.Sigma_w, 2.0)

    def test_cheshire_pair(self, cheshire_prep, cheshire_post):
        amps = transition_amplitudes(cheshire_prep, cheshire_post)
        wv = weak_values(amps)
        assert np.isclose(wv.L_w, 1.0)
        assert np.isclose(wv.Sigma_w, 1.0)

    def test_orthogonal_postselection_raises(self):
        amps = TransitionAmplitudes(0.5, -0.25, -0.25)
        with pytest.raises(OrthogonalPostselection):
            weak_values(amps)

    def test_identical_states_give_arm_weights(self, example_prep):
        amps = transition_amplitudes(example_prep, example_prep)
        wv = weak_values(amps)
        assert np.isclose(wv.L_w, 1.0 / 3.0)
        assert np.isclose(wv.Sigma_w, 0.0)

    @given(prep=unit_kets(), post=unit_kets())
    def test_weak_values_sum_rule(self, prep, post):
        # L_w + (R+)_w + (R-)_w = 1 whenever the overlap is not tiny
        amps = transition_amplitudes(prep, post)
        if abs(amps.total) < 1e-6:
            return
        wv = weak_values(amps)
        rw_sum = (amps.r_plus + amps.r_minus) / amps.total
        assert np.isclose(wv.L_w + rw_sum, 1.0, atol=1e-9)


def state_factor(E, rho) -> complex:
    """The indicator's state factor Tr(E sigma_R rho Pi_L), as the closed form
    reports it."""
    return cheshire_analytic(E, rho, 2.0, 2.0).trace_term


class TestTraceTerm:
    def test_example_value(self, example_prep, example_post):
        assert np.isclose(state_factor(example_post, example_prep), 2.0 / 9.0)

    def test_matches_amplitude_product(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        expected = (amps.r_plus - amps.r_minus) * np.conj(amps.l)
        assert np.isclose(state_factor(example_post, example_prep), expected)

    def test_accepts_density_and_effect(self, example_prep, example_post):
        value = state_factor(PhotonEffect(example_post.outer()), PhotonDensity(example_prep.outer()))
        assert np.isclose(value, 2.0 / 9.0)

    def test_zero_for_right_arm_only_state(self):
        ket = PhotonKet([0.0, 0.0, 1.0, 0.0])
        assert state_factor(ket, ket) == 0.0

    def test_zero_for_arm_diagonal_density(self):
        # no L-R coherence in rho means no indicator signal for any effect
        rho = PhotonDensity(np.diag([0.5, 0.0, 0.25, 0.25]).astype(complex))
        E = PhotonEffect(np.eye(DIM, dtype=complex) / 4.0)
        assert np.isclose(state_factor(E, rho), 0.0)

    @given(prep=unit_kets(), post=unit_kets())
    def test_pure_state_consistency(self, prep, post):
        amps = transition_amplitudes(prep, post)
        expected = (amps.r_plus - amps.r_minus) * np.conj(amps.l)
        assert np.isclose(state_factor(post, prep), expected, atol=1e-12)

    def test_rejects_other_types(self, example_prep):
        with pytest.raises(ValidationError):
            state_factor(np.eye(4), example_prep)
