"""Qubit-qutrit embedding and partial-transpose negativity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheshire.dynamics import success_moments
from cheshire.entanglement import (
    EmbeddedMeterState,
    embed,
    gram_orthonormalize,
    meter_negativity,
    negativity,
)
from cheshire.errors import OrthogonalPostselection, ValidationError
from cheshire.indicator import cheshire_analytic
from cheshire.meter import pointer_matrices
from cheshire.qsystem import TransitionAmplitudes, transition_amplitudes

from conftest import unit_kets

EXAMPLE_AMPS = TransitionAmplitudes(1 / 3, 1 / 3, -1 / 3)
BELL_AMPS = TransitionAmplitudes(math.sqrt(0.5), math.sqrt(0.5), 0.0)

couplings = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


class TestGramOrthonormalize:
    def test_reproduces_gram(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        gram = v @ v.conj().T
        coords = gram_orthonormalize(gram)
        assert coords.shape == (3, 3)
        assert np.allclose(coords @ coords.conj().T, gram, atol=1e-10)

    def test_collapses_dependent_vectors(self):
        coords = gram_orthonormalize(np.ones((3, 3)))
        assert coords.shape == (3, 1)
        assert np.allclose(coords @ coords.conj().T, np.ones((3, 3)), atol=1e-12)

    def test_identity_gram_keeps_dimensions(self):
        coords = gram_orthonormalize(np.eye(3))
        assert coords.shape == (3, 3)
        assert np.allclose(coords @ coords.conj().T, np.eye(3), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            gram_orthonormalize(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            gram_orthonormalize(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @given(g=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=6.0)))
    def test_meter_gram_rank(self, g):
        gram = pointer_matrices((0.0, g))[0]
        coords = gram_orthonormalize(gram)
        assert coords.shape[1] == (1 if g == 0.0 else 2)
        assert np.allclose(coords @ coords.conj().T, gram, atol=1e-12)


class TestEmbed:
    def test_example_norm_matches_success_probability(self):
        state = embed(EXAMPLE_AMPS, 2.0, 2.0)
        assert state.dim_a == 2
        assert state.dim_b == 3
        p = success_moments(EXAMPLE_AMPS, 2.0, 2.0).norm
        assert abs(state.branch_norm_sq - p) < 1e-10
        assert np.isclose(np.trace(state.rho).real, 1.0, atol=1e-10)

    def test_density_is_rank_one(self):
        state = embed(EXAMPLE_AMPS, 2.0, 2.0)
        rho = state.rho
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() > -1e-10
        assert np.isclose(eigenvalues.max(), 1.0, atol=1e-10)
        assert np.sum(eigenvalues > 1e-10) == 1

    def test_strong_coupling_identity_relabeling(self):
        state = embed(EXAMPLE_AMPS, 40.0, 40.0)
        assert (state.dim_a, state.dim_b) == (2, 3)
        # orthogonal meter states: branch weights land on distinct axes
        assert abs(state.branch_norm_sq - 1.0 / 3.0) < 1e-12
        assert np.allclose(np.abs(state.basis_a), np.eye(2)[:, ::-1], atol=1e-12) or \
            np.allclose(np.abs(state.basis_a), np.eye(2), atol=1e-12)

    def test_zero_b_coupling_collapses_to_separable(self):
        state = embed(EXAMPLE_AMPS, 2.0, 0.0)
        assert state.dim_b == 1
        report = negativity(state)
        assert report.negativity == 0.0

    def test_zero_couplings_single_cell(self):
        state = embed(EXAMPLE_AMPS, 0.0, 0.0)
        assert (state.dim_a, state.dim_b) == (1, 1)
        assert abs(state.branch_norm_sq - abs(EXAMPLE_AMPS.total) ** 2) < 1e-12

    def test_vanishing_branch_raises(self):
        with pytest.raises(OrthogonalPostselection):
            embed(TransitionAmplitudes(0.0, 0.0, 0.0), 2.0, 2.0)
        # destructive interference at zero coupling
        with pytest.raises(OrthogonalPostselection):
            embed(TransitionAmplitudes(0.5, -0.25, -0.25), 0.0, 0.0)

    def test_unphysical_triples_are_allowed(self):
        state = embed(BELL_AMPS, 2.0, 2.0)
        assert state.branch_norm_sq > 1.0  # not a probability for such triples


class TestNegativity:
    def test_bell_configuration_strong_limit(self):
        report = meter_negativity(BELL_AMPS, 40.0, 40.0)
        assert abs(report.negativity - 0.5) < 1e-8
        assert abs(report.min_pt_eigenvalue + 0.5) < 1e-8
        # PPT is necessary and sufficient for entanglement in 2x3
        assert report.dim_a <= 2 and report.dim_b <= 3

    def test_product_state_is_separable(self):
        report = meter_negativity(TransitionAmplitudes(1.0, 0.0, 0.0), 2.0, 2.0)
        assert report.negativity == 0.0
        assert not report.entangled

    def test_example_against_dense_eigensolver(self):
        state = embed(EXAMPLE_AMPS, 2.0, 2.0)
        report = negativity(state)
        assert report.negativity > 0.0

        da, db = state.dim_a, state.dim_b
        rho = state.rho
        pt = np.zeros_like(rho)
        for i in range(da):
            for j in range(db):
                for k in range(da):
                    for m in range(db):
                        pt[i * db + j, k * db + m] = rho[i * db + m, k * db + j]
        eigenvalues = np.sort(np.linalg.eigvals(pt).real)
        brute = -eigenvalues[eigenvalues < 0.0].sum()
        assert abs(report.negativity - brute) < 1e-10

    def test_monotone_in_coupling_for_bell_configuration(self):
        values = [meter_negativity(BELL_AMPS, g, g).negativity for g in np.arange(2.0, 8.01, 0.25)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        assert values[-1] <= 0.5 + 1e-12

    def test_basis_reordering_invariance(self):
        # feed the B states in a different order: swap the two shifted states
        state = embed(EXAMPLE_AMPS, 2.0, 2.0)
        swapped = embed(
            TransitionAmplitudes(EXAMPLE_AMPS.l, EXAMPLE_AMPS.r_minus, EXAMPLE_AMPS.r_plus),
            2.0, 2.0,
        )
        # swapping r+ and r- mirrors the B shift list (0, g, -g) -> (0, -g, g)
        a = negativity(state).negativity
        b = negativity(swapped).negativity
        assert abs(a - b) < 1e-10

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    @settings(max_examples=50)
    def test_indicator_implies_entanglement(self, prep, post, g_a, g_b):
        amps = transition_amplitudes(prep, post)
        result = cheshire_analytic(post, prep, g_a, g_b)
        if abs(result.c_value) <= 1e-6:
            return
        report = meter_negativity(amps, g_a, g_b)
        assert report.negativity > 0.0
