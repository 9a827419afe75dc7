"""Qubit-qutrit embedding and partial-transpose negativity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheshire.dynamics import JointMeterState, success_moments
from cheshire.entanglement import (
    EmbeddedMeterState,
    embed,
    gram_orthonormalize,
    meter_negativity,
    negativity,
)
from cheshire.errors import OrthogonalPostselection, ValidationError
from cheshire.indicator import cheshire_analytic, moment_decomposition
from cheshire.meter import GridMeter, pointer_matrices
from cheshire.qsystem import (
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    branch_coherence,
    transition_amplitudes,
)

from conftest import unit_kets

EXAMPLE_AMPS = TransitionAmplitudes(1 / 3, 1 / 3, -1 / 3)
BELL_AMPS = TransitionAmplitudes(math.sqrt(0.5), math.sqrt(0.5), 0.0)

couplings = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def closed(coherence, g_a, g_b) -> JointMeterState:
    """The success-branch state of two Gaussian pointers, in closed form."""
    return JointMeterState(coherence, g_a, g_b)


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
        state = embed(closed(EXAMPLE_AMPS, 2.0, 2.0))
        assert state.dim_a == 2
        assert state.dim_b == 3
        p = success_moments(EXAMPLE_AMPS, 2.0, 2.0).norm
        assert abs(state.branch_norm_sq - p) < 1e-10
        assert np.isclose(np.trace(state.rho).real, 1.0, atol=1e-10)

    def test_density_is_rank_one(self):
        state = embed(closed(EXAMPLE_AMPS, 2.0, 2.0))
        rho = state.rho
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() > -1e-10
        assert np.isclose(eigenvalues.max(), 1.0, atol=1e-10)
        assert np.sum(eigenvalues > 1e-10) == 1

    def test_strong_coupling_identity_relabeling(self):
        meters = closed(EXAMPLE_AMPS, 40.0, 40.0)
        state = embed(meters)
        assert (state.dim_a, state.dim_b) == (2, 3)
        # orthogonal meter states: branch weights land on distinct axes
        assert abs(state.branch_norm_sq - 1.0 / 3.0) < 1e-12
        # one row per branch, and the rows reproduce each meter's Gram matrix:
        # the two branches that leave meter A unshifted share its second axis
        (a1, _), (b1, _) = meters.pointer_matrices
        assert (state.basis_a.shape, state.basis_b.shape) == ((3, 2), (3, 3))
        assert np.allclose(state.basis_a @ state.basis_a.conj().T, a1, atol=1e-12)
        assert np.allclose(state.basis_b @ state.basis_b.conj().T, b1, atol=1e-12)
        assert np.allclose(a1, [[1, 0, 0], [0, 1, 1], [0, 1, 1]], atol=1e-12)
        assert np.allclose(b1, np.eye(3), atol=1e-12)

    def test_zero_b_coupling_collapses_to_separable(self):
        state = embed(closed(EXAMPLE_AMPS, 2.0, 0.0))
        assert state.dim_b == 1
        report = negativity(state)
        assert report.negativity == 0.0

    def test_zero_couplings_single_cell(self):
        state = embed(closed(EXAMPLE_AMPS, 0.0, 0.0))
        assert (state.dim_a, state.dim_b) == (1, 1)
        assert abs(state.branch_norm_sq - abs(EXAMPLE_AMPS.total) ** 2) < 1e-12

    def test_vanishing_branch_raises(self):
        with pytest.raises(OrthogonalPostselection):
            embed(closed(TransitionAmplitudes(0.0, 0.0, 0.0), 2.0, 2.0))
        # destructive interference at zero coupling
        with pytest.raises(OrthogonalPostselection):
            embed(closed(TransitionAmplitudes(0.5, -0.25, -0.25), 0.0, 0.0))

    def test_unphysical_triples_are_allowed(self):
        state = embed(closed(BELL_AMPS, 2.0, 2.0))
        assert state.branch_norm_sq > 1.0  # not a probability for such triples


class TestNegativity:
    def test_bell_configuration_strong_limit(self):
        report = meter_negativity(closed(BELL_AMPS, 40.0, 40.0))
        assert abs(report.negativity - 0.5) < 1e-8
        assert abs(report.min_pt_eigenvalue + 0.5) < 1e-8
        # PPT is necessary and sufficient for entanglement in 2x3
        assert report.dim_a <= 2 and report.dim_b <= 3

    def test_product_state_is_separable(self):
        report = meter_negativity(closed(TransitionAmplitudes(1.0, 0.0, 0.0), 2.0, 2.0))
        assert report.negativity == 0.0

    def test_example_against_dense_eigensolver(self):
        state = embed(closed(EXAMPLE_AMPS, 2.0, 2.0))
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
        values = [meter_negativity(closed(BELL_AMPS, g, g)).negativity for g in np.arange(2.0, 8.01, 0.25)]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)
        assert values[-1] <= 0.5 + 1e-12

    def test_basis_reordering_invariance(self):
        # feed the B states in a different order: swap the two shifted states
        state = embed(closed(EXAMPLE_AMPS, 2.0, 2.0))
        swapped = embed(closed(
            TransitionAmplitudes(EXAMPLE_AMPS.l, EXAMPLE_AMPS.r_minus, EXAMPLE_AMPS.r_plus),
            2.0, 2.0,
        ))
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
        report = meter_negativity(closed(amps, g_a, g_b))
        assert report.negativity > 0.0


def two_state_reference(coherence, g_a: float, g_b: float) -> EmbeddedMeterState:
    """Reference embedding from the Gaussian overlaps of the distinct meter
    states only: meter A spanned by its unshifted and shifted states, with
    the L branch on the shifted one and both R branches on the unshifted one."""
    k = closed(coherence, g_a, g_b).coherence
    basis_a = gram_orthonormalize(pointer_matrices((0.0, g_a))[0])
    basis_b = gram_orthonormalize(pointer_matrices((0.0, g_b, -g_b))[0])
    v = np.einsum("ka,kb->kab", basis_a[[1, 0, 0], :], basis_b).reshape(3, -1)
    rho = v.T @ k.T @ v.conj()
    norm_sq = np.trace(rho).real
    return EmbeddedMeterState(basis_a, basis_b, rho / norm_sq, norm_sq)


def random_coherence(rng):
    """K of a random pure pair, or of a random mixed preparation and effect."""
    prep, post = (PhotonKet.normalized(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in "ab")
    if rng.random() < 0.5:
        return transition_amplitudes(prep, post).coherence()
    vectors, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    effect = (vectors * rng.uniform(0.05, 0.95, size=4)) @ vectors.conj().T
    mixed = 0.7 * prep.outer() + 0.3 * post.outer()
    return branch_coherence(PhotonEffect(effect), PhotonDensity(mixed))


class TestOwnGramEmbedding:
    """Each meter's own 3 x 3 Gram matrix gives the embedding of the
    two-state Gaussian reference, so the same negativity."""

    # a nearly singular A Gram matrix, no coupling and the strong limit
    SPECIAL = [0.016, 0.0, 40.0]

    def test_agrees_with_two_state_reference(self):
        rng = np.random.default_rng(20)
        pairs = [(a, b) for a in self.SPECIAL for b in self.SPECIAL]
        pairs += [tuple(rng.uniform(0.0, 6.0, size=2)) for _ in range(300)]
        worst = 0.0
        for g_a, g_b in pairs:
            k = random_coherence(rng)
            ours, reference = embed(closed(k, g_a, g_b)), two_state_reference(k, g_a, g_b)
            assert (ours.dim_a, ours.dim_b) == (reference.dim_a, reference.dim_b)
            assert abs(ours.branch_norm_sq - reference.branch_norm_sq) <= 1e-13
            a, b = negativity(ours), negativity(reference)
            assert (a.negativity > 0.0) == (b.negativity > 0.0)
            worst = max(worst, abs(a.negativity - b.negativity),
                        abs(a.min_pt_eigenvalue - b.min_pt_eigenvalue))
        assert worst <= 1e-13


def first_excited(x):
    """x exp(-3 x^2 / 4), normalized: a zero-mean, unit-variance pointer that
    is not Gaussian."""
    return x * np.exp(-0.75 * x * x) * math.sqrt(2.0 * 1.5 ** 1.5 / math.sqrt(math.pi))


class TestAnyPointer:
    """The negativity reads each meter's own pointer matrices, so it
    certifies entanglement for any pointer state."""

    EXCITED = GridMeter(first_excited)

    def test_indicator_implies_entanglement_for_first_excited_pointer(self):
        # criterion 8 on a non-Gaussian pointer: C != 0 implies negativity > 0
        rng = np.random.default_rng(8)
        meter = self.EXCITED
        checked = 0
        for _ in range(300):
            prep, post = (PhotonKet.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
                          for _ in "ab")
            amps = transition_amplitudes(prep, post)
            for g in (0.5, 2.0):
                state = JointMeterState(amps, g, g, meter)
                if abs(2.0 * moment_decomposition(state).total) > 1e-6:
                    checked += 1
                    assert meter_negativity(state).negativity > 0.0
        assert checked > 500

    @pytest.mark.parametrize("g, excited, gaussian", [(1.0, 0.4304, 0.2335), (2.0, 0.4199, 0.3831)])
    def test_example_negativity(self, g, excited, gaussian):
        meter = self.EXCITED
        value = meter_negativity(JointMeterState(EXAMPLE_AMPS, g, g, meter)).negativity
        assert abs(value - excited) <= 1e-3
        assert abs(meter_negativity(closed(EXAMPLE_AMPS, g, g)).negativity - gaussian) <= 1e-3

    def test_grid_gaussian_matches_closed_form_over_sweep(self):
        g = np.linspace(0.0, 8.0, 161)
        meter = GridMeter.gaussian()
        grid = meter_negativity(JointMeterState(EXAMPLE_AMPS, g, g, meter)).negativity
        exact = meter_negativity(closed(EXAMPLE_AMPS, g, g)).negativity
        assert np.max(np.abs(grid - exact)) <= 1e-12
