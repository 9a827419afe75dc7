"""Three-way agreement for generalized (POVM) postselection.

A random effect 0 <= E <= 1 with a random eigenbasis reaches every route
through its branch coherence K_jk = Tr(E P_k rho P_j).  The closed form,
the grid oracles and the Monte Carlo trials must then agree as they do for
a pure postselection, and the 2x3 negativity must be non-negative and
vanish when K is diagonal, where the meter state is a mixture of products.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from cheshire.dynamics import (
    BranchWeights,
    JointMeterState,
    failure_density,
    grid_moments,
    success_moments,
)
from cheshire.entanglement import meter_negativity
from cheshire.errors import ValidationError
from cheshire.indicator import cheshire_analytic, moment_decomposition
from cheshire.meter import Grid, GridMeter
from cheshire.qsystem import PhotonEffect, branch_coherence, weak_values
from cheshire.sampler import sample_estimate, trial_variance

from conftest import failed_state, projector, unit_kets

PI_L, PI_R_PLUS, PI_R_MINUS = projector(0, 1), projector(2), projector(3)
SIGMA_R = PI_R_PLUS - PI_R_MINUS

METER = GridMeter.gaussian(Grid(-14.0, 14.0, 1401))
couplings = st.floats(min_value=0.1, max_value=3.0)


@st.composite
def effects(draw):
    """E = Q diag(lambda) Q^dagger with Q unitary and lambda in [0, 1]."""
    part = st.floats(min_value=-1.0, max_value=1.0)
    entries = draw(st.lists(st.tuples(part, part), min_size=16, max_size=16))
    q, _ = np.linalg.qr(np.array([re + 1j * im for re, im in entries]).reshape(4, 4))
    eigenvalues = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    return PhotonEffect((q * eigenvalues) @ q.conj().T)


@given(effect=effects(), prep=unit_kets(), g_a=couplings, g_b=couplings)
@settings(max_examples=40)
def test_analytic_matches_grid_oracle(effect, prep, g_a, g_b):
    k = branch_coherence(effect, prep)
    exact = cheshire_analytic(effect, prep, g_a, g_b)
    moments = success_moments(k, g_a, g_b)
    state = JointMeterState(k, g_a, g_b, METER)
    assert abs(exact.c_value - 2.0 * moment_decomposition(state).total) < 1e-6
    # the 2-D readout-plane quadrature
    plane = grid_moments(state)
    assert abs(exact.p_success - plane.norm) < 1e-6
    assert abs(moments.x - plane.x) < 1e-6
    assert abs(moments.y - plane.y) < 1e-6
    assert abs(exact.c_value - 2.0 * plane.xy) < 1e-6


@given(effect=effects(), prep=unit_kets(), g_a=couplings, g_b=couplings)
@settings(max_examples=30)
def test_failure_partition_and_sign_flip(effect, prep, g_a, g_b):
    k, weights = branch_coherence(effect, prep), BranchWeights.from_preparation(prep)
    grid = METER.grid
    failure_density(k, weights, g_a, g_b, grid)
    failed = grid_moments(failed_state(k, weights, g_a, g_b), grid)
    success = grid_moments(JointMeterState(k, g_a, g_b), grid)
    assert abs(success_moments(k, g_a, g_b).norm + failed.norm - 1.0) < 1e-8
    assert abs(failed.xy + success.xy) < 1e-8


@given(effect=effects(), prep=unit_kets())
def test_weak_values_are_trace_ratios(effect, prep):
    # A_w = Tr(E A rho) / Tr(E rho)
    e, rho = effect.matrix, prep.outer()
    p = np.trace(e @ rho)
    assume(abs(p) > 1e-3)
    values = weak_values(branch_coherence(effect, prep))
    assert abs(values.L_w - np.trace(e @ PI_L @ rho) / p) < 1e-10
    assert abs(values.Sigma_w - np.trace(e @ SIGMA_R @ rho) / p) < 1e-10


@pytest.mark.parametrize("k", [np.eye(2), np.triu(np.ones((3, 3)))], ids=["2x2", "not-hermitian"])
def test_malformed_coherence_rejected(k):
    routes = (weak_values, lambda k: success_moments(k, 1.0, 1.0),
              lambda k: meter_negativity(JointMeterState(k, 1.0, 1.0)))
    for route in routes:
        with pytest.raises(ValidationError, match="^branch coherence (must be 3x3|is not Hermitian)"):
            route(k)


@given(effect=effects(), prep=unit_kets(), g_a=couplings, g_b=couplings)
@settings(max_examples=15)
def test_monte_carlo_within_five_sigma(effect, prep, g_a, g_b):
    n = 50_000
    k, weights = branch_coherence(effect, prep), BranchWeights.from_preparation(prep)
    exact = cheshire_analytic(effect, prep, g_a, g_b)
    estimate = sample_estimate(k, weights, g_a, g_b, n=n, seed=11)
    sigma = math.sqrt(trial_variance(k, weights, g_a, g_b) / n)
    assert abs(estimate.c_hat - exact.c_value) <= 5.0 * sigma
    p = exact.p_success
    # P = 0 or 1 gives a zero binomial spread; 1e-12 covers P's rounding there
    assert abs(estimate.p_hat - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12


@given(effect=effects(), prep=unit_kets(), g_a=couplings, g_b=couplings)
@settings(max_examples=40)
def test_negativity_non_negative_and_zero_for_diagonal_coherence(effect, prep, g_a, g_b):
    k = branch_coherence(effect, prep)
    assume(np.trace(k).real > 1e-9)
    assert meter_negativity(JointMeterState(k, g_a, g_b)).negativity >= 0.0
    # dephasing E between the branches leaves K diagonal
    blocks = PhotonEffect(sum(p @ effect.matrix @ p for p in (PI_L, PI_R_PLUS, PI_R_MINUS)))
    diagonal = branch_coherence(blocks, prep)
    assert np.array_equal(diagonal, np.diag(np.diag(diagonal)))
    assert np.allclose(np.diag(diagonal), np.diag(k), atol=1e-15)
    assert meter_negativity(JointMeterState(diagonal, g_a, g_b)).negativity == 0.0


def test_sampler_rejects_coherence_outside_zero_and_diag_p():
    weights = BranchWeights(math.sqrt(0.5), math.sqrt(0.5), 0.0)
    pure = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.0]])
    assert sample_estimate(pure, weights, 1.0, 1.0, n=100, seed=0).n_trials == 100
    # -K has a negative eigenvalue; 4 K exceeds diag(p)
    for k in (-pure, 4.0 * pure):
        with pytest.raises(ValidationError, match="outside"):
            sample_estimate(k, weights, 1.0, 1.0, n=100, seed=0)

