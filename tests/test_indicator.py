"""Indicator values, moment decomposition, and the two optimizers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cheshire import indicator
from cheshire.dynamics import JointMeterState, grid_moments, success_moments
from cheshire.errors import ConsistencyError, FlatObjective, OrthogonalPostselection, ValidationError
from cheshire.indicator import (
    MAX_TRACE_TERM,
    cheshire_analytic,
    indicator_bound,
    local_averages,
    moment_decomposition,
    optimize_couplings,
    optimize_states,
)
from cheshire.meter import (
    Grid,
    GridMeter,
    gaussian_ground_state,
)
from cheshire.qsystem import (
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    trace_term,
    transition_amplitudes,
    weak_values,
)

from conftest import complex_amplitudes, unit_kets

EXAMPLE_AMPS = TransitionAmplitudes(1 / 3, 1 / 3, -1 / 3)
C_EXAMPLE_G2 = 4.0 * math.exp(-1.0) * (2.0 / 9.0)
SMALL_GRID = Grid(-12.0, 12.0, 1201)

couplings = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
wide_couplings = st.one_of(st.just(0.0), st.just(1e3), st.floats(min_value=0.0, max_value=6.0))
weight_labels = st.sampled_from(["1", "x"])


class TestMomentDecomposition:
    def test_cross_moment_is_pure_entanglement(self):
        state = JointMeterState(EXAMPLE_AMPS, 2.0, 2.0)
        d = moment_decomposition(state, "x", "x")
        assert d.m_cl == 0.0
        assert d.m_li == 0.0
        assert np.isclose(d.m_ent, success_moments(EXAMPLE_AMPS, 2.0, 2.0).xy, atol=1e-15)

    def test_unit_weights_recover_success_probability(self):
        state = JointMeterState(EXAMPLE_AMPS, 2.0, 2.0)
        d = moment_decomposition(state, "1", "1")
        assert np.isclose(d.total, success_moments(EXAMPLE_AMPS, 2.0, 2.0).norm, atol=1e-12)

    def test_entanglement_term_dies_in_strong_limit(self):
        state = JointMeterState(EXAMPLE_AMPS, 40.0, 40.0)
        d = moment_decomposition(state, "x", "1")
        assert abs(d.m_ent) < 1e-60
        # the classical mean survives: <x> P -> |l|^2 g_A
        assert np.isclose(d.m_cl, (1.0 / 9.0) * 40.0, atol=1e-12)

    def test_grid_meter_matches_gaussian(self):
        gauss = JointMeterState(EXAMPLE_AMPS, 2.0, 2.0)
        meter = GridMeter.gaussian()
        grid = JointMeterState(EXAMPLE_AMPS, 2.0, 2.0, meter)
        for weights in (("x", "x"), ("1", "x"), ("x", "1"), ("1", "1")):
            dg = moment_decomposition(gauss, *weights)
            dn = moment_decomposition(grid, *weights)
            assert abs(dg.m_cl - dn.m_cl) < 1e-8
            assert abs(dg.m_ent - dn.m_ent) < 1e-8
            assert abs(dg.m_li - dn.m_li) < 1e-8

    @pytest.mark.parametrize("meter", [None, GridMeter.gaussian()], ids=["gaussian", "grid"])
    def test_empty_coupling_stack(self, meter):
        empty = np.array([])
        d = moment_decomposition(JointMeterState(EXAMPLE_AMPS.coherence(), empty, empty, meter))
        assert d.m_cl.shape == d.m_ent.shape == d.m_li.shape == (0,)

    @given(
        prep=unit_kets(),
        post=unit_kets(),
        g_a=couplings,
        g_b=couplings,
        wx=weight_labels,
        wy=weight_labels,
    )
    @settings(max_examples=25)
    def test_decomposition_sums_to_grid_moment(self, prep, post, g_a, g_b, wx, wy):
        amps = transition_amplitudes(prep, post)
        state = JointMeterState(amps, g_a, g_b)
        d = moment_decomposition(state, wx, wy)
        m = grid_moments(state, SMALL_GRID)
        direct = {"11": m.norm, "x1": m.x, "1x": m.y, "xx": m.xy}[wx + wy]
        assert abs(d.total - direct) < 1e-8

    def test_complex_pointer_waves_match_grid_moments(self):
        # a chirped Gaussian has complex shifted waves and the Gaussian's
        # |psi|^2; the pointer matrices and the 2-D quadrature must agree
        chirped = GridMeter(
            lambda x: gaussian_ground_state(x) * np.exp(0.3j * x * x), SMALL_GRID)
        state = JointMeterState(EXAMPLE_AMPS, 2.0, 1.5, chirped)
        m = grid_moments(state, SMALL_GRID)
        for (wx, wy), direct in {("1", "1"): m.norm, ("x", "1"): m.x,
                                 ("1", "x"): m.y, ("x", "x"): m.xy}.items():
            assert abs(moment_decomposition(state, wx, wy).total - direct) < 1e-8


class TestCrossMoment:
    """<xy> P, the ``xy`` success moment of the branch-pair sum."""

    def test_example_value(self):
        value = success_moments(EXAMPLE_AMPS, 2.0, 2.0).xy
        assert np.isclose(value, 2.0 * math.exp(-1.0) * (2.0 / 9.0), atol=1e-15)
        assert np.isclose(value, 0.5 * C_EXAMPLE_G2, atol=1e-15)

    def test_equal_right_amplitudes_cancel(self):
        amps = TransitionAmplitudes(0.5, 0.4, 0.4)
        assert success_moments(amps, 2.0, 2.0).xy == 0.0

    def test_zero_coupling_gives_zero(self):
        assert success_moments(EXAMPLE_AMPS, 0.0, 2.0).xy == 0.0
        assert success_moments(EXAMPLE_AMPS, 2.0, 0.0).xy == 0.0

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    def test_equals_xy_success_moment(self, prep, post, g_a, g_b):
        # only the left-right terms survive: 2 o1(g_A) o1(g_B) Re[l* (r+ - r-)]
        amps = transition_amplitudes(prep, post)
        o1_a, o1_b = (0.5 * g * math.exp(-g * g / 8.0) for g in (g_a, g_b))
        closed_form = 2.0 * o1_a * o1_b * (
            complex(amps.l).conjugate() * complex(amps.r_plus - amps.r_minus)
        ).real
        assert np.isclose(success_moments(amps, g_a, g_b).xy, closed_form, atol=1e-12)

    def test_infinite_coupling_values(self):
        # the strong limit is exact in double precision from g = 78 on, where
        # only the classical mean |l|^2 g_A survives
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = success_moments(EXAMPLE_AMPS, 1e3, 1e3)
        assert m.x == EXAMPLE_AMPS.coherence()[0, 0].real * 1e3
        assert m.xy == 0.0


class TestCheshireAnalytic:
    def test_optimal_states_reach_inverse_e(self, cheshire_prep, cheshire_post):
        result = cheshire_analytic(cheshire_post, cheshire_prep, 2.0, 2.0)
        assert np.isclose(result.c_value, math.exp(-1.0), atol=1e-15)
        assert np.isclose(result.trace_term, 0.25, atol=1e-15)

    def test_no_left_coherence_gives_zero(self):
        ket = PhotonKet.basis("R+")
        result = cheshire_analytic(ket, ket, 2.0, 2.0)
        assert result.c_value == 0.0

    def test_example_states(self, example_prep, example_post):
        result = cheshire_analytic(example_post, example_prep, 2.0, 2.0)
        assert np.isclose(result.c_value, C_EXAMPLE_G2, atol=1e-15)
        assert np.isclose(result.p_success, success_moments(EXAMPLE_AMPS, 2.0, 2.0).norm, atol=1e-12)
        assert (result.g_a, result.g_b) == (2.0, 2.0)

    def test_effect_scaling_is_linear(self, example_prep, example_post):
        half = PhotonEffect(0.5 * example_post.outer())
        full = cheshire_analytic(example_post, example_prep, 2.0, 2.0)
        scaled = cheshire_analytic(half, example_prep, 2.0, 2.0)
        assert np.isclose(scaled.c_value, 0.5 * full.c_value, atol=1e-15)
        assert np.isclose(scaled.p_success, 0.5 * full.p_success, atol=1e-12)

    def test_mixed_state_linearity(self, example_prep, cheshire_prep, example_post):
        rho = PhotonDensity(0.5 * example_prep.outer() + 0.5 * cheshire_prep.outer())
        mixed = cheshire_analytic(example_post, rho, 2.0, 2.0)
        pure1 = cheshire_analytic(example_post, example_prep, 2.0, 2.0)
        pure2 = cheshire_analytic(example_post, cheshire_prep, 2.0, 2.0)
        assert np.isclose(mixed.c_value, 0.5 * (pure1.c_value + pure2.c_value), atol=1e-12)
        assert np.isclose(mixed.p_success, 0.5 * (pure1.p_success + pure2.p_success), atol=1e-12)

    def test_infinite_coupling_vanishes(self, example_prep, example_post):
        # the strong limit is exact in double precision from g = 78 on
        result = cheshire_analytic(example_post, example_prep, 1e3, 1e3)
        assert result.c_value == 0.0
        assert np.isclose(result.p_success, 1.0 / 3.0, atol=1e-12)

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    @settings(max_examples=50)
    def test_doubles_cross_moment_for_pure_states(self, prep, post, g_a, g_b):
        amps = transition_amplitudes(prep, post)
        result = cheshire_analytic(post, prep, g_a, g_b)
        assert np.isclose(result.c_value, 2.0 * success_moments(amps, g_a, g_b).xy, atol=1e-12)
        assert np.isclose(result.p_success, success_moments(amps, g_a, g_b).norm, atol=1e-12)

    @given(prep=unit_kets(), post=unit_kets(), g_a=couplings, g_b=couplings)
    def test_bound_over_random_pairs(self, prep, post, g_a, g_b):
        result = cheshire_analytic(post, prep, g_a, g_b)
        assert abs(result.c_value) <= indicator_bound(g_a, g_b) + 1e-10

    @given(
        effect_vectors=st.tuples(complex_amplitudes(), complex_amplitudes(), complex_amplitudes(),
                                 complex_amplitudes()),
        mu=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
        kets=st.lists(unit_kets(), min_size=1, max_size=3),
        lam=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        g_a=wide_couplings,
        g_b=wide_couplings,
    )
    @settings(max_examples=100)
    def test_mixed_success_is_component_average(self, effect_vectors, mu, kets, lam, g_a, g_b):
        # E = sum_j mu_j |e_j><e_j| with orthonormal e_j, rho = sum_i lam_i |r_i><r_i|:
        # P is bilinear in (E, rho), so it averages the pure-pair probabilities
        q, _ = np.linalg.qr(np.column_stack(effect_vectors))
        effect_kets = [PhotonKet(q[:, j]) for j in range(4)]
        lam = np.asarray(lam[: len(kets)]) / sum(lam[: len(kets)])
        effect = PhotonEffect(sum(m * e.outer() for m, e in zip(mu, effect_kets)))
        rho = PhotonDensity(sum(w * r.outer() for w, r in zip(lam, kets)))
        expected = sum(
            m * w * success_moments(transition_amplitudes(r, e), g_a, g_b).norm
            for m, e in zip(mu, effect_kets)
            for w, r in zip(lam, kets)
        )
        assert abs(cheshire_analytic(effect, rho, g_a, g_b).p_success - expected) < 1e-12

    def test_bound_violation_rejected(self, example_prep, example_post, monkeypatch):
        # a bound breach is an internal inconsistency, not bad input; with no
        # room under the bound, the g = 2 entry of a stack breaches it
        monkeypatch.setattr(indicator, "MAX_TRACE_TERM", 0.0)
        for g in (2.0, np.array([0.0, 2.0])):
            with pytest.raises(ConsistencyError, match="exceeds the state-independent bound 0.0"):
                cheshire_analytic(example_post, example_prep, g, 2.0)

    def test_rejects_raw_matrices(self, example_prep):
        with pytest.raises(ValidationError):
            cheshire_analytic(np.eye(4), example_prep, 2.0, 2.0)
        with pytest.raises(ValidationError):
            cheshire_analytic(example_prep, np.eye(4) / 4.0, 2.0, 2.0)


class TestLocalAverages:
    def test_special_weak_values_show_unit_slopes(self, cheshire_prep, cheshire_post):
        amps = transition_amplitudes(cheshire_prep, cheshire_post)
        wv = weak_values(amps)
        assert np.isclose(wv.L_w, 1.0, atol=1e-12)
        assert np.isclose(wv.Sigma_w, 1.0, atol=1e-12)
        g = 1e-3
        x_mean, y_mean, p = local_averages(amps, g, g)
        assert abs(x_mean / g - 1.0) < 1e-4
        assert abs(y_mean / g - 1.0) < 1e-4
        assert p > 0.0

    def test_single_branch(self):
        ket = PhotonKet.basis("L+")
        amps = transition_amplitudes(ket, ket)
        x_mean, y_mean, p = local_averages(amps, 2.5, 1.0)
        assert np.isclose(x_mean, 2.5, atol=1e-15)
        assert y_mean == 0.0
        assert np.isclose(p, 1.0, atol=1e-15)

    def test_example_against_grid(self, example_prep, example_post):
        amps = transition_amplitudes(example_prep, example_post)
        x_mean, y_mean, p = local_averages(amps, 2.0, 2.0)
        state = JointMeterState(amps, 2.0, 2.0)
        m = grid_moments(state)
        assert abs(x_mean - m.x / m.norm) < 1e-8
        assert abs(y_mean - m.y / m.norm) < 1e-8
        assert abs(p - m.norm) < 1e-8

    def test_orthogonal_postselection_raises(self):
        amps = TransitionAmplitudes(0.5, -0.25, -0.25)
        with pytest.raises(OrthogonalPostselection):
            local_averages(amps, 0.0, 0.0)

    def test_two_signed_infinite_limit_raises(self):
        with pytest.raises(ValidationError):
            local_averages(TransitionAmplitudes(1 / 3, 1 / 3, -1 / 3), 1.0, math.inf)

    @given(prep=unit_kets(), post=unit_kets())
    @settings(max_examples=50)
    def test_weak_limit_matches_weak_values(self, prep, post):
        amps = transition_amplitudes(prep, post)
        if abs(amps.total) < 0.1:
            return
        wv = weak_values(amps)
        g = 1e-4
        x_mean, y_mean, _ = local_averages(amps, g, g)
        assert abs(x_mean / g - wv.L_w.real) < 1e-6
        assert abs(y_mean / g - wv.Sigma_w.real) < 1e-6


class TestOptimizeCouplings:
    def test_optimum_at_two(self, cheshire_prep, cheshire_post):
        opt = optimize_couplings(cheshire_post, cheshire_prep)
        assert abs(opt.g_a - 2.0) < 1e-6
        assert abs(opt.g_b - 2.0) < 1e-6
        assert abs(opt.c_value - math.exp(-1.0)) < 1e-9

    def test_example_trace_term(self, example_prep, example_post):
        opt = optimize_couplings(example_post, example_prep)
        assert abs(opt.g_a - 2.0) < 1e-6
        assert abs(opt.c_value - C_EXAMPLE_G2) < 1e-9

    def test_negative_trace_term_still_peaks_at_two(self, example_prep, example_post):
        # swapping prep and post flips nothing here, so negate via state phase
        flipped = PhotonKet(np.array([1.0, 0.0, -1.0, 1.0]) / math.sqrt(3.0))
        opt = optimize_couplings(flipped, example_prep)
        assert abs(opt.g_a - 2.0) < 1e-6
        assert opt.c_value < 0.0

    def test_flat_objective(self):
        ket = PhotonKet.basis("R+")
        with pytest.raises(FlatObjective):
            optimize_couplings(ket, ket)

    def test_mixed_inputs_accepted(self, example_prep, example_post):
        rho = PhotonDensity(0.5 * example_prep.outer() + 0.5 * PhotonKet.basis("L+").outer())
        opt = optimize_couplings(example_post, rho)
        assert abs(opt.g_a - 2.0) < 1e-6

    @given(prep=unit_kets(), post=unit_kets(),
           g_max=st.sampled_from([0.0, -0.0, 0.5, 2.0, 8.0, math.inf]))
    def test_value_is_cheshire_analytic_at_optimum(self, prep, post, g_max):
        assume(trace_term(post, prep).real != 0.0)
        opt = optimize_couplings(post, prep, g_max)
        exact = cheshire_analytic(post, prep, opt.g_a, opt.g_b)
        assert repr(opt.c_value) == repr(exact.c_value)


class TestOptimizeStates:
    def test_brute_force_family_oracle(self):
        # two-angle-per-state family: prep = cos(a)|L+> + sin(a) e^{ib}|R,d>,
        # post = cos(c)|L+> + sin(c) e^{id}|R,s> gives trace term
        # (1/4) sin(2a) sin(2c) cos(b - d), whose maximum is 1/4
        angles = np.linspace(0.0, math.pi / 2.0, 41)
        phases = np.linspace(0.0, 2.0 * math.pi, 41)
        best = -1.0
        for a in angles:
            for c in angles:
                for db in phases:
                    best = max(best, 0.25 * math.sin(2 * a) * math.sin(2 * c) * math.cos(db))
        assert abs(best - 0.25) < 1e-9

        inv = math.sqrt(0.5)
        prep = PhotonKet([math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4) * inv, -math.sin(math.pi / 4) * inv])
        post = PhotonKet([math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4) * inv, math.sin(math.pi / 4) * inv])
        assert np.isclose(trace_term(post, prep), 0.25, atol=1e-12)

    @given(unit_kets(), unit_kets())
    def test_no_pair_exceeds_quarter_trace_term(self, prep, post):
        # Cauchy-Schwarz: |l| |r+ - r-| <= |post_L||prep_L| |post_R||prep_R| <= 1/4
        assert trace_term(post, prep).real <= MAX_TRACE_TERM + 1e-15

    @pytest.mark.parametrize("g_a,g_b", [(1.3, 0.7), (2.0, 2.0), (3.7, 5.0)])
    def test_canonical_pair_attains_quarter_trace_term(self, g_a, g_b):
        t = optimize_states(g_a, g_b).trace_term.real
        assert MAX_TRACE_TERM - 2e-16 <= t <= MAX_TRACE_TERM

    def test_reaches_quarter_trace_term(self):
        opt = optimize_states(2.0, 2.0)
        assert abs(opt.trace_term.real - 0.25) < 1e-6
        assert abs(opt.c_value - math.exp(-1.0)) < 1e-6

    @pytest.mark.parametrize("g_a,g_b", [(1.3, 0.7), (2.0, 2.0), (3.7, 5.0)])
    def test_normalized_optimum_is_coupling_free(self, g_a, g_b):
        opt = optimize_states(g_a, g_b)
        prefactor = g_a * g_b * math.exp(-(g_a * g_a + g_b * g_b) / 8.0)
        assert abs(opt.c_value / prefactor - 0.25) < 1e-6

    def test_returned_states_reproduce_value(self):
        opt = optimize_states(2.0, 2.0)
        result = cheshire_analytic(opt.post, opt.prep, 2.0, 2.0)
        assert np.isclose(result.c_value, opt.c_value, atol=1e-12)

    def test_deterministic(self):
        a = optimize_states(2.0, 2.0, seed=7)
        b = optimize_states(2.0, 2.0, seed=7)
        assert np.array_equal(a.prep.amplitudes, b.prep.amplitudes)
        assert np.array_equal(a.post.amplitudes, b.post.amplitudes)
        assert a.c_value == b.c_value

    def test_rejects_zero_coupling(self):
        # the prefactor g_A w_A g_B w_B is 0.0 at a zero coupling and from
        # g = 78 on, and C is then 0.0 for every state
        for g_a, g_b in [(0.0, 2.0), (2.0, -0.0), (78.0, 2.0), (1e3, 1e3)]:
            with pytest.raises(FlatObjective, match="vanishes for every state"):
                optimize_states(g_a, g_b)


class TestUnimodality:
    def test_single_interior_maximum(self, cheshire_prep, cheshire_post):
        gs = np.arange(0.0, 8.0 + 1e-12, 0.01)
        values = np.array(
            [abs(cheshire_analytic(cheshire_post, cheshire_prep, g, g).c_value) for g in gs]
        )
        peak = int(np.argmax(values))
        assert abs(gs[peak] - 2.0) <= 0.01
        rising = np.diff(values[: peak + 1])
        falling = np.diff(values[peak:])
        assert np.all(rising > 0.0)
        assert np.all(falling < 0.0)
