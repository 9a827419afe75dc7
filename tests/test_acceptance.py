"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -rA to see the lines
on passing runs too).  Each check prints

    criterion <k>: PASS|FAIL - <what it verifies>

and fails the test run on FAIL.
"""

import math
import time

import numpy as np

from cheshire import (
    BranchWeights,
    DEFAULT_GRID,
    ExperimentConfig,
    GridMeter,
    JointMeterState,
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    cheshire_analytic,
    embed,
    estimate_cheshire,
    failure_density,
    grid_moments,
    indicator_bound,
    local_averages,
    meter_negativity,
    optimize_states,
    sample_trials,
    success_moments,
    transition_amplitudes,
)
from cheshire.cli import locate_max, sweep_rows
from cheshire.meter import Grid, GridMeter, pointer_matrices
from cheshire.qsystem import TransitionAmplitudes, branch_coherence

from conftest import failed_state

EXAMPLE_PREP = PhotonKet.normalized([1.0, 0.0, 1.0, 1.0])
EXAMPLE_POST = PhotonKet.normalized([1.0, 0.0, 1.0, -1.0])
EXAMPLE_AMPS = transition_amplitudes(EXAMPLE_PREP, EXAMPLE_POST)
EXAMPLE_WEIGHTS = BranchWeights.from_preparation(EXAMPLE_PREP)


def _report(k: int, passed: bool, description: str, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {k}: {status} - {description}{suffix}")
    assert passed, f"criterion {k}: {description}{suffix}"


def _random_pair(rng) -> tuple[PhotonKet, PhotonKet]:
    raw = rng.standard_normal(16)
    prep = PhotonKet.normalized(raw[0:4] + 1j * raw[4:8])
    post = PhotonKet.normalized(raw[8:12] + 1j * raw[12:16])
    return prep, post


def test_criterion_1_sweep_maximum_location():
    config = ExperimentConfig(prep=EXAMPLE_PREP, post=EXAMPLE_POST)
    start = time.perf_counter()
    rows = sweep_rows(config, 0.0, 8.0, 161)
    elapsed = time.perf_counter() - start
    g_a, g_b, _ = locate_max(rows)
    ok = abs(g_a - 2.0) <= 0.01 and g_b == g_a and elapsed < 1.0
    _report(1, ok, "diagonal sweep puts max |C| at g = 2.000 +- 0.01 in < 1 s",
            f"g*={g_a:.4f}, {elapsed:.2f} s")


def test_criterion_2_extremal_value():
    optimum = optimize_states(2.0, 2.0)
    replayed = cheshire_analytic(optimum.post, optimum.prep, 2.0, 2.0).c_value
    target = math.exp(-1.0)
    ok = abs(optimum.c_value - target) <= 1e-6 and abs(replayed - target) <= 1e-6
    _report(2, ok, "optimizer-found states reach C = 1/e +- 1e-6 at g = 2",
            f"C={optimum.c_value:.9f}")


def test_criterion_3_state_independent_bound():
    rng = np.random.default_rng(12345)
    couplings = np.array((0.5, 1.0, 2.0, 4.0))
    bounds = np.array([indicator_bound(g, g) for g in couplings])
    n_pairs = 10_000
    worst = -math.inf
    for _ in range(n_pairs):
        prep, post = _random_pair(rng)
        amps = transition_amplitudes(prep, post)
        # one stacked call per pair, with the bits of the four scalar calls
        slack = np.abs(2.0 * success_moments(amps, couplings, couplings).xy) - bounds
        worst = max(worst, float(slack.max()))
    ok = worst <= 1e-10
    _report(3, ok, f"|C| <= g^2 w^2 / 4 over {n_pairs} random pairs x 4 couplings",
            f"worst slack={worst:.2e}")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    meter = GridMeter.gaussian(DEFAULT_GRID)
    worst = 0.0
    for g in np.linspace(0.0, 8.0, 17):
        g = float(g)
        o0, o1 = (m[0, 1] for m in pointer_matrices((0.0, g), meter))
        o0_exact = math.exp(-g * g / 8.0)
        worst = max(worst, abs(o0 - o0_exact), abs(o1 - 0.5 * g * o0_exact))
        state = JointMeterState(EXAMPLE_AMPS, g, g)
        numeric = grid_moments(state, DEFAULT_GRID)
        exact = success_moments(EXAMPLE_AMPS, g, g)
        worst = max(worst, abs(numeric.norm - exact.norm))
        worst = max(worst, abs(numeric.xy - exact.xy))
        worst = max(worst, abs(numeric.x - exact.x))
        worst = max(worst, abs(numeric.y - exact.y))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(4, ok, "grid oracle matches analytic o0, o1, P, <xy>P, <x>, <y> to 1e-8 "
                   "on the default grid for g in [0, 8] in < 10 s",
            f"worst diff={worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_monte_carlo_consistency(monkeypatch):
    monkeypatch.setenv("CHESHIRE_THREADS", "1")
    start = time.perf_counter()
    trials = sample_trials(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, n=1_000_000, seed=42)
    estimate = estimate_cheshire(trials)
    elapsed = time.perf_counter() - start
    ok = (abs(estimate.c_hat - 0.327005) < 4.0 * estimate.std_error
          and estimate.std_error < 5e-3
          and elapsed < 60.0)
    _report(5, ok, "10^6 trials at g = 2: |c_hat - 0.327005| < 4 SE, SE < 5e-3, < 60 s "
                   "single-threaded",
            f"c_hat={estimate.c_hat:.6f}, SE={estimate.std_error:.1e}, {elapsed:.1f} s")


def test_criterion_6_partition_and_sign_flip():
    rng = np.random.default_rng(777)
    grid = Grid(-14.0, 14.0, 1401)
    worst_partition = 0.0
    worst_flip = 0.0
    for _ in range(25):
        prep, post = _random_pair(rng)
        amps = transition_amplitudes(prep, post)
        weights = BranchWeights.from_preparation(prep)
        g_a = float(rng.uniform(0.0, 3.0))
        g_b = float(rng.uniform(0.0, 3.0))
        failure_density(amps, weights, g_a, g_b, grid)
        failed = grid_moments(failed_state(amps, weights, g_a, g_b), grid)
        p = success_moments(amps, g_a, g_b).norm
        worst_partition = max(worst_partition, abs(p + failed.norm - 1.0))
        state = JointMeterState(amps, g_a, g_b)
        success_xy = grid_moments(state, grid).xy
        worst_flip = max(worst_flip, abs(failed.xy + success_xy))
    ok = worst_partition < 1e-8 and worst_flip < 1e-8
    _report(6, ok, "P + P' = 1 and failure <xy> = -success <xy> to 1e-8 across "
                   "randomized configurations",
            f"partition={worst_partition:.2e}, flip={worst_flip:.2e}")


def test_criterion_7_weak_limit_weak_values():
    special = (
        TransitionAmplitudes(0.5, 0.25, -0.25),
        TransitionAmplitudes(0.3 + 0.1j, 0.15 + 0.05j, -0.15 - 0.05j),
    )
    g = 1e-3
    worst = 0.0
    for amps in special:
        x_mean, y_mean, _ = local_averages(amps, g, g)
        worst = max(worst, abs(x_mean / g - 1.0), abs(y_mean / g - 1.0))
    ok = worst <= 1e-4
    _report(7, ok, "states with unit presence and polarization weak values give "
                   "<x>/g_A, <y>/g_B -> 1.000 +- 1e-4 as g -> 0",
            f"worst dev={worst:.2e}")


def test_criterion_8_entanglement_certification():
    rng = np.random.default_rng(2024)
    violations = 0
    checked = 0
    for _ in range(400):
        prep, post = _random_pair(rng)
        amps = transition_amplitudes(prep, post)
        for g in (0.5, 2.0):
            if abs(2.0 * success_moments(amps, g, g).xy) > 1e-6:
                checked += 1
                if not meter_negativity(JointMeterState(amps, g, g)).negativity > 0.0:
                    violations += 1
    bell = TransitionAmplitudes(math.sqrt(0.5), math.sqrt(0.5), 0.0)
    bell_neg = meter_negativity(JointMeterState(bell, 40.0, 40.0)).negativity
    ok = violations == 0 and checked > 500 and abs(bell_neg - 0.5) <= 1e-8
    _report(8, ok, "|C| > 1e-6 implies positive negativity; strong-limit Bell "
                   "configuration gives negativity 0.5 +- 1e-8",
            f"{checked} certified, Bell={bell_neg:.10f}")


def test_criterion_9_vanishing_limits():
    weak = abs(cheshire_analytic(EXAMPLE_POST, EXAMPLE_PREP, 1e-2, 1e-2).c_value)
    strong = abs(cheshire_analytic(EXAMPLE_POST, EXAMPLE_PREP, 10.0, 10.0).c_value)
    weak_bound = indicator_bound(1e-2, 1e-2)
    strong_bound = indicator_bound(10.0, 10.0)
    ok = all(v < 1e-3 for v in (weak, strong, weak_bound, strong_bound))
    _report(9, ok, "|C(g, g)| < 1e-3 at g = 1e-2 and g = 10, bracketing the "
                   "interior maximum",
            f"weak={weak:.1e}, strong={strong:.1e}")


def test_criterion_10_postselection_induced_entanglement():
    # K = diag(p) is the unconditioned meter state and diag(p) - K the
    # failed-postselection one; both embed in the same coupling-only bases
    rng = np.random.default_rng(2025)
    g = np.linspace(0.0, 8.0, 161)

    def negativity(coherence, g_a, g_b, meter=None):
        return meter_negativity(JointMeterState(coherence, g_a, g_b, meter)).negativity

    # (a) without postselection the meters stay separable, for pure and mixed
    # preparations, at every coupling of the stack
    unconditioned = 0.0
    for _ in range(25):
        prep, _ = _random_pair(rng)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mixed = PhotonDensity(raw @ raw.conj().T / np.trace(raw @ raw.conj().T).real)
        for p in (BranchWeights.from_preparation(prep).probabilities,
                  branch_coherence(PhotonEffect(np.eye(4)), mixed).diagonal().real):
            unconditioned = max(unconditioned, np.max(negativity(np.diag(p), g, g)))

    # (b) P rho_s + (1 - P) rho_f = rho_cl, raw states in one embedding
    # (c) both outcomes entangle the meters wherever |C| > 1e-6
    partition = 0.0
    checked = unentangled = 0
    corners = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    for i in range(200):
        prep, post = (EXAMPLE_PREP, EXAMPLE_POST) if i == 0 else _random_pair(rng)
        amps = transition_amplitudes(prep, post)
        k = amps.coherence()
        mixture = np.diag(BranchWeights.from_preparation(prep).probabilities)
        if i < 20:
            states = [embed(JointMeterState(c, g, g))
                      for c in (k, mixture - k, mixture)]
            success, failure, classical = (e.rho * e.branch_norm_sq[:, None, None] for e in states)
            partition = max(partition, np.max(np.abs(success + failure - classical)))
        visible = np.abs(2.0 * success_moments(amps, corners, corners).xy) > 1e-6
        both = ((negativity(k, corners, corners) > 0.0)
                & (negativity(mixture - k, corners, corners) > 0.0))
        checked += int(visible.sum())
        unentangled += int(np.sum(visible & ~both))

    # (d) the grid oracle gives the failure branch's closed-form negativity
    config = ExperimentConfig(prep=EXAMPLE_PREP, post=EXAMPLE_POST)
    failure = np.diag(EXAMPLE_WEIGHTS.probabilities) - config.coherence()
    meter = GridMeter.gaussian(config.grid)
    oracle = np.max(np.abs(negativity(failure, g, g) - negativity(failure, g, g, meter)))

    # (e) entanglement saturates while its visibility |C| peaks at g = 2
    rows = sweep_rows(config, 0.0, 8.0, 161)
    swept = np.array([row[5] for row in rows])
    g_star = locate_max(rows)[0]
    limit = abs(swept[-1] - math.sqrt(2.0) / 3.0)

    ok = (unconditioned == 0.0 and partition <= 1e-12 and unentangled == 0
          and checked > 500 and oracle <= 1e-12 and np.all(np.diff(swept) >= 0.0)
          and limit <= 3e-8 and g_star == 2.0)
    _report(10, ok, "postselection entangles the meters: K = diag(p) has negativity 0, "
                    "success and failure branches add up to the mixture to 1e-12 and are "
                    "both entangled where |C| > 1e-6, grid failure negativity to 1e-12, "
                    "negativity rising to sqrt(2)/3 +- 3e-8 while |C| peaks at g = 2",
            f"unconditioned={unconditioned}, partition={partition:.1e}, "
            f"{checked} certified, oracle={oracle:.1e}, g*={g_star}, limit={limit:.1e}")
