"""Acceptance gate: the nine headline checks, one pass/fail line each.

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
    JointMeterState,
    PhotonKet,
    cheshire_analytic,
    estimate_cheshire,
    failure_density,
    gaussian_overlap0,
    gaussian_overlap1,
    grid_moments,
    indicator_bound,
    local_averages,
    meter_negativity,
    optimize_states,
    sample_trials,
    success_moments,
    success_probability,
    transition_amplitudes,
)
from cheshire.cli import locate_max, sweep_rows
from cheshire.meter import Grid, GridMeter, pointer_matrices
from cheshire.qsystem import TransitionAmplitudes

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
    couplings = (0.5, 1.0, 2.0, 4.0)
    bounds = {g: indicator_bound(g, g) for g in couplings}
    n_pairs = 10_000
    worst = -math.inf
    for _ in range(n_pairs):
        prep, post = _random_pair(rng)
        amps = transition_amplitudes(prep, post)
        for g in couplings:
            slack = abs(2.0 * success_moments(amps, g, g).xy) - bounds[g]
            worst = max(worst, slack)
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
        worst = max(worst, abs(o0 - gaussian_overlap0(g)), abs(o1 - gaussian_overlap1(g)))
        state = JointMeterState(EXAMPLE_AMPS, None, None, g, g)
        numeric = grid_moments(state, DEFAULT_GRID, DEFAULT_GRID)
        exact = success_moments(EXAMPLE_AMPS, g, g)
        worst = max(worst, abs(numeric.norm - success_probability(EXAMPLE_AMPS, g, g)))
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
        failure = failure_density(amps, weights, g_a, g_b, grid, grid)
        p = success_probability(amps, g_a, g_b)
        worst_partition = max(worst_partition, abs(p + failure.total_probability - 1.0))
        state = JointMeterState(amps, None, None, g_a, g_b)
        success_xy = grid_moments(state, grid, grid).xy
        worst_flip = max(worst_flip, abs(failure.moment("x", "x") + success_xy))
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
                if not meter_negativity(amps, g, g).negativity > 0.0:
                    violations += 1
    bell = TransitionAmplitudes(math.sqrt(0.5), math.sqrt(0.5), 0.0)
    bell_neg = meter_negativity(bell, 40.0, 40.0).negativity
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
