"""Calibration of the Monte Carlo route against its exact statistics.

Two kinds of evidence that a trial stream has the right distribution, not
only the right first moments at a few seeds:

- over many seeds, the standardized errors of c_hat and p_hat must look like
  draws of N(0, 1): their mean, variance and Kolmogorov-Smirnov distance;
- for one seed and many trials, the readouts x and y given tau = +1 or -1,
  readout noise included, must follow their closed-form marginal CDFs.

Every check has a fixed bound at a two-sided 4.5-sigma false-alarm rate, so
the suite's chance of failing on a correct sampler is below 1e-4.  The KS
bounds use the Dvoretzky-Kiefer-Wolfowitz inequality
P(sup |F_n - F| > t / sqrt(n)) <= 2 exp(-2 t^2), which holds at any n for a
continuous F.
"""

import math

import numpy as np
import pytest

from cheshire.dynamics import (
    BRANCH_SHIFTS_A,
    BRANCH_SHIFTS_B,
    BranchWeights,
    success_moments,
    success_probability,
)
from cheshire.qsystem import PhotonEffect, PhotonKet, TransitionAmplitudes, branch_coherence
from cheshire.sampler import NoiseModel, sample_estimate, sample_trials, trial_variance

# two-sided normal tail beyond 4.5 sigma
FALSE_ALARM = math.erfc(4.5 / math.sqrt(2.0))
# DKW: 2 exp(-2 t^2) = FALSE_ALARM
KS_BOUND = math.sqrt(math.log(2.0 / FALSE_ALARM) / 2.0)

_erf = np.frompyfunc(math.erf, 1, 1)


def normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=float) / math.sqrt(2.0)).astype(float))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """sup_x |F_n(x) - F(x)| of the samples' empirical CDF F_n against `cdf`."""
    x = np.sort(samples)
    f = cdf(x)
    n = x.size
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


PREP = PhotonKet(np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3.0))
POST = PhotonKet(np.array([1.0, 0.0, 1.0, -1.0]) / math.sqrt(3.0))
# a rank-2 effect: 0.7 of the example postselection plus 0.2 of a state
# orthogonal to it, (|L,+> - |R,+>)/sqrt(2)
OTHER = PhotonKet(np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0))
POVM_K = branch_coherence(PhotonEffect(0.7 * POST.outer() + 0.2 * OTHER.outer()), PREP)
WEIGHTS = BranchWeights.from_preparation(PREP)
PURE_K = TransitionAmplitudes(1 / 3, 1 / 3, -1 / 3).coherence()

# (K, g_a, g_b, noise, first seed): disjoint seed ranges keep the configs'
# checks independent of each other
CONFIGS = {
    "noisy-pure": (PURE_K, 2.0, 1.5, NoiseModel(0.8, 0.5), 0),
    "noisy-povm": (POVM_K, 2.0, 2.5, NoiseModel(1.0, 0.7), 1000),
    "zero-noise": (PURE_K, 2.0, 2.0, NoiseModel(0.0, 0.0), 2000),
}


class TestCalibration:
    """z = (estimate - exact) / exact standard error over SEEDS seeds."""

    SEEDS = 200
    N = 1 << 14
    # the mean of SEEDS standard normals has standard deviation 1/sqrt(SEEDS)
    MEAN_BOUND = 4.5 / math.sqrt(SEEDS)
    # (SEEDS - 1) s^2 is chi-square with SEEDS - 1 degrees of freedom, so the
    # sample variance s^2 has standard deviation sqrt(2 / (SEEDS - 1))
    VARIANCE_BOUND = 4.5 * math.sqrt(2.0 / (SEEDS - 1))

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_standardized_errors_are_standard_normal(self, name, monkeypatch):
        monkeypatch.setenv("CHESHIRE_THREADS", "1")
        coherence, g_a, g_b, noise, first_seed = CONFIGS[name]
        c = 2.0 * success_moments(coherence, g_a, g_b).xy
        p = success_probability(coherence, g_a, g_b)
        se_c = math.sqrt(trial_variance(coherence, WEIGHTS, g_a, g_b, noise) / self.N)
        se_p = math.sqrt(p * (1.0 - p) / self.N)
        z_c, z_p = np.array([
            ((out.c_hat - c) / se_c, (out.p_hat - p) / se_p)
            for out in (sample_estimate(coherence, WEIGHTS, g_a, g_b, n=self.N, seed=seed,
                                        noise=noise)
                        for seed in range(first_seed, first_seed + self.SEEDS))
        ]).T
        for label, z in (("c_hat", z_c), ("p_hat", z_p)):
            assert abs(z.mean()) < self.MEAN_BOUND, (label, z.mean())
            assert abs(z.var(ddof=1) - 1.0) < self.VARIANCE_BOUND, (label, z.var(ddof=1))
            distance = ks_distance(z, normal_cdf)
            assert math.sqrt(z.size) * distance < KS_BOUND, (label, distance)


def marginal_cdfs(coherence, weights, shifts, other_shifts, scale):
    """Closed-form CDFs of one readout given tau = +1 and tau = -1.

    Each pair term Re K_jk psi_j psi_k of |F|^2, blurred by the readout
    noise, is a Gaussian of variance scale^2 at the midpoint of the two
    shifts with weight Re K_jk exp(-(a_j - a_k)^2 / 8) exp(-(b_j - b_k)^2 / 8);
    the failure density is the classical mixture sum_k p_k N(a_k, scale^2)
    minus the success density.
    """
    k = np.asarray(coherence)
    success: dict[float, float] = {}
    classical: dict[float, float] = {}
    for i in range(3):
        classical[shifts[i]] = classical.get(shifts[i], 0.0) + weights.probabilities[i]
        for j in range(3):
            mid = 0.5 * (shifts[i] + shifts[j])
            overlap = math.exp(-(shifts[i] - shifts[j]) ** 2 / 8.0
                               - (other_shifts[i] - other_shifts[j]) ** 2 / 8.0)
            success[mid] = success.get(mid, 0.0) + k[i, j].real * overlap
    p = sum(success.values())

    def mixture(coefficients):
        return lambda x: sum(w * normal_cdf((x - mid) / scale) for mid, w in coefficients.items())

    success_cdf = mixture(success)
    classical_cdf = mixture(classical)
    return (lambda x: success_cdf(x) / p,
            lambda x: (classical_cdf(x) - success_cdf(x)) / (1.0 - p))


class TestNoisyMarginals:
    N = 1 << 17

    @pytest.mark.parametrize("coherence, g_a, g_b, noise", [
        (POVM_K, 2.0, 2.5, NoiseModel(1.0, 0.7)),
        (PURE_K, 15.0, 9.0, NoiseModel(30.0, 0.01)),
    ], ids=["povm", "far-shifts"])
    def test_readouts_follow_closed_form_given_tau(self, coherence, g_a, g_b, noise):
        trials = sample_trials(coherence, WEIGHTS, g_a, g_b, n=self.N, seed=1, noise=noise)
        shifts_a = [s * g_a for s in BRANCH_SHIFTS_A]
        shifts_b = [s * g_b for s in BRANCH_SHIFTS_B]
        axes = (
            ("x", trials.x, marginal_cdfs(coherence, WEIGHTS, shifts_a, shifts_b,
                                          math.hypot(1.0, noise.nu_a))),
            ("y", trials.y, marginal_cdfs(coherence, WEIGHTS, shifts_b, shifts_a,
                                          math.hypot(1.0, noise.nu_b))),
        )
        for axis, readouts, cdfs in axes:
            for tau, cdf in zip((1, -1), cdfs):
                samples = readouts[trials.tau == tau]
                distance = ks_distance(samples, cdf)
                assert math.sqrt(samples.size) * distance < KS_BOUND, (axis, tau, distance)
