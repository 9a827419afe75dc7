"""Monte Carlo engine tests: determinism, distributional checks, estimator
consistency, noise handling, and CSV round-trips.

Statistical assertions use 4-sigma bounds and retry once with the next
seed, so the false-failure rate is ~4e-9 per check.
"""

import csv
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheshire.dynamics import BranchWeights, success_moments
from cheshire import _csvrows, sampler
from cheshire.errors import PositivityError, ValidationError
from cheshire.indicator import cheshire_analytic, local_averages
from cheshire.meter import MAX_READOUT_SCALE
from cheshire.qsystem import (
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    branch_coherence,
    transition_amplitudes,
)
from cheshire.sampler import (
    CSV_HEADER,
    NoiseModel,
    THREADS_ENV_VAR,
    TRIALS_PER_BATCH,
    Trials,
    _pick_branches,
    estimate_cheshire,
    max_threads,
    noise_robustness,
    sample_estimate,
    sample_trials,
    trial_variance,
    write_trials_csv,
)

from conftest import unit_kets

EXAMPLE_AMPS = TransitionAmplitudes(1 / 3, 1 / 3, -1 / 3)
EXAMPLE_WEIGHTS = BranchWeights(math.sqrt(1 / 3), math.sqrt(1 / 3), math.sqrt(1 / 3))
# E = |v><v| / 3 and rho = |u><u| / 3, v = (1, 0, 1, -1) and u = (1, 0, 1, 1),
# have EXAMPLE_AMPS's K bit for bit, so this is the sampler's C too
C_EXAMPLE_G2 = cheshire_analytic(
    PhotonEffect(np.outer([1.0, 0.0, 1.0, -1.0], [1.0, 0.0, 1.0, -1.0]) / 3.0),
    PhotonDensity(np.outer([1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0]) / 3.0), 2.0, 2.0).c_value
# the state of test_zero_weight_branch_never_drawn
ZERO_WEIGHT_AMPS = TransitionAmplitudes(0.1, 0.2, 0.0)
ZERO_WEIGHT_WEIGHTS = BranchWeights(math.sqrt(0.1), math.sqrt(0.9), 0.0)


def example_trials(n, seed, noise=NoiseModel(), threads=None):
    """The example's trials, at ``threads`` worker threads if given."""
    with pytest.MonkeyPatch.context() as patch:
        if threads is not None:
            patch.setenv(THREADS_ENV_VAR, str(threads))
        return sample_trials(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, n=n, seed=seed, noise=noise)


def retry_once(check, seeds=(42, 43)):
    """Run a seeded statistical check, allowing one reseeded retry."""
    if check(seeds[0]):
        return
    assert check(seeds[1]), f"statistical check failed for both seeds {seeds}"


ROUTES = pytest.mark.parametrize("route", [sample_trials, sample_estimate],
                                 ids=["sample_trials", "sample_estimate"])


def stream_digest(trials):
    """sha256 over the bytes of tau, x and y, in that order."""
    digest = hashlib.sha256()
    for column in (trials.tau, trials.x, trials.y):
        digest.update(column.tobytes())
    return digest.hexdigest()


MULTI_BATCH_DIGEST = "77d235d966a314235882b3038d9821b112aec197139a6581d9e9da26dbc31497"


class TestDeterminism:
    # digests of the stream as first recorded; a change to any of them is a
    # change of the trial stream and must be announced as one
    @pytest.mark.parametrize("make, expected", [
        (lambda: example_trials(100, seed=7),
         "ebeb59623c87dbd50cd929fe5502d853ca23759798b130d23dde4879bd1f8662"),
        (lambda: example_trials(3 * TRIALS_PER_BATCH - 7, seed=3, threads=1), MULTI_BATCH_DIGEST),
        (lambda: example_trials(3 * TRIALS_PER_BATCH - 7, seed=3, threads=2), MULTI_BATCH_DIGEST),
        (lambda: example_trials(TRIALS_PER_BATCH + 1, seed=5, noise=NoiseModel(0.5, 2.0)),
         "926661b8fb7fb0107adda555b46d0efc155bd92108b62fbbeae8cd15d4f216b4"),
        (lambda: sample_trials(ZERO_WEIGHT_AMPS, ZERO_WEIGHT_WEIGHTS, 2.0, 2.0, n=1000, seed=0),
         "a1c4be79b47f47e904f725da502d4261fad214947ed6afbecd2035f18bd1b15d"),
    ], ids=["n100", "multi-batch-threads1", "multi-batch-threads2", "noise", "zero-weight"])
    def test_stream_matches_recorded_digest(self, make, expected):
        assert stream_digest(make()) == expected

    def test_same_seed_bit_identical(self):
        a = example_trials(1000, seed=7)
        b = example_trials(1000, seed=7)
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = example_trials(1000, seed=7)
        b = example_trials(1000, seed=8)
        assert not np.array_equal(a.x, b.x)

    def test_thread_count_invariant(self):
        n = TRIALS_PER_BATCH + TRIALS_PER_BATCH // 2
        single = example_trials(n, seed=3, threads=1)
        pooled = example_trials(n, seed=3, threads=4)
        assert np.array_equal(single.tau, pooled.tau)
        assert np.array_equal(single.x, pooled.x)
        assert np.array_equal(single.y, pooled.y)

    def test_stream_extends_at_batch_granularity(self):
        short = example_trials(TRIALS_PER_BATCH, seed=11)
        long = example_trials(TRIALS_PER_BATCH + 7, seed=11)
        assert np.array_equal(short.x, long.x[:TRIALS_PER_BATCH])
        assert np.array_equal(short.y, long.y[:TRIALS_PER_BATCH])
        assert len(long) == TRIALS_PER_BATCH + 7

    def test_env_var_controls_default_threads(self, monkeypatch):
        monkeypatch.delenv("CHESHIRE_THREADS", raising=False)
        assert max_threads() == 1
        monkeypatch.setenv("CHESHIRE_THREADS", "4")
        assert max_threads() == 4
        monkeypatch.setenv("CHESHIRE_THREADS", "64")
        assert max_threads() == 64
        for raw in ("0", "65", str(10**6), "many"):
            monkeypatch.setenv("CHESHIRE_THREADS", raw)
            with pytest.raises(ValidationError):
                max_threads()

    @ROUTES
    @pytest.mark.parametrize("raw", ["65", str(10**6)])
    def test_thread_count_above_the_bound_starts_no_pool(self, route, raw, monkeypatch,
                                                         no_thread_pool):
        # rejected, not clamped, before any batch is drawn
        monkeypatch.setenv("CHESHIRE_THREADS", raw)
        threads = threading.active_count()
        with pytest.raises(ValidationError, match=f"CHESHIRE_THREADS must be in \\[1, 64\\], got {raw}"):
            route(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, n=3 * TRIALS_PER_BATCH, seed=1)
        assert threading.active_count() == threads


class TestDistribution:
    def test_success_fraction_matches_probability(self):
        p = success_moments(EXAMPLE_AMPS, 2.0, 2.0).norm

        def check(seed):
            trials = example_trials(100_000, seed=seed)
            p_hat = np.mean(trials.tau == 1)
            return abs(p_hat - p) < 4.0 * math.sqrt(p * (1 - p) / len(trials))

        retry_once(check)

    def test_zero_coupling_gives_independent_standard_readouts(self):
        def check(seed):
            trials = sample_trials(
                EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 0.0, 0.0,
                n=50_000, seed=seed,
            )
            n = len(trials)
            ok = abs(trials.x.mean()) < 4.0 / math.sqrt(n)
            ok &= abs(trials.y.mean()) < 4.0 / math.sqrt(n)
            ok &= abs(trials.x.std() - 1.0) < 4.0 / math.sqrt(2 * n)
            ok &= abs(trials.y.std() - 1.0) < 4.0 / math.sqrt(2 * n)
            ok &= abs(np.corrcoef(trials.x, trials.y)[0, 1]) < 4.0 / math.sqrt(n)
            return ok

        retry_once(check)

    def test_certain_failure_centers_first_readout_on_coupling(self):
        weights = BranchWeights(1.0, 0.0, 0.0)
        amps = TransitionAmplitudes(0.0, 0.0, 0.0)

        def check(seed):
            trials = sample_trials(
                amps, weights, 2.0, 2.0,
                n=20_000, seed=seed,
            )
            n = len(trials)
            ok = bool(np.all(trials.tau == -1))
            ok &= abs(trials.x.mean() - 2.0) < 4.0 / math.sqrt(n)
            ok &= abs(trials.y.mean()) < 4.0 / math.sqrt(n)
            return ok

        retry_once(check)

    def test_certain_success_single_branch(self):
        weights = BranchWeights(1.0, 0.0, 0.0)
        amps = TransitionAmplitudes(1.0, 0.0, 0.0)
        trials = sample_trials(
            amps, weights, 2.0, 2.0,
            n=20_000, seed=5,
        )
        assert bool(np.all(trials.tau == 1))
        assert abs(trials.x.mean() - 2.0) < 4.0 / math.sqrt(len(trials))

    def test_success_marginal_matches_conditional_average(self):
        x_mean, y_mean, _ = local_averages(EXAMPLE_AMPS, 2.0, 2.0)

        def check(seed):
            trials = example_trials(100_000, seed=seed)
            keep = trials.tau == 1
            xs = trials.x[keep]
            ys = trials.y[keep]
            bound_x = 4.0 * xs.std(ddof=1) / math.sqrt(keep.sum())
            bound_y = 4.0 * ys.std(ddof=1) / math.sqrt(keep.sum())
            return abs(xs.mean() - x_mean) < bound_x and abs(ys.mean() - y_mean) < bound_y

        retry_once(check)


class TestEstimator:
    def test_consistent_with_analytic_value(self):
        def check(seed):
            out = estimate_cheshire(example_trials(200_000, seed=seed))
            return abs(out.c_hat - C_EXAMPLE_G2) < 4.0 * out.std_error

        retry_once(check)

    def test_noise_leaves_estimate_unbiased(self):
        noise = NoiseModel(10.0, 10.0)

        def check(seed):
            out = estimate_cheshire(example_trials(200_000, seed=seed, noise=noise))
            return abs(out.c_hat - C_EXAMPLE_G2) < 4.0 * out.std_error

        retry_once(check)

    def test_requires_two_trials(self):
        with pytest.raises(ValidationError):
            estimate_cheshire(Trials(np.array([1], dtype=np.int8), [0.5], [0.5]))
        with pytest.raises(ValidationError):
            sample_estimate(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, n=1, seed=0)

    def test_constant_products_have_zero_error(self):
        out = estimate_cheshire(Trials(np.array([1, 1], dtype=np.int8), [1.0, 1.0], [2.0, 2.0]))
        assert out.c_hat == 2.0
        assert out.std_error == 0.0
        assert out.p_hat == 1.0
        assert out.n_trials == 2
        # across batches of unequal length too
        n = 3 * TRIALS_PER_BATCH - 7
        out = estimate_cheshire(Trials(np.full(n, -1, dtype=np.int8), np.full(n, 0.5),
                                       np.full(n, 4.0)))
        assert (out.c_hat, out.std_error, out.p_hat, out.n_trials) == (-2.0, 0.0, 0.0, n)

    def test_merged_error_keeps_variance_under_large_offset(self):
        # products of mean 1e6 and spread 1: a one-pass sum of squares cancels
        # to the ulp of 1e12 per trial and loses the variance
        n = 3 * TRIALS_PER_BATCH + 5
        rng = np.random.default_rng(0)
        x = 1e6 + rng.standard_normal(n)
        tau = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        out = estimate_cheshire(Trials(tau, tau * x, np.ones(n)))
        assert out.std_error == pytest.approx(x.std(ddof=1) / math.sqrt(n), rel=1e-9)
        assert out.c_hat == pytest.approx(x.mean(), rel=1e-15)
        assert out.p_hat == np.mean(tau == 1)


class TestStreamedEstimate:
    def test_valid_coherence_needs_no_eigensolver(self, no_eigensolver):
        # the realizability check of a K it accepts makes no LAPACK call
        mixed = 0.5 * EXAMPLE_AMPS.coherence() + 0.5 * np.diag(EXAMPLE_WEIGHTS.probabilities)
        for k in (EXAMPLE_AMPS, mixed):
            out = sample_estimate(k, EXAMPLE_WEIGHTS, 2.0, 2.0, n=1000, seed=0,
                                  noise=NoiseModel(0.5, 0.5))
            assert out.n_trials == 1000

    @pytest.mark.parametrize("threads", [1, 4])
    # within one batch, a tail of one trial after one or two whole batches,
    # whole batches only, and more batches than workers with a short tail
    @pytest.mark.parametrize("n", [2, 100, TRIALS_PER_BATCH, TRIALS_PER_BATCH + 1,
                                   2 * TRIALS_PER_BATCH, 2 * TRIALS_PER_BATCH + 1,
                                   6 * TRIALS_PER_BATCH - 7])
    def test_equals_estimate_of_stored_trials(self, n, threads, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, str(threads))
        args = (EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 1.5)
        draws = dict(n=n, seed=5, noise=NoiseModel(0.5, 1.0))
        streamed = sample_estimate(*args, **draws)
        stored = estimate_cheshire(sample_trials(*args, **draws))
        assert streamed.c_hat == stored.c_hat
        assert streamed.std_error == stored.std_error
        assert streamed.p_hat == stored.p_hat
        assert streamed.n_trials == stored.n_trials == n

    def test_heap_does_not_grow_with_trials(self, monkeypatch):
        # storing 2^23 trials and their products would take about 270 MB, and a
        # pool holding a future for every batch would grow with the batch count
        for threads in (1, 2):
            monkeypatch.setenv(THREADS_ENV_VAR, str(threads))
            peaks = []
            for batches in (8, 256):
                tracemalloc.start()
                try:
                    sample_estimate(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0,
                                    n=batches * TRIALS_PER_BATCH, seed=0)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] < 16 * 2 ** 20, threads
            assert peaks[1] - peaks[0] < 64 * 2 ** 10, threads

    def test_batch_after_the_first_allocates_nothing_of_batch_size(self):
        # the draws, the ratio and the moments all run in the workspace; a
        # numpy temporary per batch would show as TRIALS_PER_BATCH bytes or more
        batch = sampler._batch_kernel(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 1.5,
                                      3 * TRIALS_PER_BATCH, 0, NoiseModel(0.5, 1.0))
        sampler._moments(*batch(0))
        tracemalloc.start()
        try:
            sampler._moments(*batch(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < TRIALS_PER_BATCH

    # each worker's block: two uniforms, two normals and four more reals per
    # trial (8 bytes each) plus a one-byte acceptance flag
    WORKSPACE_BYTES = TRIALS_PER_BATCH * (8 * 8 + 1)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_heap_bounded_by_workspaces_and_freed_after_call(self, threads, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, str(threads))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample_estimate(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, n=1 << 20, seed=0)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threads * self.WORKSPACE_BYTES + 4 * 2 ** 20
        assert abs(after - before) < 2 ** 20


class TestWorkspace:
    """Each call owns its buffers, one set per worker thread."""

    ARGS = (EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 1.5)

    @staticmethod
    def same_result(a, b):
        if isinstance(a, Trials):
            return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("tau", "x", "y"))
        return a == b

    @ROUTES
    def test_concurrent_calls_equal_sequential_calls(self, route, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        draws = [dict(n=3 * TRIALS_PER_BATCH - 7, seed=seed, noise=NoiseModel(0.5, 2.0))
                 for seed in (21, 22)]
        expected = [route(*self.ARGS, **d) for d in draws]
        results = [None, None]

        def run(i):
            results[i] = route(*self.ARGS, **draws[i])

        # two callers with two workers each on fewer cores, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(self.same_result(r, e) for r, e in zip(results, expected))

    @ROUTES
    def test_short_batch_after_full_batches_matches_fresh_run(self, route, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "1")
        draws = dict(n=TRIALS_PER_BATCH + 5, seed=4)
        fresh = []
        caller = threading.Thread(target=lambda: fresh.append(route(*self.ARGS, **draws)))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(fresh) == 1
        route(*self.ARGS, n=2 * TRIALS_PER_BATCH, seed=9)
        assert self.same_result(route(*self.ARGS, **draws), fresh[0])

    @ROUTES
    def test_call_after_positivity_error_matches_fresh_run(self, route, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        draws = dict(n=2 * TRIALS_PER_BATCH + 3, seed=8)
        fresh = route(*self.ARGS, **draws)
        monkeypatch.setattr(sampler, "_check_realizable", lambda amps, weights: None)
        with pytest.raises(PositivityError):
            route(TransitionAmplitudes(1.0, 0.0, 0.0), EXAMPLE_WEIGHTS, 2.0, 1.5, **draws)
        assert self.same_result(route(*self.ARGS, **draws), fresh)

    @ROUTES
    def test_positivity_error_of_a_late_batch_stops_the_pool(self, route, monkeypatch):
        # batch 5 of 12 fails while a slow batch 4 leaves the other worker free
        # to run ahead: the error reaches the caller, no batch beyond the
        # window starts, and the workers are gone when the call returns
        workers = 2
        monkeypatch.setenv(THREADS_ENV_VAR, str(workers))
        kernel = sampler._batch_kernel
        started = []

        def failing_kernel(*args):
            batch = kernel(*args)

            def _batch(b):
                started.append(b)
                if b == 4:
                    time.sleep(0.2)
                if b == 5:
                    raise PositivityError("batch 5 is inconsistent")
                return batch(b)

            return _batch

        monkeypatch.setattr(sampler, "_batch_kernel", failing_kernel)
        threads = threading.active_count()
        with pytest.raises(PositivityError, match="batch 5 is inconsistent"):
            route(*self.ARGS, n=12 * TRIALS_PER_BATCH, seed=3)
        assert threading.active_count() == threads
        assert 5 in started and max(started) <= 5 + workers


class TestTrialVariance:
    def test_matches_sampled_variance(self):
        noise = NoiseModel(1.0, 1.0)
        exact = trial_variance(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, noise)

        def check(seed):
            trials = example_trials(200_000, seed=seed, noise=noise)
            sampled = (trials.tau * trials.x * trials.y).var(ddof=1)
            return abs(sampled - exact) < 0.05 * exact

        retry_once(check)

    def test_noiseless_value_closed_form(self):
        # branch second moments: E[x^2 y^2] = 5, minus C^2
        exact = trial_variance(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0)
        assert exact == pytest.approx(5.0 - C_EXAMPLE_G2 ** 2, abs=1e-12)

    def test_noiseless_value_reads_the_closed_form_c(self):
        # one C for every route: at zero noise the variance is E[x^2 y^2] - C^2
        # with cheshire_analytic's C, bit for bit
        rng = np.random.default_rng(25)
        for _ in range(200):
            prep, post = (PhotonKet.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
                          for _ in range(2))
            g_a, g_b = rng.uniform(0.0, 6.0, size=2).tolist()
            weights = BranchWeights.from_preparation(prep)
            pa, pb, pc = weights.probabilities
            ex2y2 = pa * (1.0 + g_a * g_a) + (pb + pc) * (1.0 + g_b * g_b)
            c = cheshire_analytic(post, prep, g_a, g_b).c_value
            variance = trial_variance(branch_coherence(post, prep), weights, g_a, g_b)
            assert variance == ex2y2 - c * c

    def test_doubling_moderate_noise_roughly_quadruples_cost(self):
        base = trial_variance(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, NoiseModel(1.0, 1.0))
        doubled = trial_variance(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, NoiseModel(2.0, 2.0))
        assert 3.0 < doubled / base < 4.5


class TestNoiseRobustness:
    def test_table_rows_and_required_counts(self):
        rows = noise_robustness(
            EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0,
            nu_grid=[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
            n=2000, seed=9,
        )
        assert [(r.nu_a, r.nu_b) for r in rows] == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        required = [r.n_required for r in rows]
        assert required == sorted(required)
        c = C_EXAMPLE_G2
        for row in rows:
            noise = NoiseModel(row.nu_a, row.nu_b)
            var = trial_variance(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, noise)
            assert row.n_required == math.ceil(25.0 * var / c ** 2)
            assert math.isfinite(row.c_hat)
            assert row.std_error > 0.0

    def test_vanishing_indicator_needs_infinite_trials(self):
        amps = TransitionAmplitudes(0.0, 1 / 2, 1 / 2)
        weights = BranchWeights(0.0, math.sqrt(0.5), math.sqrt(0.5))
        rows = noise_robustness(amps, weights, 2.0, 2.0, nu_grid=[(0.0, 0.0)], n=500, seed=2)
        assert rows[0].n_required == math.inf
        # C != 0 whose square is 0.0, or too small for any finite count
        for g_a in (1e-200, 1e-160):
            rows = noise_robustness(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, g_a, 2.0, nu_grid=[(0.0, 0.0)],
                                    n=500, seed=2)
            assert rows[0].n_required == math.inf


class TestValidation:
    def test_large_shift_samples_exactly(self):
        p = success_moments(EXAMPLE_AMPS, 15.0, 2.0).norm

        def check(seed):
            trials = sample_trials(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 15.0, 2.0, n=100_000, seed=seed)
            p_hat = np.mean(trials.tau == 1)
            return abs(p_hat - p) < 4.0 * math.sqrt(p * (1 - p) / len(trials))

        retry_once(check)

    def test_infinite_coupling_rejected(self):
        with pytest.raises(ValidationError):
            sample_trials(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, math.inf, 2.0, n=10, seed=0)

    def test_zero_weight_branch_never_drawn(self):
        # 0.1 + 0.9 rounds to just below 1, leaving a gap before the last edge
        weights = BranchWeights(math.sqrt(0.1), math.sqrt(0.9), 0.0)
        probabilities = np.array(weights.probabilities)
        assert probabilities.sum() < 1.0
        u = np.array([0.0, probabilities[0], np.nextafter(1.0, 0.0)])
        assert _pick_branches(probabilities, u).tolist() == [0, 1, 1]
        trials = sample_trials(TransitionAmplitudes(0.1, 0.2, 0.0), weights, 2.0, 2.0,
                               n=1000, seed=0)
        assert np.all(np.isfinite(trials.x)) and np.all(np.isfinite(trials.y))

    @staticmethod
    def branch_pick_corpus():
        """(probabilities, u, searchsorted's indices) for weights with and
        without zero-weight branches; u holds random draws, every edge below
        1, 0 and the double just below each non-zero edge."""
        rng = np.random.default_rng(1)
        for weights in (EXAMPLE_WEIGHTS, BranchWeights(math.sqrt(0.1), math.sqrt(0.9), 0.0),
                        BranchWeights(0.0, 1.0, 0.0), BranchWeights(math.sqrt(0.5), 0.0,
                                                                     math.sqrt(0.5))):
            probabilities = np.array(weights.probabilities)
            edges = np.cumsum(probabilities)
            edges[np.flatnonzero(probabilities)[-1]:] = 1.0
            u = np.concatenate([rng.random(10_000), edges[edges < 1.0], [0.0],
                                np.nextafter(edges[edges > 0.0], 0.0)])
            yield probabilities, u, np.searchsorted(edges, u, side="right")

    def test_branch_pick_matches_searchsorted(self):
        for probabilities, u, expected in self.branch_pick_corpus():
            assert np.array_equal(_pick_branches(probabilities, u), expected)

    def test_branch_pick_in_place_with_lent_scratch(self):
        # as the batch kernel calls it: the indices overwrite the uniforms and
        # the byte counts live in room lent by the caller
        for probabilities, u, expected in self.branch_pick_corpus():
            work, scratch = u.copy(), np.empty(u.size)
            indices = work.view(np.intp)
            tracemalloc.start()
            try:
                picked = _pick_branches(probabilities, work, out=indices, scratch=scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert picked is indices
            assert np.array_equal(indices, expected)
            # byte counts of u's size alone would take u.size bytes
            assert peak < u.size

    def test_heap_stays_small(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "1")
        tracemalloc.start()
        try:
            sample_trials(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 2.0, 2.0, n=1 << 17, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_default_grid_supports_shift_ten(self):
        trials = sample_trials(EXAMPLE_AMPS, EXAMPLE_WEIGHTS, 10.0, 10.0, n=64, seed=0)
        assert len(trials) == 64

    def test_unrealizable_amplitudes_rejected(self):
        weights = BranchWeights(1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            sample_trials(EXAMPLE_AMPS, weights, 2.0, 2.0, n=10, seed=0)

    def test_needs_positive_trial_count(self):
        with pytest.raises(ValidationError):
            example_trials(0, seed=0)

    def test_noise_model_rejects_negative(self):
        with pytest.raises(ValidationError):
            NoiseModel(-0.1, 0.0)

    def test_trials_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            Trials(np.array([1, -1], dtype=np.int8), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("tau", [[1.7, -1.2], np.array([257, -1], dtype=np.int64)],
                             ids=["fractional", "wraps-to-one"])
    def test_trials_rejects_tau_other_than_plus_minus_one(self, tau):
        # both would cast to int8 [1, -1]
        with pytest.raises(ValidationError, match="tau"):
            Trials(tau, np.zeros(2), np.zeros(2))


class TestContractLimits:
    """The sampler at the edges of the finite-coupling contract, where the
    branches separate by up to 1e50 and the noise is up to 1e50 wide: every
    readout stays finite, no numpy warning is raised (pytest makes them
    errors), and p_hat and c_hat stay within 5 sigma of P and C."""

    N = 20_000

    @pytest.mark.parametrize("g_a, g_b", [(78.0, 78.0), (1e3, 2.0), (2.0, 1e3),
                                          (1e50, 1e50), (1e50, 3.0)])
    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(0.5, 1e50),
                                       NoiseModel(1e50, 1e50)], ids=["0", "0.5-1e50", "1e50"])
    @pytest.mark.parametrize("amps, weights", [(EXAMPLE_AMPS, EXAMPLE_WEIGHTS),
                                               (ZERO_WEIGHT_AMPS, ZERO_WEIGHT_WEIGHTS)],
                             ids=["example", "zero-weight"])
    def test_estimates_within_five_sigma(self, amps, weights, g_a, g_b, noise):
        moments = success_moments(amps, g_a, g_b)
        p, c = moments.norm, 2.0 * moments.xy
        trials = sample_trials(amps, weights, g_a, g_b, n=self.N, seed=1, noise=noise)
        assert np.all(np.isfinite(trials.x)) and np.all(np.isfinite(trials.y))
        out = estimate_cheshire(trials)
        assert out == sample_estimate(amps, weights, g_a, g_b, n=self.N, seed=1, noise=noise)
        se_c = math.sqrt(trial_variance(amps, weights, g_a, g_b, noise) / self.N)
        assert abs(out.c_hat - c) < 5.0 * se_c
        assert abs(out.p_hat - p) < 5.0 * math.sqrt(p * (1.0 - p) / self.N)


class TestAcceptanceBound:
    def test_realizability_edge_samples(self):
        # budget sum_k |amp_k|^2 / p_k = 1 + 4e-10: inside REALIZABILITY_TOL,
        # so the ratio near the separated left branch, or where all three
        # coherent branches meet, may exceed 1 by as much.  Noise damps the
        # pair terms by a positive semidefinite matrix with unit diagonal,
        # which keeps that budget, up to the largest noise the model takes.
        edge = 1.0000000002
        for amps in (TransitionAmplitudes(edge / math.sqrt(3), 0.0, 0.0),
                     TransitionAmplitudes(edge / 3, edge / 3, edge / 3)):
            for nu_a, nu_b in [(0.0, 0.0), (0.3, 0.3), (1.0, 0.2), (5.0, 5.0),
                               (MAX_READOUT_SCALE, 0.5), (MAX_READOUT_SCALE, MAX_READOUT_SCALE)]:
                trials = sample_trials(amps, EXAMPLE_WEIGHTS, 8.0, 8.0, n=TRIALS_PER_BATCH,
                                       seed=0, noise=NoiseModel(nu_a, nu_b))
                assert len(trials) == TRIALS_PER_BATCH
                assert np.all(np.isfinite(trials.x)) and np.all(np.isfinite(trials.y))

    @pytest.mark.parametrize("threads", [1, 2])
    @ROUTES
    def test_over_budget_ratio_raises(self, route, threads, monkeypatch):
        monkeypatch.setattr(sampler, "_check_realizable", lambda amps, weights: None)
        monkeypatch.setenv(THREADS_ENV_VAR, str(threads))
        amps = TransitionAmplitudes(1.0, 0.0, 0.0)
        with pytest.raises(PositivityError):
            route(amps, EXAMPLE_WEIGHTS, 2.0, 2.0, n=1000, seed=0)

    @ROUTES
    def test_nan_ratio_raises(self, route, monkeypatch):
        # at zero coupling every branch factor is equal, so weights (1, -1, 0)
        # cancel to den = 0 and zero amplitudes give the ratio 0 / 0
        monkeypatch.setattr(sampler, "_check_realizable", lambda amps, weights: None)
        weights = SimpleNamespace(probabilities=(1.0, -1.0, 0.0))
        amps = TransitionAmplitudes(0.0, 0.0, 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(PositivityError, match="nan"):
            route(amps, weights, 0.0, 0.0, n=1000, seed=0)


def csv_writer_reference(trials, path):
    """The row-by-row csv.writer format the trial CSV has always had."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for t, xv, yv in zip(trials.tau, trials.x, trials.y):
            writer.writerow((int(t), f"{xv:.17g}", f"{yv:.17g}"))


class TestCsv:
    def test_matches_csv_writer_bytes(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 0.1, 1 / 3, -2 / 3 * 1e17,
                  1.7976931348623157e308, 123456789.01234567, math.inf, -math.inf]
        x = np.array(values)
        y = -x[::-1]
        tau = np.where(np.arange(len(x)) % 2 == 0, 1, -1).astype(np.int8)
        trials = Trials(tau, x, y)
        write_trials_csv(trials, tmp_path / "fast.csv")
        csv_writer_reference(trials, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_round_trip_bitwise(self, tmp_path):
        trials = example_trials(257, seed=6)
        path = tmp_path / "trials.csv"
        write_trials_csv(trials, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == ",".join(CSV_HEADER)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(trials.tau, back[:, 0])
        assert np.array_equal(trials.x, back[:, 1])
        assert np.array_equal(trials.y, back[:, 2])

    def test_header_exact(self, tmp_path):
        trials = example_trials(3, seed=6)
        path = tmp_path / "trials.csv"
        write_trials_csv(trials, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == ",".join(CSV_HEADER)


def assert_matches_reference(tau, x, y, directory):
    trials = Trials(np.asarray(tau, dtype=np.int8), x, y)
    write_trials_csv(trials, directory / "fast.csv")
    csv_writer_reference(trials, directory / "reference.csv")
    # compared line by line, so that a failure reports the first wrong row
    fast = (directory / "fast.csv").read_bytes().split(b"\n")
    assert fast == (directory / "reference.csv").read_bytes().split(b"\n")


def alternating_tau(n):
    return np.where(np.arange(n) % 3 == 0, -1, 1)


# every float64, bit pattern by bit pattern, or one of the special values
# hypothesis favours (+-0, +-inf, nan, subnormals, extremes)
float64s = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


class TestCsvExactBytes:
    """The trial CSV writer's bytes equal the row-by-row %.17g reference."""

    CHUNK = _csvrows.CSV_CHUNK_ROWS

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.tuples(float64s, float64s, st.booleans()), min_size=1, max_size=40))
    def test_arbitrary_bit_patterns(self, values, tmp_path_factory):
        x, y, negative = (np.array(column) for column in zip(*values))
        tau = np.where(negative, -1, 1)
        assert_matches_reference(tau, x, y, tmp_path_factory.mktemp("csv"))

    def test_decade_edges(self, tmp_path):
        edges = []
        for k in range(-5, 18):
            power = float(f"1e{k}")  # the double nearest 10^k
            below = above = power
            for _ in range(4):
                below = np.nextafter(below, 0.0)
                above = np.nextafter(above, math.inf)
                edges += [below, above]
            edges.append(power)
            # the doubles nearest 17-digit decimals just under the next power of ten
            edges += [float(f"9.99999999999999995e{k}"), float(f"9.99999999999999985e{k}")]
        x = np.concatenate([edges, np.negative(edges)])
        assert_matches_reference(alternating_tau(x.size), x, x[::-1].copy(), tmp_path)

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_chunk_boundaries(self, n, tmp_path):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 15, n)
        y = rng.standard_normal(n)
        # rows the fast path does not cover, first and last in their chunks
        for row, value in zip([0, self.CHUNK - 1, self.CHUNK, n - 1], [0.0, math.inf, 1e-300, 1e16]):
            if row < n:
                x[row] = value
        y[n // 2] = math.nan
        assert_matches_reference(alternating_tau(n), x, y, tmp_path)

    def test_every_row_falls_back(self, tmp_path):
        n = self.CHUNK + 3
        specials = np.array([0.0, -0.0, 5e-324, -9.9e-5, 1e16, -1.7976931348623157e308,
                             math.inf, -math.inf, math.nan])
        x = np.resize(specials, n)
        y = np.resize(specials[::-1], n)
        assert_matches_reference(alternating_tau(n), x, y, tmp_path)

    @pytest.mark.parametrize("n", [1 << 17, 1 << 18])
    def test_heap_does_not_grow_with_rows(self, n, tmp_path):
        # per-value Python lists or strings would take about 70 bytes per row
        trials = Trials(alternating_tau(n), np.linspace(-3.0, 3.0, n), np.linspace(5.0, -5.0, n))
        tracemalloc.start()
        try:
            write_trials_csv(trials, tmp_path / "trials.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestPhysicalPairsProperty:
    @settings(max_examples=15, deadline=None)
    @given(prep=unit_kets(), post=unit_kets(),
           g=st.floats(min_value=0.0, max_value=1.0))
    def test_sampling_physical_pairs_never_fails(self, prep, post, g):
        amps = transition_amplitudes(prep, post)
        weights = BranchWeights.from_preparation(prep)
        trials = sample_trials(
            amps, weights, g, g,
            n=256, seed=17,
        )
        assert len(trials) == 256
        assert np.all(np.isfinite(trials.x))
        assert np.all(np.isfinite(trials.y))
        out = estimate_cheshire(trials)
        assert 0.0 <= out.p_hat <= 1.0
