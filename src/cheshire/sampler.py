"""Monte Carlo trial engine for the signed cross-moment estimator.

Trials simulate the postselect-then-read-the-pointers experiment exactly,
with no grid.  Success density |F|^2 plus failure density p_f is the
classical mixture p_cl = sum_k p_k phi0^2(x - a_k) phi0^2(y - b_k), so each
trial draws branch k with probability p_k and readouts x = a_k + z1,
y = b_k + z2 (z standard normal), then succeeds (tau = +1) with probability
|F(x, y)|^2 / p_cl(x, y) and fails (tau = -1) otherwise: von Neumann
rejection with every proposal kept as a trial.  With
e_k = exp(-((x - a_k)^2 + (y - b_k)^2) / 4) that ratio is
|sum_k c_k e_k|^2 / sum_k p_k e_k^2, at most the realizability budget
sum_k |c_k|^2 / p_k by Cauchy-Schwarz; a ratio above the budget's cap
raises `PositivityError` rather than being clipped.

Optional zero-mean Gaussian readout noise is added to both branches (same
apparatus either way).  The indicator is estimated as the average of
tau * x * y over all trials; independent zero-mean noise leaves that
average unbiased and only inflates the per-trial variance.

Randomness is counter-based: trials are generated in fixed-size batches
of 2^16, batch b using the Philox stream `Philox(key=seed).jumped(b)`
with a fixed draw budget per batch.  The trial stream is therefore
bit-identical for a given seed regardless of how batches are scheduled
across threads.

The estimate is a batch-order merge of per-batch moments: each batch
reduces its own trials to (count, successes, mean and M2 of tau * x * y),
and the batches are combined in batch order with the pairwise update of
Chan, Golub and LeVeque.  `sample_estimate` does this inside the workers
that draw the batches, so its memory does not grow with the trial count;
`estimate_cheshire` applies the same reduction to batch-sized slices of a
stored trial stream and returns the identical result.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    REALIZABILITY_TOL,
    _branch_shifts,
    _check_realizable,
    _validate_couplings,
    BranchWeights,
    success_moments,
)
from .errors import PositivityError, ValidationError
from .qsystem import TransitionAmplitudes

TRIALS_PER_BATCH = 1 << 16
THREADS_ENV_VAR = "CHESHIRE_THREADS"

DETECTION_Z = 5.0

# The acceptance ratio is a probability only up to the realizability slack;
# 1e-12 covers its rounding (a few ulps on sums of three terms) with room.
ACCEPTANCE_BOUND = 1.0 + REALIZABILITY_TOL + 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of independent zero-mean Gaussian readout noise."""

    nu_a: float = 0.0
    nu_b: float = 0.0

    def __post_init__(self):
        for name, nu in (("nu_a", self.nu_a), ("nu_b", self.nu_b)):
            if not (nu >= 0.0 and math.isfinite(nu)):
                raise ValidationError(f"{name} must be finite and >= 0, got {nu!r}")


NO_NOISE = NoiseModel(0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Trials:
    """Columnar container for a trial stream."""

    tau: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.int8)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if not (tau.shape == x.shape == y.shape) or tau.ndim != 1:
            raise ValidationError("tau, x, y must be 1-D arrays of equal length")
        if tau.size and not np.all(np.abs(tau) == 1):
            raise ValidationError("tau entries must be +1 or -1")
        for arr in (tau, x, y):
            arr.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.tau.size

    def products(self) -> np.ndarray:
        """The per-trial signed products tau * x * y."""
        return self.tau.astype(float) * self.x * self.y


@dataclass(frozen=True)
class EstimatorOutput:
    c_hat: float
    std_error: float
    p_hat: float
    n_trials: int


def max_threads() -> int:
    """Parallelism cap from the environment; defaults to single-threaded."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"{THREADS_ENV_VAR} must be >= 1, got {value}")
    return value


def _pick_branches(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Branch index for each uniform draw in [0, 1).

    The last branch with non-zero weight ends exactly at 1, so weights whose
    squares sum to 1 only within rounding never hand a draw to a zero-weight
    branch.
    """
    edges = np.cumsum(probabilities)
    edges[np.flatnonzero(probabilities)[-1]:] = 1.0
    # the number of edges at or below u: searchsorted(edges, u, "right")
    k = np.zeros(u.shape, dtype=np.intp)
    for edge in edges:
        k += u >= edge
    return k


def _batch_kernel(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    n: int,
    seed: int,
    noise: NoiseModel,
):
    """Validate a run of n trials; return _batch(b) -> (tau, x, y), which
    draws batch b from its own substream."""
    if n < 1:
        raise ValidationError("need at least one trial")
    _validate_couplings(g_a, g_b)
    if not (math.isfinite(g_a) and math.isfinite(g_b)):
        raise ValidationError("Monte Carlo sampling needs finite couplings")
    _check_realizable(amps, weights)
    shifts_a, shifts_b = (np.array(s) for s in _branch_shifts(g_a, g_b))
    probabilities = np.array(weights.probabilities)
    coeffs = np.array([amps.l, amps.r_plus, amps.r_minus])

    def _batch(b: int):
        rows = min(TRIALS_PER_BATCH, n - b * TRIALS_PER_BATCH)
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        u = gen.random((rows, 2))
        z = gen.standard_normal((rows, 4))
        k = _pick_branches(probabilities, u[:, 0])
        bx = shifts_a[k] + z[:, 0]
        by = shifts_b[k] + z[:, 1]
        # |F|^2 / p_cl: the phi0 normalisation cancels, and the drawn
        # branch's own factor keeps the denominator positive
        e = np.exp(-0.25 * ((bx - shifts_a[:, None]) ** 2 + (by - shifts_b[:, None]) ** 2))
        f = coeffs @ e
        ratio = (f.real ** 2 + f.imag ** 2) / (probabilities @ (e * e))
        worst = ratio.max()
        if not worst <= ACCEPTANCE_BOUND:
            raise PositivityError(
                f"acceptance ratio |F|^2 / p_cl reaches {worst!r} > {ACCEPTANCE_BOUND!r}; "
                "amplitudes and branch weights are inconsistent"
            )
        bx += noise.nu_a * z[:, 2]
        by += noise.nu_b * z[:, 3]
        tau = np.where(u[:, 1] < ratio, np.int8(1), np.int8(-1))
        return tau, bx, by

    return _batch


def _map_batches(fn, n: int, threads: int | None):
    """fn(b) for every batch b of n trials, yielded in batch order.

    With more than one worker thread the batches run concurrently, at most
    one per worker at a time; the order of the results never changes.
    """
    n_batches = (n + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH
    workers = threads if threads is not None else max_threads()
    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, range(n_batches))
    else:
        yield from map(fn, range(n_batches))


def _moments(tau: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(count, successes, mean, M2) of the products tau * x * y of one batch,
    M2 being the sum of squared deviations from the batch mean."""
    products = tau * x * y
    mean = products.mean()
    products -= mean
    np.square(products, out=products)
    return tau.size, int(np.count_nonzero(tau == 1)), float(mean), float(products.sum())


def _merge(a, b):
    """Moments of two consecutive runs of trials from those of each run
    (Chan, Golub and LeVeque's pairwise update)."""
    n_a, successes_a, mean_a, m2_a = a
    n_b, successes_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (
        n,
        successes_a + successes_b,
        mean_a + delta * (n_b / n),
        m2_a + m2_b + delta * delta * (n_a * n_b / n),
    )


def _estimate(n: int, batch_moments) -> EstimatorOutput:
    """Merge the per-batch moments of n trials, in batch order."""
    if n < 2:
        raise ValidationError("estimator needs at least 2 trials")
    _, successes, mean, m2 = functools.reduce(_merge, batch_moments)
    return EstimatorOutput(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n), successes / n, n)


def sample_trials(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    n: int,
    seed: int,
    noise: NoiseModel = NO_NOISE,
    threads: int | None = None,
) -> Trials:
    """Simulate n independent trials; bit-identical for a given seed.

    Trials are generated in fixed batches of TRIALS_PER_BATCH, each from
    its own counter-based substream with a fixed number of draws per trial,
    so the result does not depend on the thread count.  The whole stream is
    kept; `sample_estimate` gives its estimate without storing it.
    """
    batch = _batch_kernel(amps, weights, g_a, g_b, n, seed, noise)
    tau = np.empty(n, dtype=np.int8)
    x = np.empty(n)
    y = np.empty(n)

    def fill(b: int) -> None:
        sl = slice(b * TRIALS_PER_BATCH, (b + 1) * TRIALS_PER_BATCH)
        tau[sl], x[sl], y[sl] = batch(b)

    for _ in _map_batches(fill, n, threads):
        pass
    return Trials(tau, x, y)


def sample_estimate(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    n: int,
    seed: int,
    noise: NoiseModel = NO_NOISE,
    threads: int | None = None,
) -> EstimatorOutput:
    """The estimate of `estimate_cheshire(sample_trials(...))`, bit for bit,
    without keeping the trials: each batch is reduced by the worker that drew
    it, so memory stays O(TRIALS_PER_BATCH) per worker at any n.  The route
    for large n.
    """
    batch = _batch_kernel(amps, weights, g_a, g_b, n, seed, noise)
    return _estimate(n, _map_batches(lambda b: _moments(*batch(b)), n, threads))


def estimate_cheshire(trials: Trials) -> EstimatorOutput:
    """C estimate: mean of tau x y, its standard error, and the success rate.

    Reduced batch by batch like `sample_estimate`, so both give the same bits
    for the same trials.
    """
    def batch_moments(start: int):
        sl = slice(start, start + TRIALS_PER_BATCH)
        return _moments(trials.tau[sl], trials.x[sl], trials.y[sl])

    n = len(trials)
    return _estimate(n, map(batch_moments, range(0, n, TRIALS_PER_BATCH)))


def trial_variance(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    noise: NoiseModel = NO_NOISE,
) -> float:
    """Exact per-trial variance of tau x y, readout noise included.

    Success and failure densities sum to the classical mixture, whose
    branches factorize, so every second moment is in closed form:
    var = E[x^2 y^2] + nu_B^2 E[x^2] + nu_A^2 E[y^2] + nu_A^2 nu_B^2 - C^2.
    """
    pa, pb, pc = weights.probabilities
    ex2 = pa * (1.0 + g_a * g_a) + (pb + pc)
    ey2 = pa + (pb + pc) * (1.0 + g_b * g_b)
    ex2y2 = pa * (1.0 + g_a * g_a) + (pb + pc) * (1.0 + g_b * g_b)
    c = 2.0 * success_moments(amps, g_a, g_b).xy
    return (
        ex2y2
        + noise.nu_b ** 2 * ex2
        + noise.nu_a ** 2 * ey2
        + noise.nu_a ** 2 * noise.nu_b ** 2
        - c * c
    )


@dataclass(frozen=True)
class NoiseStudyRow:
    nu_a: float
    nu_b: float
    c_hat: float
    std_error: float
    n_required: float


def noise_robustness(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    nu_grid,
    n: int = 20000,
    seed: int = 0,
    z: float = DETECTION_Z,
) -> list[NoiseStudyRow]:
    """Noise sweep: empirical estimate plus the exact trial count needed
    for a z-sigma detection of C != 0 at each noise level.

    The same seed is reused across rows (common random numbers), so rows
    differ only through the injected noise.
    """
    c = 2.0 * success_moments(amps, g_a, g_b).xy
    rows: list[NoiseStudyRow] = []
    for nu_a, nu_b in nu_grid:
        noise = NoiseModel(float(nu_a), float(nu_b))
        estimate = sample_estimate(amps, weights, g_a, g_b, n=n, seed=seed, noise=noise)
        variance = trial_variance(amps, weights, g_a, g_b, noise)
        n_required = math.inf if c == 0.0 else math.ceil(z * z * variance / (c * c))
        rows.append(NoiseStudyRow(noise.nu_a, noise.nu_b, estimate.c_hat,
                                  estimate.std_error, n_required))
    return rows


CSV_HEADER = ("tau", "x", "y")


def write_trials_csv(trials: Trials, path) -> None:
    """Trial stream as CSV with exact lowercase header and 17-digit floats."""
    rows = zip(trials.tau.tolist(), trials.x.tolist(), trials.y.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.writelines("%d,%.17g,%.17g\n" % row for row in rows)


def read_trials_csv(path) -> Trials:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ValidationError(f"expected header {','.join(CSV_HEADER)!r}, got {header!r}")
        taus: list[int] = []
        xs: list[float] = []
        ys: list[float] = []
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(f"expected 3 columns, got {row!r}")
            taus.append(int(row[0]))
            xs.append(float(row[1]))
            ys.append(float(row[2]))
    return Trials(np.array(taus, dtype=np.int8), np.array(xs), np.array(ys))
