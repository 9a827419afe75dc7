"""Monte Carlo trial engine for the signed cross-moment estimator.

Trials simulate the postselect-then-read-the-pointers experiment exactly,
with no grid.  Success density |F|^2 plus failure density p_f is the
classical mixture p_cl = sum_k p_k phi0^2(x - a_k) phi0^2(y - b_k), so each
trial draws branch k with probability p_k and readouts x = a_k + z1,
y = b_k + z2 (z standard normal), then succeeds (tau = +1) with probability
|F(x, y)|^2 / p_cl(x, y) and fails (tau = -1) otherwise: von Neumann
rejection with every proposal kept as a trial.  With the branch coherence
K_jk = Tr(E P_k rho P_j) (conj(c) c^T for pure amplitudes c) and
e_k = exp(-((x - a_k)^2 + (y - b_k)^2) / 4) that ratio is
Re(e^T K e) / (p . e^2), at most the realizability budget: the largest
eigenvalue of diag(p)^(-1/2) K diag(p)^(-1/2), at most 1 as K <= diag(p)
for any effect E <= 1.  A ratio above the budget's cap raises
`PositivityError` rather than being clipped.  The ratio is summed term by
term in real arithmetic, without complex arrays or a BLAS call.

Optional zero-mean Gaussian readout noise of standard deviations nu_A,
nu_B blurs both outcomes alike (same apparatus either way).  It is sampled
directly rather than added to each trial: with s = hypot(1, nu) per meter
the noisy classical mixture is sum_k p_k N(a_k, s^2) on each axis, and each
pair term of |F|^2 stays a Gaussian of variance s^2, with its overlap damped
by exp(-(a_j - a_k)^2 (nu / s)^2 / 8).  So the proposal draws x / s_A and
y / s_B around the shifts a_k / s_A and b_k / s_B, the ratio is the
noiseless one there with K replaced by K o W (W_jk the product of both
meters' damping factors, which keeps the same budget), and the readouts are
scaled back by s_A and s_B.  At zero noise s = 1 and W = 1, so that is the
noiseless arithmetic exactly.  The indicator is estimated as the average of
tau * x * y over all trials; independent zero-mean noise leaves that
average unbiased and only inflates the per-trial variance.

Randomness is counter-based: trials are generated in fixed-size batches
of 2^16, batch b using the Philox stream `Philox(key=seed).jumped(b)`.
Every batch draws 2 uniforms (branch pick, acceptance) and 2 normals
(x, y) per trial, at any noise level.  The trial stream is therefore
bit-identical for a given seed regardless of how batches are scheduled
across threads.  Each worker thread of a call draws and evaluates its
batches in one set of batch-sized buffers (about 6 MB), made on its first
batch and freed when the call returns; drawing a batch allocates nothing
larger than a boolean mask.

The estimate is a batch-order merge of per-batch moments: each batch
reduces its own trials to (count, successes, mean and M2 of tau * x * y),
and the batches are combined in batch order with the pairwise update of
Chan, Golub and LeVeque.  `sample_estimate` does this inside the workers
that draw the batches, so its memory does not grow with the trial count;
`estimate_cheshire` applies the same reduction to batch-sized slices of a
stored trial stream and returns the identical result.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    REALIZABILITY_TOL,
    _branch_shifts,
    _check_realizable,
    BranchWeights,
    success_moments,
)
from .errors import PositivityError, ValidationError
from .meter import MAX_READOUT_SCALE, _validate_couplings
from .qsystem import _coherence

TRIALS_PER_BATCH = 1 << 16
THREADS_ENV_VAR = "CHESHIRE_THREADS"

DETECTION_Z = 5.0

# The acceptance ratio is a probability only up to the realizability slack;
# 1e-12 covers its rounding (a few ulps on sums of three terms) with room.
ACCEPTANCE_BOUND = 1.0 + REALIZABILITY_TOL + 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of independent zero-mean Gaussian readout noise,
    each a finite real in [0, `meter.MAX_READOUT_SCALE`]."""

    nu_a: float = 0.0
    nu_b: float = 0.0

    def __post_init__(self):
        for name, nu in (("nu_a", self.nu_a), ("nu_b", self.nu_b)):
            if not 0.0 <= nu <= MAX_READOUT_SCALE:
                raise ValidationError(
                    f"{name} must be a finite real in [0, {MAX_READOUT_SCALE:g}], got {nu!r}")


NO_NOISE = NoiseModel(0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Trials:
    """Columnar container for a trial stream."""

    tau: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if not (tau.shape == x.shape == y.shape) or tau.ndim != 1:
            raise ValidationError("tau, x, y must be 1-D arrays of equal length")
        # checked before the cast, which would wrap 257 or truncate 1.7 to 1
        if not np.all((tau == 1) | (tau == -1)):
            raise ValidationError("tau entries must be +1 or -1")
        tau = tau.astype(np.int8, copy=False)
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


def _pick_branches(probabilities: np.ndarray, u: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Branch index for each uniform draw in [0, 1), written to `out` if given.

    The last branch with non-zero weight ends exactly at 1, so weights whose
    squares sum to 1 only within rounding never hand a draw to a zero-weight
    branch.
    """
    edges = np.cumsum(probabilities)
    edges[np.flatnonzero(probabilities)[-1]:] = 1.0
    # the number of edges at or below u: searchsorted(edges, u, "right")
    k = np.empty(u.shape, dtype=np.intp) if out is None else out
    k.fill(0)
    for edge in edges:
        k += u >= edge
    return k


def _batch_kernel(
    coherence,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    n: int,
    seed: int,
    noise: NoiseModel,
):
    """Validate a run of n trials; return _batch(b) -> (accepted, x, y), which
    draws batch b from its own substream into views of the calling thread's
    buffers, valid until that thread's next batch."""
    if n < 1:
        raise ValidationError("need at least one trial")
    _validate_couplings(g_a, g_b)
    coherence = _coherence(coherence)
    _check_realizable(coherence, weights)
    shifts_a, shifts_b = (np.array(s) for s in _branch_shifts(g_a, g_b))
    probabilities = np.array(weights.probabilities)
    # Readout noise folded into the proposal (see the module docstring): the
    # rescaled shifts a / s_A, b / s_B and K o W with
    # W_jk = prod_axes exp(-(a_j - a_k)^2 (nu / s)^2 / 8).  W is a
    # Gaussian-kernel matrix, positive semidefinite with unit diagonal, so
    # diag(p) - K o W = (diag(p) - K) o W stays positive semidefinite (Schur
    # product theorem) and the ratio keeps ACCEPTANCE_BOUND.
    scales = math.hypot(1.0, noise.nu_a), math.hypot(1.0, noise.nu_b)
    damping = np.ones((3, 3))
    for shifts, nu, scale in zip((shifts_a, shifts_b), (noise.nu_a, noise.nu_b), scales):
        blurred = shifts * (nu / scale)
        damping *= np.exp(np.square(np.subtract.outer(blurred, blurred)) / -8.0)
        shifts /= scale
    # e^T (K o W) e over real e: K_ii e_i^2, and 2 Re K_ij W_ij e_i e_j for
    # each pair i < j
    terms = [(i, j, (2.0 - (i == j)) * coherence[i, j].real * damping[i, j])
             for i in range(3) for j in range(i, 3)]
    size = min(TRIALS_PER_BATCH, n)
    # one set of buffers per worker thread, freed when the call's last
    # reference to _batch goes
    workspace = threading.local()

    def _batch(b: int):
        rows = min(TRIALS_PER_BATCH, n - b * TRIALS_PER_BATCH)
        buffers = getattr(workspace, "buffers", None)
        if buffers is None:
            buffers = workspace.buffers = (
                np.empty(2 * size), np.empty(2 * size), np.empty(size, dtype=np.intp),
                np.empty(size, dtype=bool), np.empty((7, size)),
            )
        # two uniforms and two normals per trial, each kind drawn as two
        # contiguous rows
        u, z = (buf[:2 * rows].reshape(2, rows) for buf in buffers[:2])
        branch, accept = (buf[:rows] for buf in buffers[2:4])
        bx, by, *e, num, den = buffers[4][:, :rows]
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        gen.random(out=u)
        gen.standard_normal(out=z)
        _pick_branches(probabilities, u[0], out=branch)
        np.add(np.take(shifts_a, branch, out=bx), z[0], out=bx)
        np.add(np.take(shifts_b, branch, out=by), z[1], out=by)
        # |F|^2 / p_cl = Re(e^T (K o W) e) / den with e_k = exp(-((x - a_k)^2
        # + (y - b_k)^2) / 4) over the rescaled readouts and shifts, and
        # den = sum_k p_k e_k^2: the phi0 normalisation cancels, and the drawn
        # branch's own factor keeps den positive
        for e_k, a_k, b_k in zip(e, shifts_a, shifts_b):
            np.square(np.subtract(bx, a_k, out=e_k), out=e_k)
            e_k += np.square(np.subtract(by, b_k, out=num), out=num)
            e_k *= -0.25
            np.exp(e_k, out=e_k)
        # every e_k is used in num (with den as scratch) before it is squared
        # in place for den
        num.fill(0.0)
        for i, j, weight in terms:
            num += np.multiply(np.multiply(e[i], e[j], out=den), weight, out=den)
        den.fill(0.0)
        for e_k, p_k in zip(e, probabilities):
            den += np.multiply(np.square(e_k, out=e_k), p_k, out=e_k)
        ratio = np.divide(num, den, out=num)
        worst = ratio.max()
        if not worst <= ACCEPTANCE_BOUND:
            raise PositivityError(
                f"acceptance ratio |F|^2 / p_cl reaches {worst!r} > {ACCEPTANCE_BOUND!r}; "
                "branch coherence and branch weights are inconsistent"
            )
        # from the rescaled readouts back to x and y
        bx *= scales[0]
        by *= scales[1]
        return np.less(u[1], ratio, out=accept), bx, by

    return _batch


def _map_batches(fn, n: int):
    """fn(b) for every batch b of n trials, yielded in batch order.

    With more than one worker thread the batches run concurrently, at most
    one per worker at a time; the order of the results never changes.
    """
    n_batches = (n + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH
    workers = max_threads()
    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, range(n_batches))
    else:
        yield from map(fn, range(n_batches))


def _moments(accepted: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(count, successes, mean, M2) of the products tau * x * y of one batch,
    tau being +1 where `accepted` and -1 elsewhere, M2 the sum of squared
    deviations from the batch mean."""
    # negation is exact, so these are the products tau * x * y bit for bit
    products = np.multiply(x, y)
    np.negative(products, out=products, where=~accepted)
    mean = products.mean()
    products -= mean
    np.square(products, out=products)
    return accepted.size, int(np.count_nonzero(accepted)), float(mean), float(products.sum())


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
    coherence,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    n: int,
    seed: int,
    noise: NoiseModel = NO_NOISE,
) -> Trials:
    """Simulate n independent trials; bit-identical for a given seed.

    Trials are generated in fixed batches of TRIALS_PER_BATCH, each from
    its own counter-based substream with a fixed number of draws per trial,
    so the result does not depend on the thread count.  The whole stream is
    kept; `sample_estimate` gives its estimate without storing it.
    """
    batch = _batch_kernel(coherence, weights, g_a, g_b, n, seed, noise)
    tau = np.empty(n, dtype=np.int8)
    x = np.empty(n)
    y = np.empty(n)

    def fill(b: int) -> None:
        sl = slice(b * TRIALS_PER_BATCH, (b + 1) * TRIALS_PER_BATCH)
        accepted, x[sl], y[sl] = batch(b)
        tau[sl] = np.where(accepted, np.int8(1), np.int8(-1))

    for _ in _map_batches(fill, n):
        pass
    return Trials(tau, x, y)


def sample_estimate(
    coherence,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    n: int,
    seed: int,
    noise: NoiseModel = NO_NOISE,
) -> EstimatorOutput:
    """The estimate of `estimate_cheshire(sample_trials(...))`, bit for bit,
    without keeping the trials: each batch is reduced by the worker that drew
    it, so memory stays O(TRIALS_PER_BATCH) per worker at any n.  The route
    for large n.
    """
    batch = _batch_kernel(coherence, weights, g_a, g_b, n, seed, noise)
    return _estimate(n, _map_batches(lambda b: _moments(*batch(b)), n))


def estimate_cheshire(trials: Trials) -> EstimatorOutput:
    """C estimate: mean of tau x y, its standard error, and the success rate.

    Reduced batch by batch like `sample_estimate`, so both give the same bits
    for the same trials.
    """
    def batch_moments(start: int):
        sl = slice(start, start + TRIALS_PER_BATCH)
        return _moments(trials.tau[sl] == 1, trials.x[sl], trials.y[sl])

    n = len(trials)
    return _estimate(n, map(batch_moments, range(0, n, TRIALS_PER_BATCH)))


def trial_variance(
    coherence,
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
    c = 2.0 * success_moments(coherence, g_a, g_b).xy
    pa, pb, pc = weights.probabilities
    ex2 = pa * (1.0 + g_a * g_a) + (pb + pc)
    ey2 = pa + (pb + pc) * (1.0 + g_b * g_b)
    ex2y2 = pa * (1.0 + g_a * g_a) + (pb + pc) * (1.0 + g_b * g_b)
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
    coherence,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    nu_grid,
    n: int = 20000,
    seed: int = 0,
) -> list[NoiseStudyRow]:
    """Noise sweep: empirical estimate plus the exact trial count needed
    for a `DETECTION_Z`-sigma detection of C != 0 at each noise level.

    The same seed is reused across rows (common random numbers): every row
    uses the same uniforms and normals, so rows differ only through the
    noise level that scales them.  Every level is validated before the
    first row is sampled.
    """
    c = 2.0 * success_moments(coherence, g_a, g_b).xy
    rows: list[NoiseStudyRow] = []
    for noise in [NoiseModel(float(nu_a), float(nu_b)) for nu_a, nu_b in nu_grid]:
        estimate = sample_estimate(coherence, weights, g_a, g_b, n=n, seed=seed, noise=noise)
        variance = trial_variance(coherence, weights, g_a, g_b, noise)
        # C^2 may underflow to 0.0, or be too small for any finite count
        needed = DETECTION_Z * DETECTION_Z * variance / (c * c) if c * c > 0.0 else math.inf
        n_required = math.ceil(needed) if math.isfinite(needed) else math.inf
        rows.append(NoiseStudyRow(noise.nu_a, noise.nu_b, estimate.c_hat,
                                  estimate.std_error, n_required))
    return rows


CSV_HEADER = ("tau", "x", "y")


def write_trials_csv(trials: Trials, path) -> None:
    """Trial stream as CSV: a ``tau,x,y`` header, then one
    ``%d,%.17g,%.17g`` row per trial, byte for byte.  ``path`` is a file
    name or a binary file open for writing.

    The rows are formatted in chunks of `_csvrows.CSV_CHUNK_ROWS`, so the
    writer's buffers do not grow with the trial count.  Values with
    1e-4 <= |v| < 1e16 are laid out by vectorized exact arithmetic in the
    bytes %.17g gives; a row holding any other value (zero, tiny, huge,
    infinite or nan) is formatted by %-formatting itself.
    """
    # imported here: without a bytecode cache every process would otherwise
    # compile the formatter at import, about 2 ms and 0.4 MB of peak RSS
    from ._csvrows import write_rows

    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "wb") as fh:
        fh.write((",".join(CSV_HEADER) + "\n").encode("ascii"))
        write_rows(fh, trials.tau, trials.x, trials.y)


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
    return Trials(np.array(taus), np.array(xs), np.array(ys))
