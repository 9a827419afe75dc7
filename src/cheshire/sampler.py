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
Re(e^T K e) / (p . e^2).  With g_k = sqrt(p_k) e_k it is the Rayleigh
quotient g^T M g / g^T g of M = diag(p)^(-1/2) K diag(p)^(-1/2), at most its
largest eigenvalue, the realizability budget, at most 1 as K <= diag(p) for
any effect E <= 1.  A ratio above the budget's cap raises `PositivityError`
rather than being clipped.  The ratio is summed term by term in real
arithmetic, without complex arrays or a BLAS call.

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

Randomness is keyed: trials are generated in fixed-size batches of 2^15,
batch b drawing from the stream `SFC64(SeedSequence([seed, b]))`.  Every
batch draws 2 uniforms (branch pick, acceptance) and 2 normals (x, y) per
trial, at any noise level.  The trial stream is therefore bit-identical for
a given seed regardless of how batches are scheduled across threads.  Each
worker thread of a call draws, evaluates and reduces its batches in one block
of 8 reals and a flag per trial (65 bytes, about 2.1 MB), made on its first
batch and freed when the call returns; a batch after that allocates less
than 2^15 bytes.  At most workers + 1 batches are in flight at a time.

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
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import _branch_shifts, _check_realizable, _unstack, BranchWeights
from .errors import PositivityError, ValidationError
from .indicator import _indicator
from .meter import _one_coupling_per_meter, _readout_scale, _validate_couplings
from .qsystem import _coherence
from .tolerances import ACCEPTANCE_BOUND

TRIALS_PER_BATCH = 1 << 15
THREADS_ENV_VAR = "CHESHIRE_THREADS"
# The most worker threads a call may ask for.  A call starts all of its workers
# at once, each with its own 2.1 MB workspace, so an unbounded count could start
# one thread and one workspace per batch; 64 is far beyond any gain on the
# batch kernel.
MAX_THREADS = 64

DETECTION_Z = 5.0


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of independent zero-mean Gaussian readout noise,
    each a finite real in [0, `meter.MAX_READOUT_SCALE`]."""

    nu_a: float = 0.0
    nu_b: float = 0.0

    def __post_init__(self):
        _readout_scale("nu_a", self.nu_a)
        _readout_scale("nu_b", self.nu_b)


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


class EstimatorOutput(NamedTuple):
    c_hat: float
    std_error: float
    p_hat: float
    n_trials: int


def max_threads() -> int:
    """Parallelism cap from the environment, in [1, MAX_THREADS]; defaults to
    single-threaded.  A value out of range raises rather than being clamped."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if not 1 <= value <= MAX_THREADS:
        raise ValidationError(f"{THREADS_ENV_VAR} must be in [1, {MAX_THREADS}], got {value}")
    return value


def _pick_branches(probabilities: np.ndarray, u: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Branch index for each uniform draw in [0, 1), written to `out` if given.

    The last branch with non-zero weight ends exactly at 1, so weights whose
    squares sum to 1 only within rounding never hand a draw to a zero-weight
    branch.  `out` may share u's bytes.  `scratch`, if given, is contiguous
    room of 2 * u.size bytes to count in; byte counts allow at most 255 edges.
    """
    edges = np.cumsum(probabilities)
    edges[np.flatnonzero(probabilities)[-1]:] = 1.0
    # the number of edges below 1 at or below u, searchsorted(edges, u, "right"),
    # as bool compares summed in bytes and widened once after the last compare
    room = np.empty(2 * u.size, np.uint8) if scratch is None else scratch.view(np.uint8)
    counts, step = room[:2 * u.size].reshape(2, *u.shape)
    counts.fill(0)
    for edge in edges[edges < 1.0]:
        counts += np.greater_equal(u, edge, out=step.view(bool)).view(np.uint8)
    k = np.empty(u.shape, dtype=np.intp) if out is None else out
    np.copyto(k, counts)
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
    """Validate a run of n trials; return _batch(b) -> (accepted, x, y, spent)
    drawn from batch b's own substream into views of the calling thread's
    buffers, valid until its next batch; `spent` is two rows free to reuse."""
    if n < 1:
        raise ValidationError("need at least one trial")
    _validate_couplings(g_a, g_b)
    _one_coupling_per_meter("sampling", g_a, g_b)
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
    # The ratio g^T M g / g^T g, K o W in M, over the live branches (a zero-weight
    # branch is never drawn, and K vanishes on it).  Each branch shifts one meter by s
    # (a = (g_A, 0, 0), b = (0, g_B, -g_B)), so log g_k = -(x^2 + y^2) / 4 + l_k, whose
    # first term cancels, with l_k = r s / 2 - s^2 / 4 + log(p_k) / 2 in its readout r.
    live = np.flatnonzero(probabilities).tolist()
    roots = np.sqrt(probabilities)
    own = (shifts_a[0], shifts_b[1], shifts_b[2])
    logs = [(k, own[k] / 2.0, own[k] * own[k] / 4.0 - np.log(roots[k])) for k in live]
    # g^T M g as the pair terms g_i g_j w_ij, i <= j, with w_ij = (2 - [i = j]) Re M_ij
    pairs = [(i, j, (2.0 - (i == j)) * coherence[i, j].real * damping[i, j]
              / (roots[i] * roots[j])) for i in live for j in live if j >= i]
    size = min(TRIALS_PER_BATCH, n)
    # one block of buffers per worker thread, freed when the call's last
    # reference to _batch goes
    workspace = threading.local()

    def _batch(b: int):
        rows = min(TRIALS_PER_BATCH, n - b * TRIALS_PER_BATCH)
        block = getattr(workspace, "block", None)
        if block is None:
            block = workspace.block = np.empty((8 * 8 + 1) * size, np.uint8)
        reals = block[:8 * 8 * size].view(float)
        # two uniforms and two normals per trial, each kind drawn as two
        # contiguous rows; the normals become the readouts
        u, z = (reals[i * size:i * size + 2 * rows].reshape(2, rows) for i in (0, 2))
        g1, g2, num, scratch = reals[4 * size:].reshape(4, size)[:, :rows]
        accept = block[8 * 8 * size:][:rows].view(bool)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, b])))
        gen.random(out=u)
        gen.standard_normal(out=z)
        bx, by = z
        # counted in scratch's bytes, the indices left in the pick uniforms' bytes
        branch = _pick_branches(probabilities, u[0], out=u[0].view(np.intp), scratch=scratch)
        # mode="clip" writes to `out` directly, where "raise" buffers a copy
        bx += np.take(shifts_a, branch, out=scratch, mode="clip")
        by += np.take(shifts_b, branch, out=scratch, mode="clip")
        g = u[0], g1, g2  # the indices are spent
        for k, slope, offset in logs:
            np.subtract(np.multiply((bx, by, by)[k], slope, out=g[k]), offset, out=g[k])
        # g_k = exp(l_k - max_j l_j) <= 1, so g^T g >= 1
        lead = np.maximum(g[live[0]], g[live[-1]], out=num)
        for k in live[1:-1]:
            np.maximum(lead, g[k], out=lead)
        for k in live:
            np.exp(np.subtract(g[k], lead, out=g[k]), out=g[k])
        # the pair terms summed in num, then g^T g in scratch over squared g
        (i, j, weight), *rest = pairs
        np.multiply(np.multiply(g[i], g[j], out=num), weight, out=num)
        for i, j, weight in rest:
            num += np.multiply(np.multiply(g[i], g[j], out=scratch), weight, out=scratch)
        den = np.square(g[live[0]], out=scratch)
        for k in live[1:]:
            den += np.square(g[k], out=g[k])
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
        return np.less(u[1], ratio, out=accept), bx, by, (num, scratch)

    return _batch


def _map_batches(fn, n: int):
    """fn(b) for every batch b of n trials, yielded in batch order.

    With more than one worker and more than one batch, plain threads run the
    batches: each worker takes the next unstarted batch, and no batch starts
    more than workers ahead of the one the caller waits for, so at most
    workers + 1 are started and not yet yielded whatever n is.  A batch's
    exception is raised in its place, and no batch beyond the window starts
    after it.  The workers are joined before the generator returns, is closed
    or raises; one worker or one batch starts no thread.
    """
    n_batches = (n + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH
    workers = min(max_threads(), n_batches)
    if workers < 2:
        yield from map(fn, range(n_batches))
        return
    cond = threading.Condition()
    done = {}  # batch -> (raised, fn's result or its exception)
    started = wanted = 0  # batches started; the batch the caller waits for
    stop = False

    def work():
        nonlocal started
        while True:
            with cond:
                cond.wait_for(lambda: stop or started <= wanted + workers)
                b = started
                if stop or b >= n_batches:
                    return
                started += 1
            try:
                result = False, fn(b)
            except BaseException as exc:
                result = True, exc
            with cond:
                done[b] = result
                cond.notify_all()

    threads = [threading.Thread(target=work) for _ in range(workers)]
    try:
        for thread in threads:
            thread.start()
        for wanted in range(n_batches):
            with cond:
                cond.notify_all()  # the window has moved on to `wanted`
                cond.wait_for(lambda: wanted in done)
                raised, value = done.pop(wanted)
            if raised:
                raise value
            yield value
    finally:
        with cond:
            stop = True
            cond.notify_all()
        for thread in threads:
            if thread.ident is not None:
                thread.join()


def _moments(accepted: np.ndarray, x: np.ndarray, y: np.ndarray, spent=None):
    """(count, successes, mean, M2) of the products tau * x * y of one batch,
    tau being +1 where `accepted` and -1 elsewhere, M2 the sum of squared
    deviations from the batch mean, computed in the two rows `spent` if given."""
    tau, products = np.empty((2, x.size)) if spent is None else spent
    # tau = 2 * accepted - 1 exactly, and multiplying by it is exact
    np.copyto(tau, accepted)
    np.subtract(np.multiply(tau, 2.0, out=tau), 1.0, out=tau)
    np.multiply(x, y, out=products)
    products *= tau
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
    noise: NoiseModel = NoiseModel(),
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
        accepted, x[sl], y[sl], _ = batch(b)
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
    noise: NoiseModel = NoiseModel(),
) -> EstimatorOutput:
    """The estimate of `estimate_cheshire(sample_trials(...))`, bit for bit,
    without keeping the trials: each batch is reduced by the worker that drew
    it, so memory stays one 65-byte-per-trial workspace (about 2.1 MB) per
    worker and at most workers + 1 batches in flight at any n.  The route
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
    noise: NoiseModel = NoiseModel(),
) -> float:
    """Exact per-trial variance of tau x y, readout noise included.

    Success and failure densities sum to the classical mixture, whose
    branches factorize, so every second moment is in closed form:
    var = E[x^2 y^2] + nu_B^2 E[x^2] + nu_A^2 E[y^2] + nu_A^2 nu_B^2 - C^2,
    with C the closed form's `indicator._indicator`.
    """
    _validate_couplings(g_a, g_b)
    g_a, g_b = np.asarray(g_a, dtype=float), np.asarray(g_b, dtype=float)
    c = _indicator(_coherence(coherence), g_a, g_b)
    pa, pb, pc = weights.probabilities
    ex2 = pa * (1.0 + g_a * g_a) + (pb + pc)
    ey2 = pa + (pb + pc) * (1.0 + g_b * g_b)
    ex2y2 = pa * (1.0 + g_a * g_a) + (pb + pc) * (1.0 + g_b * g_b)
    return _unstack(
        ex2y2
        + noise.nu_b ** 2 * ex2
        + noise.nu_a ** 2 * ey2
        + noise.nu_a ** 2 * noise.nu_b ** 2
        - c * c
    )


class NoiseStudyRow(NamedTuple):
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
    _one_coupling_per_meter("noise_robustness", g_a, g_b)
    _validate_couplings(g_a, g_b)
    c = _indicator(_coherence(coherence), g_a, g_b).item()
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
