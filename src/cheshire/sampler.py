"""Monte Carlo trial engine for the signed cross-moment estimator.

Each trial draws a postselection outcome tau = +1 (probability P) or -1,
then pointer readouts (x, y) from the matching branch density: |F|^2 / P
on success, p_f / (1 - P) on failure.  Optional zero-mean Gaussian
readout noise is added to both branches (same apparatus either way).
The indicator is estimated as the average of tau * x * y over all trials;
independent zero-mean noise leaves that average unbiased and only
inflates the per-trial variance.

Randomness is counter-based: trials are generated in fixed-size batches
of 2^16, batch b using the Philox stream `Philox(key=seed).jumped(b)`
with a fixed draw budget per batch.  The trial stream is therefore
bit-identical for a given seed regardless of how batches are scheduled
across threads.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _branch_shifts,
    _check_realizable,
    BranchWeights,
    JointMeterState,
    classical_mixture_density,
    success_moments,
    success_probability,
)
from .errors import ValidationError
from .meter import DEFAULT_GRID, Grid, check_coverage
from .qsystem import TransitionAmplitudes

TRIALS_PER_BATCH = 1 << 16
THREADS_ENV_VAR = "CHESHIRE_THREADS"

DETECTION_Z = 5.0


@dataclass(frozen=True)
class TrialRecord:
    """One experimental run: postselection flag and the two readouts."""

    tau: int
    x: float
    y: float

    def __post_init__(self):
        if self.tau not in (1, -1):
            raise ValidationError(f"tau must be +1 or -1, got {self.tau!r}")


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

    def __iter__(self):
        for t, xv, yv in zip(self.tau, self.x, self.y):
            yield TrialRecord(int(t), float(xv), float(yv))

    @classmethod
    def from_records(cls, records) -> "Trials":
        rows = [(r.tau, r.x, r.y) for r in records]
        if not rows:
            return cls(np.zeros(0, dtype=np.int8), np.zeros(0), np.zeros(0))
        tau, x, y = (np.array(col) for col in zip(*rows))
        return cls(tau, x, y)

    def products(self) -> np.ndarray:
        """The per-trial signed products tau * x * y."""
        return self.tau.astype(float) * self.x * self.y


@dataclass(frozen=True)
class EstimatorOutput:
    c_hat: float
    std_error: float
    p_hat: float
    n_trials: int


class GridSampler2D:
    """Tabulated inverse-CDF sampler for a non-negative density on a grid.

    Cell masses come from corner averages; a draw picks an x-cell from the
    row-marginal CDF, a y-cell from the conditional CDF of that row (via a
    single search on a flattened, globally nondecreasing offset table),
    and jitters uniformly inside the cell.  Exact to grid resolution,
    deterministic, and vectorized.
    """

    def __init__(self, density: np.ndarray, grid_a: Grid, grid_b: Grid):
        d = np.asarray(density, dtype=float)
        if d.shape != (grid_a.n_points, grid_b.n_points):
            raise ValidationError("density shape must match the two grids")
        if d.min() < 0.0:
            raise ValidationError("density must be non-negative")
        self.grid_a = grid_a
        self.grid_b = grid_b
        dx = grid_a.spacing
        dy = grid_b.spacing

        cells = 0.25 * (d[:-1, :-1] + d[1:, :-1] + d[:-1, 1:] + d[1:, 1:]) * dx * dy
        total = float(cells.sum())
        if total <= 0.0:
            raise ValidationError("density integrates to zero; nothing to sample")
        self.total_mass = total

        row_mass = cells.sum(axis=1)
        self._row_cdf = np.cumsum(row_mass) / total
        self._row_cdf[-1] = 1.0

        cond = np.cumsum(cells, axis=1)
        np.divide(cond, row_mass[:, None], out=cond, where=row_mass[:, None] > 0.0)
        cond[:, -1] = 1.0
        # flatten with per-row integer offsets: globally nondecreasing, so
        # one vectorized search resolves the conditional y-cell
        self._flat_cond = (np.arange(cells.shape[0])[:, None] + cond).ravel()
        self._n_cells_b = cells.shape[1]

    def sample(self, u_x, u_jx, u_y, u_jy) -> tuple[np.ndarray, np.ndarray]:
        """Map uniform [0,1) draws to (x, y) samples."""
        n_b = self._n_cells_b
        i = np.searchsorted(self._row_cdf, u_x, side="right")
        np.clip(i, 0, len(self._row_cdf) - 1, out=i)
        j = np.searchsorted(self._flat_cond, i + u_y, side="right") - i * n_b
        np.clip(j, 0, n_b - 1, out=j)
        x = self.grid_a.x_min + (i + u_jx) * self.grid_a.spacing
        y = self.grid_b.x_min + (j + u_jy) * self.grid_b.spacing
        return x, y


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


def _branch_densities(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    grid_a: Grid,
    grid_b: Grid,
) -> tuple[np.ndarray, np.ndarray]:
    """(|F|^2, p_f) on the sampling grids."""
    state = JointMeterState.gaussian(amps, g_a, g_b)
    coeffs = np.array([amps.l, amps.r_plus, amps.r_minus])
    wa = state.branch_waves_a(grid_a.points)
    wb = state.branch_waves_b(grid_b.points)
    f = (coeffs[:, None] * wa).T @ wb
    success = np.abs(f) ** 2
    p_cl = classical_mixture_density(weights, g_a, g_b, grid_a, grid_b)
    failure = np.clip(p_cl - success, 0.0, None)
    return success, failure


def sample_trials(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    n: int,
    seed: int,
    noise: NoiseModel = NO_NOISE,
    grid_a: Grid = DEFAULT_GRID,
    grid_b: Grid = DEFAULT_GRID,
    threads: int | None = None,
) -> Trials:
    """Simulate n independent trials; bit-identical for a given seed.

    Trials are generated in fixed batches of TRIALS_PER_BATCH, each from
    its own counter-based substream, so the result does not depend on the
    thread count.
    """
    if n < 1:
        raise ValidationError("need at least one trial")
    _check_realizable(amps, weights)
    shifts_a, shifts_b = _branch_shifts(g_a, g_b)
    check_coverage(grid_a, shifts_a)
    check_coverage(grid_b, shifts_b)

    p = success_probability(amps, g_a, g_b)
    success_density, failure_density = _branch_densities(amps, weights, g_a, g_b, grid_a, grid_b)
    success_sampler = GridSampler2D(success_density, grid_a, grid_b) if p > 0.0 else None
    failure_sampler = GridSampler2D(failure_density, grid_a, grid_b) if p < 1.0 else None
    del success_density, failure_density

    tau = np.empty(n, dtype=np.int8)
    x = np.empty(n)
    y = np.empty(n)

    def run_batch(b: int) -> None:
        start = b * TRIALS_PER_BATCH
        rows = min(TRIALS_PER_BATCH, n - start)
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        u = gen.random((rows, 5))
        eta = gen.standard_normal((rows, 2))
        ok = u[:, 0] < p
        bx = np.empty(rows)
        by = np.empty(rows)
        for mask, sampler in ((ok, success_sampler), (~ok, failure_sampler)):
            if not np.any(mask):
                continue
            if sampler is None:
                raise ValidationError("drew a trial from a zero-probability branch")
            bx[mask], by[mask] = sampler.sample(
                u[mask, 1], u[mask, 2], u[mask, 3], u[mask, 4]
            )
        bx += noise.nu_a * eta[:, 0]
        by += noise.nu_b * eta[:, 1]
        sl = slice(start, start + rows)
        tau[sl] = np.where(ok, 1, -1)
        x[sl] = bx
        y[sl] = by

    n_batches = (n + TRIALS_PER_BATCH - 1) // TRIALS_PER_BATCH
    workers = threads if threads is not None else max_threads()
    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_batch, range(n_batches)))
    else:
        for b in range(n_batches):
            run_batch(b)
    return Trials(tau, x, y)


def estimate_cheshire(trials) -> EstimatorOutput:
    """C estimate: mean of tau x y, its standard error, and the success rate."""
    if not isinstance(trials, Trials):
        trials = Trials.from_records(trials)
    n = len(trials)
    if n < 2:
        raise ValidationError("estimator needs at least 2 trials")
    products = trials.products()
    c_hat = float(products.mean())
    std_error = float(products.std(ddof=1)) / math.sqrt(n)
    p_hat = float(np.mean(trials.tau == 1))
    return EstimatorOutput(c_hat, std_error, p_hat, n)


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
        trials = sample_trials(amps, weights, g_a, g_b, n=n, seed=seed, noise=noise)
        estimate = estimate_cheshire(trials)
        variance = trial_variance(amps, weights, g_a, g_b, noise)
        n_required = math.inf if c == 0.0 else math.ceil(z * z * variance / (c * c))
        rows.append(NoiseStudyRow(noise.nu_a, noise.nu_b, estimate.c_hat,
                                  estimate.std_error, n_required))
    return rows


CSV_HEADER = ("tau", "x", "y")


def write_trials_csv(trials: Trials, path) -> None:
    """Trial stream as CSV with exact lowercase header and 17-digit floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for t, xv, yv in zip(trials.tau, trials.x, trials.y):
            writer.writerow((int(t), f"{xv:.17g}", f"{yv:.17g}"))


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
