"""Joint system-meter evolution with postselection.

The preparation splits into three branches: left arm (meter A shifted by
g_A, meter B untouched) and right arm with either polarization (meter A
untouched, meter B shifted by +g_B or -g_B).  Postselecting the system
leaves the meters in the success-branch wavefunction

    F(x, y) = l phi0(x - g_A) phi0(y)
            + r+ phi0(x) phi0(y - g_B)
            + r- phi0(x) phi0(y + g_B)

with squared norm equal to the postselection success probability P.  The
failed branch is mixed; only its pointer-diagonal density is needed, and
it equals the classically correlated mixture minus |F|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, PositivityError, ValidationError
from .meter import (
    DEFAULT_GRID,
    GaussianMeter,
    Grid,
    GridMeter,
    _check_edges,
    _shifted,
    _trapezoid_weights,
    gaussian_ground_state,
    pointer_matrices,
)
from .qsystem import PhotonKet, TransitionAmplitudes, _coherence

PROBABILITY_TOL = 1e-10
POSITIVITY_TOL = 1e-10
WEIGHT_NORM_TOL = 1e-12
REALIZABILITY_TOL = 1e-9

# Per-branch pointer shifts in units of (g_A, g_B): branch order (L, R+, R-).
BRANCH_SHIFTS_A = (1.0, 0.0, 0.0)
BRANCH_SHIFTS_B = (0.0, 1.0, -1.0)


@dataclass(frozen=True)
class BranchWeights:
    """Preparation amplitudes (a, b, c) on the left arm and the two
    right-arm polarizations; a is the norm of the left-arm component."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        total = abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2
        if abs(total - 1.0) > WEIGHT_NORM_TOL:
            raise ValidationError(f"branch weights norm^2 = {total!r}, expected 1 within {WEIGHT_NORM_TOL}")

    @classmethod
    def from_preparation(cls, prep: PhotonKet) -> "BranchWeights":
        if not prep.is_normalized:
            raise ValidationError("preparation ket must be normalized")
        amps = prep.amplitudes
        a = math.sqrt(float(abs(amps[0]) ** 2 + abs(amps[1]) ** 2))
        return cls(a, complex(amps[2]), complex(amps[3]))

    @property
    def probabilities(self) -> tuple[float, float, float]:
        return (abs(self.a) ** 2, abs(self.b) ** 2, abs(self.c) ** 2)


def _check_realizable(coherence, weights: BranchWeights) -> None:
    """K must come from some effect 0 <= E <= 1 over the preparation the
    weights p describe, so 0 <= K <= diag(p): a zero-weight branch has a
    vanishing diagonal entry, and M = D^(-1/2) K D^(-1/2), D = diag(p), over
    the other branches has eigenvalues in [0, 1] (for pure K the largest is
    the budget sum_k |c_k|^2 / p_k).

    The check is two Cholesky factorizations in plain Python, of
    M + tol I and (1 + tol) I - M with tol = REALIZABILITY_TOL: both succeed
    exactly when M's eigenvalues lie in [-tol, 1 + tol], up to rounding of
    about 1e-16.  Only a failing check computes the eigenvalues, for its
    message.
    """
    k = _coherence(coherence).tolist()
    p = weights.probabilities
    live = [i for i in range(3) if p[i] >= 1e-30]
    if any(abs(k[i][i]) > 1e-24 for i in range(3) if i not in live):
        raise ValidationError(
            "branch coherence is non-zero on a branch with zero preparation weight"
        )
    scale = [1.0 / math.sqrt(p[i]) for i in live]
    m = [[k[i][j] * (s_i * s_j) for j, s_j in zip(live, scale)] for i, s_i in zip(live, scale)]
    n = range(len(m))
    above_floor = [[m[i][j] + (REALIZABILITY_TOL if i == j else 0.0) for j in n] for i in n]
    below_ceiling = [[(1.0 + REALIZABILITY_TOL if i == j else 0.0) - m[i][j] for j in n] for i in n]
    if not (_positive_definite(above_floor) and _positive_definite(below_ceiling)):
        m = np.array(m)
        found = "non-finite entries"
        if np.all(np.isfinite(m)):
            found = f"eigenvalues {np.linalg.eigvalsh(m)!r} outside [0, 1]"
        raise ValidationError(
            f"diag(p)^(-1/2) K diag(p)^(-1/2) has {found}; "
            "the branch coherence is inconsistent with the given branch weights"
        )


def _positive_definite(a: list[list[complex]]) -> bool:
    """Whether the Cholesky factorization of a small Hermitian matrix meets
    only positive pivots (a nan pivot fails)."""
    factor: list[list[complex]] = []
    for i, row in enumerate(a):
        factor.append([])
        for j in range(i + 1):
            partial = row[j] - sum(factor[i][q] * factor[j][q].conjugate() for q in range(j))
            if j < i:
                factor[i].append(partial / factor[j][j])
            elif not partial.real > 0.0:
                return False
            else:
                factor[i].append(math.sqrt(partial.real))
    return True


def _branch_shifts(g_a, g_b) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch pointer shifts of each meter, shape (..., 3) over a stack
    of couplings."""
    def shifts(g, units):
        g = np.asarray(g, dtype=float)
        # an unshifted branch stays at 0 even for infinite coupling
        return np.stack([s * g if s != 0.0 else np.zeros_like(g) for s in units], axis=-1)

    return shifts(g_a, BRANCH_SHIFTS_A), shifts(g_b, BRANCH_SHIFTS_B)


def _validate_couplings(g_a, g_b) -> None:
    # +inf is allowed: it models perfectly distinguishable pointer states
    if not (np.all(np.asarray(g_a) >= 0.0) and np.all(np.asarray(g_b) >= 0.0)):
        raise ValidationError("couplings must be >= 0")


def _check_weights(*weights: str) -> None:
    for w in weights:
        if w not in ("1", "x"):
            raise ValidationError(f"pointer observable must be '1' or 'x', got {w!r}")


@dataclass(frozen=True)
class SuccessMoments:
    """Unnormalized success-branch integrals over the joint readout.

    ``norm`` is P = int |F|^2; ``x``, ``y``, ``xy`` carry the weight
    functions x, y and xy against |F|^2 (not divided by P).
    """

    norm: float
    x: float
    y: float
    xy: float


def success_probability(coherence, g_a: float, g_b: float) -> float:
    """P = sum_jk Re(K_jk <M_j|M_k>) over the branch pairs; for pure states
    |l|^2 + |r+|^2 + |r-|^2 + 2 w_A w_B Re[l*(r+ + r-)] + 2 exp(-g_B^2/2) Re[r+* r-]."""
    p = success_moments(coherence, g_a, g_b).norm
    if not (-PROBABILITY_TOL <= p <= 1.0 + PROBABILITY_TOL):
        raise ConsistencyError(f"success probability {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def _unstack(values):
    """A stack of values as an array; a 0-d stack as its one Python scalar."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def branch_terms(coherence: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(K_jk A_jk B_jk) for every branch pair (j, k).

    Every exact success-branch quantity is a sum of these terms: K holds the
    branch coherences, A and B one pointer matrix of each meter (or stacks
    of them, broadcast against K).  An exactly-zero factor annihilates even
    an infinite partner.
    """
    if np.isrealobj(a) and np.isrealobj(b):
        # real pointer matrices stay real: complex times inf gives nan
        coherence = coherence.real
    live = (coherence != 0.0) & (a != 0.0) & (b != 0.0)
    terms = np.zeros(live.shape, dtype=np.result_type(coherence, a, b))
    np.multiply(coherence, a, out=terms, where=live)
    np.multiply(terms, b, out=terms, where=live)
    return terms.real


def _total(terms: np.ndarray) -> np.ndarray:
    # plain float addition along the last axis, in order, for every entry of
    # the leading stack: inf - inf gives nan silently
    out = np.zeros(terms.shape[:-1])
    with np.errstate(invalid="ignore"):
        for i in range(terms.shape[-1]):
            out = out + terms[..., i]
    return out


def success_moments(coherence, g_a: float, g_b: float) -> SuccessMoments:
    """Closed-form branch-pair sums over K for P and the first success moments."""
    _validate_couplings(g_a, g_b)
    shifts_a, shifts_b = _branch_shifts(g_a, g_b)
    a1, ax = pointer_matrices(shifts_a)
    b1, bx = pointer_matrices(shifts_b)
    # weight pairs (1, 1), (x, 1), (1, x), (x, x) stacked into one kernel call
    terms = branch_terms(_coherence(coherence), np.stack([a1, ax, a1, ax]), np.stack([b1, b1, bx, bx]))
    return SuccessMoments(*_total(terms.reshape(4, 9)).tolist())


@dataclass(frozen=True, eq=False)
class JointMeterState:
    """Success-branch meter wavefunction F for a given amplitude triple."""

    amps: TransitionAmplitudes
    meter_a: GaussianMeter | GridMeter
    meter_b: GaussianMeter | GridMeter
    g_a: float
    g_b: float

    def __post_init__(self):
        _validate_couplings(self.g_a, self.g_b)
        if not (math.isfinite(self.g_a) and math.isfinite(self.g_b)):
            raise ValidationError("grid evaluation needs finite couplings")
        for meter, g in ((self.meter_a, self.g_a), (self.meter_b, self.g_b)):
            if isinstance(meter, GaussianMeter) and meter.g != g:
                raise ValidationError("meter coupling disagrees with the joint-state coupling")

    @classmethod
    def gaussian(cls, amps: TransitionAmplitudes, g_a: float, g_b: float) -> "JointMeterState":
        return cls(amps, GaussianMeter(g_a), GaussianMeter(g_b), g_a, g_b)

    def branch_waves_a(self, x: np.ndarray) -> np.ndarray:
        shifts, _ = _branch_shifts(self.g_a, self.g_b)
        return _branch_waves(self.meter_a, shifts, x)

    def branch_waves_b(self, y: np.ndarray) -> np.ndarray:
        _, shifts = _branch_shifts(self.g_a, self.g_b)
        return _branch_waves(self.meter_b, shifts, y)

    def evaluate(self, x, y) -> np.ndarray:
        """F(x, y) with numpy broadcasting over coordinate arrays."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        wa = self.branch_waves_a(x.ravel()).reshape(3, *x.shape)
        wb = self.branch_waves_b(y.ravel()).reshape(3, *y.shape)
        coeffs = np.array([self.amps.l, self.amps.r_plus, self.amps.r_minus])
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
        for k in range(3):
            out = out + coeffs[k] * wa[k] * wb[k]
        return out

    def success_probability(self) -> float:
        if isinstance(self.meter_a, GaussianMeter) and isinstance(self.meter_b, GaussianMeter):
            return success_probability(self.amps, self.g_a, self.g_b)
        moments = grid_moments(self)
        if not (-PROBABILITY_TOL <= moments.norm <= 1.0 + PROBABILITY_TOL):
            raise ConsistencyError(f"success probability {moments.norm!r} outside [0, 1]")
        return min(max(moments.norm, 0.0), 1.0)


def _branch_waves(meter, shifts, x: np.ndarray) -> np.ndarray:
    """Rows are the pointer wavefunction shifted by each branch shift."""
    if isinstance(meter, GaussianMeter):
        return np.stack([gaussian_ground_state(x - s).astype(complex) for s in shifts])
    if isinstance(meter, GridMeter):
        if not np.array_equal(x, meter.grid.points):
            raise ValidationError("grid meter branches must be evaluated on the meter's own grid")
        _check_edges(meter, shifts)
        return _shifted(meter, shifts)
    raise ValidationError(f"expected GaussianMeter or GridMeter, got {type(meter).__name__}")


def grid_moments(
    state: JointMeterState,
    grid_a: Grid | None = None,
    grid_b: Grid | None = None,
    block_rows: int = 256,
) -> SuccessMoments:
    """Trapezoidal quadrature of (1, x, y, xy) against |F|^2.

    Works row-block by row-block so memory stays O(block * n_y) even on
    fine grids.
    """
    grid_a = grid_a or getattr(state.meter_a, "grid", None) or DEFAULT_GRID
    grid_b = grid_b or getattr(state.meter_b, "grid", None) or DEFAULT_GRID
    x = grid_a.points
    y = grid_b.points
    wa = state.branch_waves_a(x)
    wb = state.branch_waves_b(y)
    coeffs = np.array([state.amps.l, state.amps.r_plus, state.amps.r_minus])

    tw_a = _trapezoid_weights(grid_a)
    tw_b = _trapezoid_weights(grid_b)
    norm = sx = sy = sxy = 0.0
    for lo in range(0, len(x), block_rows):
        hi = min(lo + block_rows, len(x))
        f_block = (coeffs[:, None] * wa[:, lo:hi]).T @ wb
        density = f_block.real ** 2 + f_block.imag ** 2
        row_mass = density @ tw_b
        row_first = density @ (y * tw_b)
        block_w = tw_a[lo:hi]
        block_xw = x[lo:hi] * block_w
        norm += float(block_w @ row_mass)
        sx += float(block_xw @ row_mass)
        sy += float(block_w @ row_first)
        sxy += float(block_xw @ row_first)
    return SuccessMoments(norm, sx, sy, sxy)


def classical_mixture_density(
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    grid_a: Grid = DEFAULT_GRID,
    grid_b: Grid = DEFAULT_GRID,
) -> np.ndarray:
    """p_cl(x, y): the branch-weighted product of shifted pointer densities."""
    _validate_couplings(g_a, g_b)
    if not (math.isfinite(g_a) and math.isfinite(g_b)):
        raise ValidationError("grid evaluation needs finite couplings")
    x = grid_a.points
    y = grid_b.points
    shifts_a, shifts_b = _branch_shifts(g_a, g_b)
    out = np.zeros((len(x), len(y)))
    for p, sa, sb in zip(weights.probabilities, shifts_a, shifts_b):
        if p == 0.0:
            continue
        da = gaussian_ground_state(x - sa) ** 2
        db = gaussian_ground_state(y - sb) ** 2
        out += p * np.outer(da, db)
    return out


@dataclass(frozen=True, eq=False)
class FailureBranch:
    """Pointer-space density of the failed-postselection branch."""

    density: np.ndarray
    grid_a: Grid
    grid_b: Grid
    total_probability: float

    def moment(self, x_weight: str = "1", y_weight: str = "1") -> float:
        """Trapezoidal integral of w_A(x) w_B(y) p_f(x, y)."""
        _check_weights(x_weight, y_weight)
        va = _trapezoid_weights(self.grid_a)
        vb = _trapezoid_weights(self.grid_b)
        if x_weight == "x":
            va = va * self.grid_a.points
        if y_weight == "x":
            vb = vb * self.grid_b.points
        return float(va @ self.density @ vb)


def failure_density(
    amps: TransitionAmplitudes,
    weights: BranchWeights,
    g_a: float,
    g_b: float,
    grid_a: Grid = DEFAULT_GRID,
    grid_b: Grid = DEFAULT_GRID,
) -> FailureBranch:
    """p_f = p_cl - |F|^2, the diagonal of the failed-branch meter state.

    Non-negative whenever the amplitudes are realizable from the branch
    weights; a dip below -1e-10 signals inconsistent inputs.
    """
    _check_realizable(amps, weights)
    p_cl = classical_mixture_density(weights, g_a, g_b, grid_a, grid_b)
    state = JointMeterState.gaussian(amps, g_a, g_b)
    f = np.einsum(
        "k,kx,ky->xy",
        np.array([amps.l, amps.r_plus, amps.r_minus]),
        state.branch_waves_a(grid_a.points),
        state.branch_waves_b(grid_b.points),
    )
    p_f = p_cl - np.abs(f) ** 2
    worst = float(p_f.min())
    if worst < -POSITIVITY_TOL:
        raise PositivityError(
            f"failure density reaches {worst!r} < -{POSITIVITY_TOL}; "
            "amplitudes and branch weights are inconsistent"
        )
    np.clip(p_f, 0.0, None, out=p_f)
    total = float(_trapezoid_weights(grid_a) @ p_f @ _trapezoid_weights(grid_b))
    p_f.setflags(write=False)
    return FailureBranch(p_f, grid_a, grid_b, total)
