"""Joint system-meter evolution with postselection.

The preparation splits into three branches: left arm (meter A shifted by
g_A, meter B untouched) and right arm with either polarization (meter A
untouched, meter B shifted by +g_B or -g_B).  Branch k leaves the meters in
the product wave w_k(x, y) = phi0(x - s^A_k) phi0(y - s^B_k).  Postselecting
the system on an effect E leaves the success-branch readout density

    p_s = Re sum_jk K_jk w_j* w_k,    K_jk = Tr(E P_k rho P_j),

which integrates to the success probability P.  For pure E and rho,
K = conj(c) c^T with c = (l, r+, r-), and p_s = |F|^2 with

    F(x, y) = l phi0(x - g_A) phi0(y)
            + r+ phi0(x) phi0(y - g_B)
            + r- phi0(x) phi0(y + g_B).

p_s is linear in K: K = diag(p) gives the classically correlated mixture
p_cl, and diag(p) - K the pointer-diagonal density p_cl - p_s of the
failed branch, which is mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .meter import (
    DEFAULT_GRID,
    Grid,
    GridMeter,
    _one_coupling_per_meter,
    _validate_couplings,
    gaussian_ground_state,
    pointer_matrices,
)
from .qsystem import PhotonKet, _coherence
from .tolerances import DEAD_BRANCH_COHERENCE, DEAD_BRANCH_WEIGHT, NORM_TOL, REALIZABILITY_TOL

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
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValidationError(f"branch weights norm^2 = {total!r}, expected 1 within {NORM_TOL}")

    @classmethod
    def from_preparation(cls, prep: PhotonKet) -> "BranchWeights":
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
    live = [i for i in range(3) if p[i] >= DEAD_BRANCH_WEIGHT]
    if any(abs(k[i][i]) > DEAD_BRANCH_COHERENCE for i in range(3) if i not in live):
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
    return np.multiply.outer(g_a, BRANCH_SHIFTS_A), np.multiply.outer(g_b, BRANCH_SHIFTS_B)


class SuccessMoments(NamedTuple):
    """Unnormalized integrals of the success branch over the joint readout,
    in closed form from `success_moments`.

    ``norm`` is P = int |F|^2; ``x``, ``y``, ``xy`` carry the weight
    functions x, y and xy against |F|^2 (not divided by P).
    """

    norm: float
    x: float
    y: float
    xy: float


def _unstack(values):
    """A stack of values as an array; a 0-d stack as its one Python scalar."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def branch_terms(coherence: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(K_jk A_jk B_jk) for every branch pair (j, k).

    Every exact success-branch quantity is a sum of these terms (see
    `_total`): K holds the branch coherences, A and B one pointer matrix of
    each meter (or stacks of them, broadcast against K).
    """
    return (coherence * a * b).real


def _total(terms: np.ndarray) -> np.ndarray:
    # plain float addition along the last axis, in order, for every entry of
    # the leading stack; starting from +0.0 makes a sum of signed zeros +0.0
    out = np.zeros(terms.shape[:-1])
    for i in range(terms.shape[-1]):
        out = out + terms[..., i]
    return out


def success_moments(coherence, g_a, g_b) -> SuccessMoments:
    """Closed-form branch-pair sums over K for P and the first success
    moments, elementwise over stacked couplings with the bits of scalar calls."""
    state = JointMeterState(coherence, g_a, g_b)
    (a1, ax), (b1, bx) = state.pointer_matrices
    # weight pairs (1, 1), (x, 1), (1, x), (x, x) on an axis after the coupling stacks
    terms = branch_terms(state.coherence, np.stack([a1, ax, a1, ax], axis=-3),
                         np.stack([b1, b1, bx, bx], axis=-3))
    sums = _total(terms.reshape(*terms.shape[:-2], 9))
    return SuccessMoments(*(_unstack(sums[..., i]) for i in range(4)))


@dataclass(frozen=True, eq=False)
class JointMeterState:
    """Meter state over the branch coherence K (or a `TransitionAmplitudes`
    triple for its rank-1 K): the success branch for K, the failed branch for
    diag(p) - K and the classical mixture for diag(p), all unnormalized.

    Both meters start in the pointer state ``meter``: a `GridMeter`, or None
    for the Gaussian closed form.  The couplings may be stacks that
    broadcast together, for `pointer_matrices`.
    """

    coherence: np.ndarray
    g_a: float
    g_b: float
    meter: GridMeter | None = None

    def __post_init__(self):
        object.__setattr__(self, "coherence", _coherence(self.coherence))
        _validate_couplings(self.g_a, self.g_b)
        if self.meter is not None and not isinstance(self.meter, GridMeter):
            raise ValidationError(f"expected None or a GridMeter, got {type(self.meter).__name__}")

    @cached_property
    def pointer_matrices(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """((A_1, A_x), (B_1, B_x)): the meter's read-only `pointer_matrices`
        over each meter's branch shifts, (..., 3, 3) over the coupling stack,
        summed once per state for every route that reads them."""
        shifts = _branch_shifts(self.g_a, self.g_b)
        matrices = tuple(pointer_matrices(s, self.meter) for s in shifts)
        for m in (m for pair in matrices for m in pair):
            m.setflags(write=False)
        return matrices


def classical_mixture_density(
    weights: BranchWeights, g_a: float, g_b: float, grid: Grid = DEFAULT_GRID
) -> np.ndarray:
    """p_cl(x, y) = sum_k p_k |w_k(x, y)|^2 on grid x grid, the readout
    density over K = diag(p), for Gaussian pointers."""
    _validate_couplings(g_a, g_b)
    _one_coupling_per_meter("grid evaluation", g_a, g_b)
    shifts_a, shifts_b = _branch_shifts(g_a, g_b)
    x = grid.points
    a, b = (gaussian_ground_state(x - shifts[:, None]) ** 2 for shifts in (shifts_a, shifts_b))
    return (a.T * weights.probabilities) @ b
