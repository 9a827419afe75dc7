"""Meter models: the analytic unit-variance Gaussian and a grid oracle.

A meter is a one-dimensional pointer prepared in a zero-mean, unit-variance
state psi0.  Each branch of the particle shifts the pointer by its own
amount s_j, so every exact result needs only the two pointer matrices

    M_1[j, k] = int psi0*(x - s_j) psi0(x - s_k) dx
    M_x[j, k] = int x psi0*(x - s_j) psi0(x - s_k) dx

over the branch shifts (`pointer_matrices`).  For the Gaussian ground state
phi0(x) = (2 pi)^{-1/4} exp(-x^2/4) they have closed forms.  A `GridMeter`
is any pointer state given as a function of position and sampled on a
uniform grid; it shifts the state exactly, by evaluating the function at the
shifted points, and evaluates the matrices by trapezoidal quadrature.  It
serves as the numeric oracle.

Every coupling and readout-noise width is a finite real in [0, MAX_READOUT_SCALE].
exp(-g^2 / 8) underflows to 0.0 from g = 78 on, so the strong-measurement
limit is exact there and needs no infinite coupling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridTooSmall, ValidationError
from .tolerances import EDGE_AMPLITUDE_TOL, MEAN_TOL, POINTER_NORM_TOL, VARIANCE_TOL

# The largest coupling or readout-noise width: readouts then stay below about
# 1e51, so the estimator's sums of squared x * y (below 1e204 per trial), the
# squared shift gaps and nu_A^2 nu_B^2 stay finite at any trial count.  From
# g = 78 on, every coupling already gives the strong-measurement limit.
MAX_READOUT_SCALE = 1e50

_GAUSS_NORM = (2.0 * math.pi) ** -0.25


def _real_scales(values) -> bool:
    """Whether couplings or noise widths, a scalar or a stack, are real (not bool,
    complex, str or None) and in [0, MAX_READOUT_SCALE]: nan and +-inf fail."""
    array = np.asarray(values)
    real = array.dtype.kind in "iuf" or isinstance(values, numbers.Real) and type(values) is not bool
    # a Python float bound would be cast to a float32 stack's dtype, as inf
    return real and bool(np.all((array >= 0.0) & (array <= np.float64(MAX_READOUT_SCALE))))


def _validate_couplings(*couplings) -> None:
    """Each coupling, a scalar or a stack, must pass `_real_scales`.  Stacks
    must broadcast together."""
    if not all(map(_real_scales, couplings)):
        raise ValidationError(f"couplings must be finite reals in [0, {MAX_READOUT_SCALE:g}]")
    try:
        np.broadcast(*couplings)
    except ValueError:
        raise ValidationError("coupling stacks do not broadcast together") from None


def _one_coupling_per_meter(what: str, *couplings) -> None:
    """Reject a stack of couplings where ``what`` takes scalar couplings."""
    if any(np.ndim(g) for g in couplings):
        raise ValidationError(f"{what} needs one coupling per meter")


def gaussian_ground_state(x):
    """phi0(x) = (2 pi)^{-1/4} exp(-x^2 / 4): zero mean, unit variance."""
    # in place in one array, the same bits as _GAUSS_NORM * exp(-x^2 / 4):
    # scaling by 1/4 is exact
    phi = np.square(x, out=np.empty(np.shape(x)))
    phi *= -0.25
    np.exp(phi, out=phi)
    phi *= _GAUSS_NORM
    return phi[()]


def _overlap0(g: float) -> float:
    # unchecked, for the entries of a stack of couplings validated as a whole
    return math.exp(-g * g / 8.0)


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D lattice on [x_min, x_max] with n_points samples."""

    x_min: float = -20.0
    x_max: float = 20.0
    n_points: int = 4001

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("grid bounds must be finite")
        if not (self.x_max > self.x_min):
            raise ValidationError("grid needs x_max > x_min")
        if not isinstance(self.n_points, (int, np.integer)):
            raise ValidationError(f"grid needs an integer number of points, got {self.n_points!r}")
        if self.n_points < 2:
            raise ValidationError("grid needs at least 2 points")

    @cached_property
    def points(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.setflags(write=False)
        return x

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)


DEFAULT_GRID = Grid()


@dataclass(frozen=True, eq=False)
class GridMeter:
    """A pointer state given as a function of position, sampled on a grid.

    ``fn`` maps an array of positions to the state's amplitudes there.  Its
    samples psi0 on the grid must be normalized and unbiased (zero mean)
    with unit variance, so that the coupling is expressed in units of the
    initial pointer uncertainty.  Shifted copies are evaluated from ``fn``
    itself, so they are exact at any shift.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    grid: Grid = DEFAULT_GRID
    psi0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        psi = np.array(self.fn(self.grid.points), dtype=complex).reshape(-1)
        if psi.shape != (self.grid.n_points,):
            raise ValidationError(
                f"psi0 has {psi.shape[0]} samples but the grid has {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(psi.view(float))):
            raise ValidationError("psi0 must be finite")
        psi.setflags(write=False)
        object.__setattr__(self, "psi0", psi)

        x = self.grid.points
        dx = self.grid.spacing
        density = np.abs(psi) ** 2
        norm = float(np.trapezoid(density, dx=dx))
        if abs(norm - 1.0) > POINTER_NORM_TOL:
            raise ValidationError(
                f"pointer state norm^2 = {norm!r}, expected 1 within {POINTER_NORM_TOL}"
            )
        mean = float(np.trapezoid(x * density, dx=dx))
        if abs(mean) > MEAN_TOL:
            raise ValidationError(f"pointer state mean = {mean!r}, expected 0 within {MEAN_TOL}")
        var = float(np.trapezoid(x * x * density, dx=dx))
        if abs(var - 1.0) > VARIANCE_TOL:
            raise ValidationError(
                f"pointer state variance = {var!r}, expected 1 within {VARIANCE_TOL}"
            )

    @classmethod
    def gaussian(cls, grid: Grid = DEFAULT_GRID) -> "GridMeter":
        return cls(gaussian_ground_state, grid)

    @cached_property
    def _edge_mass(self) -> np.ndarray:
        """Trapezoid mass of |psi0|^2 over the first (row 0) and the last
        (row 1) k + 1 samples, at column k."""
        density = np.abs(self.psi0) ** 2
        pairs = self.grid.spacing * (density[1:] + density[:-1]) / 2.0
        return np.cumsum([np.r_[0.0, pairs], np.r_[0.0, pairs[::-1]]], axis=1)


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` / ``re-imi`` / plain real, with ``i`` for the unit."""
    cleaned = text.strip().replace("I", "i")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex value {text!r}") from exc


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n_points, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _check_edges(meter: GridMeter, shifts) -> None:
    """Raise at the first shift, in row-major order, that pushes significant
    amplitude off the grid: shift s moves the first (s < 0) or last (s > 0)
    ceil(|s| / dx) + 1 samples of |psi0|^2, at most all, past the edge."""
    shifts, grid = np.asarray(shifts, dtype=float).ravel(), meter.grid
    # a nan shift moves nothing off the grid; its waves fail `_check_finite`
    steps = np.nan_to_num(np.ceil(np.minimum(np.abs(shifts) / grid.spacing, grid.n_points - 1)))
    lost = meter._edge_mass[(shifts > 0).astype(int), steps.astype(int)]
    failing = lost > EDGE_AMPLITUDE_TOL
    if failing.any():
        i = failing.argmax()
        raise GridTooSmall(f"shift {float(shifts[i])} pushes squared amplitude {lost[i]:.3e} > "
                           f"{EDGE_AMPLITUDE_TOL} off the grid")


def _check_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationError("pointer function must be finite at every shifted point")


def _shifted(meter: GridMeter, shifts) -> np.ndarray:
    """psi0(x - s) on the lattice, one row per shift s (see `_check_edges`).

    The meter's function is evaluated once, on one flat array of shifted
    points.  Real states give real waves.
    """
    x = meter.grid.points
    shifts = np.asarray(shifts, dtype=float)
    waves = np.asarray(meter.fn((x - shifts[:, None]).ravel()))
    waves = waves if np.iscomplexobj(waves) else waves.astype(float, copy=False)
    return waves.reshape(len(shifts), len(x))


def pointer_matrices(shifts, meter=None) -> tuple[np.ndarray, np.ndarray]:
    """The pointer matrices (M_1, M_x) over the branch shifts.

    ``shifts`` has shape (..., n): a leading stack axis (one row of branch
    shifts per coupling) gives matrices of shape (..., n, n).  ``meter`` is
    None for the Gaussian closed forms M_1 = exp(-(s_j - s_k)^2 / 8),
    M_x = (s_j + s_k) / 2 * M_1, over finite shifts; a `GridMeter` uses
    trapezoidal quadrature on its own lattice, one stack row at a time, so
    its memory does not grow with the stack.  A shift column repeated across
    the stack, like the unshifted branches, is evaluated as one column of
    waves, and each pair of a row's waves is summed in one fixed order.  Edge
    errors are raised before any wave is evaluated, at the first failing
    shift in row-major order (`_check_edges`); a non-finite wave value raises
    `ValidationError`.
    """
    s = np.asarray(shifts, dtype=float)
    if meter is None:
        bra, ket = s[..., :, None], s[..., None, :]
        m1 = np.exp(-((bra - ket) ** 2) / 8.0)
        return m1, 0.5 * (bra + ket) * m1
    if isinstance(meter, GridMeter):
        rows = s.reshape(math.prod(s.shape[:-1]), s.shape[-1])
        _check_edges(meter, rows)
        weights = _trapezoid_weights(meter.grid)
        keys = [column.tobytes() for column in rows.T]
        first = [keys.index(key) for key in keys]
        distinct = sorted(set(first))
        columns, where = rows[:, distinct], np.searchsorted(distinct, first)
        shape, dtype = columns.shape + columns.shape[-1:], _shifted(meter, [0.0]).dtype
        m1, mx = np.empty(shape, dtype), np.empty(shape, dtype)
        for row, row_m1, row_mx in zip(columns, m1, mx):
            waves = _shifted(meter, row)
            bras = waves.conj() * weights
            np.einsum("in,jn->ij", bras, waves, out=row_m1)
            np.einsum("in,jn->ij", bras * meter.grid.points, waves, out=row_mx)
        # every weight is positive, so a non-finite wave value reaches M_1's diagonal
        _check_finite(m1)
        pair = (slice(None), where[:, None], where[None, :])
        return m1[pair].reshape(s.shape + s.shape[-1:]), mx[pair].reshape(s.shape + s.shape[-1:])
    raise ValidationError(f"expected None or a GridMeter, got {type(meter).__name__}")
