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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridTooSmall, ValidationError

# Bounds on a sampled pointer psi0's trapezoid integrals, which the closed form
# takes as 1, 0 and 1 and the grid oracle must match to 1e-6 (`cli.ORACLE_AGREEMENT_TOL`):
# norm^2 scales every pointer matrix, and so P and C, by the same factor;
POINTER_NORM_TOL = 1e-10
# a mean m moves every readout by m, and <xy> by m times the first moments;
MEAN_TOL = 1e-8
# a variance 1 + v rescales every coupling by about 1 + v/2.
VARIANCE_TOL = 1e-6

EDGE_AMPLITUDE_TOL = 1e-12

# Samples of shifted waves that `pointer_matrices` may hold at once on a grid
# meter, counting every shift of a block's rows (128 KiB as real numbers).
# glibc maps requests of 128 KiB and more afresh by default, so larger blocks
# pay page faults on every temporary; on the default 4001-point grid a block is
# one coupling, the three branch shifts of one meter.
WAVE_SAMPLES_PER_BLOCK = 1 << 14

# The largest coupling or readout-noise width: readouts then stay below about
# 1e51, so the estimator's sums of squared x * y (below 1e204 per trial), the
# squared shift gaps and nu_A^2 nu_B^2 stay finite at any trial count.  From
# g = 78 on, every coupling already gives the strong-measurement limit.
MAX_READOUT_SCALE = 1e50

_GAUSS_NORM = (2.0 * math.pi) ** -0.25


def _validate_couplings(*couplings) -> None:
    """Each coupling, a scalar or a stack, must lie in [0, MAX_READOUT_SCALE]:
    nan and +-inf fail the comparison.  Stacks must broadcast together."""
    couplings = [np.asarray(g) for g in couplings]
    for g in couplings:
        if not np.all((g >= 0.0) & (g <= MAX_READOUT_SCALE)):
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


def _edge_loss(meter: GridMeter, shift: float) -> float:
    """Squared amplitude that a shift pushes past the grid edge."""
    psi = meter.psi0
    dx = meter.grid.spacing
    if shift > 0:
        n_cut = int(math.ceil(shift / dx))
        tail = np.abs(psi[max(len(psi) - n_cut - 1, 0):]) ** 2
        return float(np.trapezoid(tail, dx=dx)) if len(tail) > 1 else 0.0
    if shift < 0:
        n_cut = int(math.ceil(-shift / dx))
        head = np.abs(psi[: n_cut + 1]) ** 2
        return float(np.trapezoid(head, dx=dx)) if len(head) > 1 else 0.0
    return 0.0


def _check_edges(meter: GridMeter, shifts) -> None:
    """Raise at the first shift, in row-major order, that would push
    significant amplitude beyond the grid edges."""
    shifts = np.asarray(shifts, dtype=float)
    # the loss grows with the shift on each side, so when the two extreme
    # shifts keep their amplitude every shift does
    extremes = (shifts.max(initial=0.0), shifts.min(initial=0.0))
    if all(_edge_loss(meter, shift) <= EDGE_AMPLITUDE_TOL for shift in extremes):
        return
    for shift in shifts.ravel().tolist():
        lost = _edge_loss(meter, shift)
        if lost > EDGE_AMPLITUDE_TOL:
            raise GridTooSmall(
                f"shift {shift} pushes squared amplitude {lost:.3e} > {EDGE_AMPLITUDE_TOL} "
                "off the grid"
            )


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
    trapezoidal quadrature on its own lattice.  The grid path walks the
    stack in blocks of `WAVE_SAMPLES_PER_BLOCK` // (n * n_points) rows (at
    least one), so its memory does not grow with the stack.  A shift column
    repeated across the stack, like the unshifted branches, is evaluated as
    one column of waves, and each pair of a row's waves is summed in one
    fixed order, so a row's matrices do not depend on the block that holds
    it.  Edge errors are raised before any wave is evaluated, at the first
    failing shift in row-major order (see `_check_edges`).
    """
    s = np.asarray(shifts, dtype=float)
    if meter is None:
        bra, ket = s[..., :, None], s[..., None, :]
        m1 = np.exp(-((bra - ket) ** 2) / 8.0)
        return m1, 0.5 * (bra + ket) * m1
    if isinstance(meter, GridMeter):
        rows = s.reshape(math.prod(s.shape[:-1]), s.shape[-1])
        n, points = rows.shape[1], meter.grid.n_points
        _check_edges(meter, rows)
        block = max(1, WAVE_SAMPLES_PER_BLOCK // max(1, n * points))
        weights = _trapezoid_weights(meter.grid)
        keys = [column.tobytes() for column in rows.T]
        first = [keys.index(key) for key in keys]
        distinct = sorted(set(first))
        columns, where = rows[:, distinct], np.searchsorted(distinct, first)
        shape = columns.shape + columns.shape[-1:]
        m1 = mx = None
        for lo in range(0, len(rows), block):
            chunk = columns[lo:lo + block]
            waves = _shifted(meter, chunk.ravel()).reshape(chunk.shape + (points,))
            bras = waves.conj() * weights
            if m1 is None:
                m1, mx = np.empty(shape, dtype=waves.dtype), np.empty(shape, dtype=waves.dtype)
            # one fixed-order sum per pair, the same in any block
            np.einsum("rin,rjn->rij", bras, waves, out=m1[lo:lo + block])
            np.einsum("rin,rjn->rij", bras * meter.grid.points, waves, out=mx[lo:lo + block])
        if m1 is None:
            # an empty stack: empty matrices of the dtype its waves would have
            m1 = mx = np.empty(shape, dtype=_shifted(meter, [0.0]).dtype)
        pair = (slice(None), where[:, None], where[None, :])
        return m1[pair].reshape(s.shape + (n,)), mx[pair].reshape(s.shape + (n,))
    raise ValidationError(f"expected None or a GridMeter, got {type(meter).__name__}")
