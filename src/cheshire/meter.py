"""Meter models: the analytic unit-variance Gaussian and a grid oracle.

A meter is a one-dimensional pointer prepared in a zero-mean, unit-variance
state psi0.  Each branch of the particle shifts the pointer by its own
amount s_j, so every exact result needs only the two pointer matrices

    M_1[j, k] = int psi0*(x - s_j) psi0(x - s_k) dx
    M_x[j, k] = int x psi0*(x - s_j) psi0(x - s_k) dx

over the branch shifts (`pointer_matrices`).  For the Gaussian ground state
phi0(x) = (2 pi)^{-1/4} exp(-x^2/4) they have closed forms, valid for
infinite shifts too; `GridMeter` evaluates them by quadrature for arbitrary
pointer states and serves as the numeric oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridTooSmall, ValidationError

NORM_TOL = 1e-10
MEAN_TOL = 1e-8
VARIANCE_TOL = 1e-6

EDGE_AMPLITUDE_TOL = 1e-12

_GAUSS_NORM = (2.0 * math.pi) ** -0.25


def gaussian_ground_state(x):
    """phi0(x) = (2 pi)^{-1/4} exp(-x^2 / 4): zero mean, unit variance."""
    return _GAUSS_NORM * np.exp(-np.square(x) / 4.0)


def gaussian_overlap0(g: float) -> float:
    """int phi0(x) phi0(x - g) dx = exp(-g^2 / 8)."""
    if g < 0.0:
        raise ValidationError("coupling must be non-negative")
    return math.exp(-g * g / 8.0)


def gaussian_overlap1(g: float) -> float:
    """int x phi0(x) phi0(x - g) dx = (g / 2) exp(-g^2 / 8)."""
    if g < 0.0:
        raise ValidationError("coupling must be non-negative")
    return 0.5 * g * math.exp(-g * g / 8.0)


@dataclass(frozen=True)
class GaussianMeter:
    """Pointer in the Gaussian ground state, coupled with strength ``g``.

    ``g`` is stored unsigned; any branch-dependent sign of the shift is
    applied by the dynamics layer.
    """

    g: float

    def __post_init__(self):
        if not (self.g >= 0.0) or not math.isfinite(self.g):
            raise ValidationError("coupling g must be finite and >= 0")


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D lattice on [x_min, x_max] with n_points samples."""

    x_min: float = -20.0
    x_max: float = 20.0
    n_points: int = 4001

    def __post_init__(self):
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
    """Arbitrary normalized pointer state sampled on a uniform grid.

    The state must be unbiased (zero mean) with unit variance, so that the
    coupling is expressed in units of the initial pointer uncertainty.
    When the state comes from a callable (``from_function``), shifted
    copies are evaluated exactly at any shift; tabulated-only states
    (``from_file``) fall back to linear interpolation, exact for shifts on
    the lattice.
    """

    grid: Grid
    psi0: np.ndarray = field(repr=False)
    generator: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        psi = np.asarray(self.psi0, dtype=complex).reshape(-1).copy()
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
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"pointer state norm^2 = {norm!r}, expected 1 within {NORM_TOL}")
        mean = float(np.trapezoid(x * density, dx=dx))
        if abs(mean) > MEAN_TOL:
            raise ValidationError(f"pointer state mean = {mean!r}, expected 0 within {MEAN_TOL}")
        var = float(np.trapezoid(x * x * density, dx=dx))
        if abs(var - 1.0) > VARIANCE_TOL:
            raise ValidationError(
                f"pointer state variance = {var!r}, expected 1 within {VARIANCE_TOL}"
            )

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], grid: Grid = DEFAULT_GRID) -> "GridMeter":
        return cls(grid, np.asarray(fn(grid.points), dtype=complex), generator=fn)

    @classmethod
    def gaussian(cls, grid: Grid = DEFAULT_GRID) -> "GridMeter":
        return cls.from_function(gaussian_ground_state, grid)

    @classmethod
    def from_file(cls, path, grid: Grid | None = None) -> "GridMeter":
        """Load a pointer state from a two-column text file.

        Column 1 is the grid coordinate (uniform, ascending); column 2 the
        complex value, written either as a plain real or as ``re+imi``.
        """
        xs: list[float] = []
        vals: list[complex] = []
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValidationError(f"expected two columns, got {len(parts)}: {raw!r}")
                xs.append(float(parts[0]))
                vals.append(parse_complex(parts[1]))
        if len(xs) < 2:
            raise ValidationError("pointer state file needs at least 2 samples")
        x = np.asarray(xs)
        steps = np.diff(x)
        if np.any(steps <= 0) or abs(steps.max() - steps.min()) > 1e-9 * max(abs(steps.max()), 1.0):
            raise ValidationError("pointer state file must use a uniform ascending grid")
        file_grid = Grid(float(x[0]), float(x[-1]), len(x))
        meter = cls(file_grid, np.asarray(vals, dtype=complex))
        if grid is not None and grid != file_grid:
            raise ValidationError("file grid does not match the requested grid")
        return meter


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


def _shifted(meter: GridMeter, shift: float) -> np.ndarray:
    """psi0(x - shift) on the lattice.

    Generator-backed meters evaluate the shifted state exactly; tabulated
    states use linear interpolation, exact when the shift is a lattice
    multiple.  Raises when the shifted state would carry significant
    amplitude beyond the grid edges.
    """
    x = meter.grid.points
    psi = meter.psi0
    dx = meter.grid.spacing
    lost = 0.0
    if shift > 0:
        n_cut = int(math.ceil(shift / dx))
        tail = np.abs(psi[max(len(psi) - n_cut - 1, 0):]) ** 2
        lost = float(np.trapezoid(tail, dx=dx)) if len(tail) > 1 else 0.0
    elif shift < 0:
        n_cut = int(math.ceil(-shift / dx))
        head = np.abs(psi[: n_cut + 1]) ** 2
        lost = float(np.trapezoid(head, dx=dx)) if len(head) > 1 else 0.0
    if lost > EDGE_AMPLITUDE_TOL:
        raise GridTooSmall(
            f"shift {shift} pushes squared amplitude {lost:.3e} > {EDGE_AMPLITUDE_TOL} off the grid"
        )
    if meter.generator is not None:
        return np.asarray(meter.generator(x - shift), dtype=complex)
    target = x - shift
    re = np.interp(target, x, psi.real, left=0.0, right=0.0)
    im = np.interp(target, x, psi.imag, left=0.0, right=0.0)
    return re + 1j * im


def pointer_matrices(shifts, meter=None) -> tuple[np.ndarray, np.ndarray]:
    """The pointer matrices (M_1, M_x) over the branch shifts.

    ``meter`` is None or a `GaussianMeter` for the Gaussian closed forms
    M_1 = exp(-(s_j - s_k)^2 / 8), M_x = (s_j + s_k) / 2 * M_1, which hold
    for infinite shifts too; a `GridMeter` uses trapezoidal quadrature on
    its own lattice.
    """
    if meter is None or isinstance(meter, GaussianMeter):
        s = np.asarray(shifts, dtype=float)
        bra, ket = s[:, None], s[None, :]
        shape = (len(s), len(s))
        # real arithmetic throughout: coincident shifts are one state even at
        # infinite shift, and a vanishing overlap annihilates an infinite mean
        gap = np.subtract(bra, ket, out=np.zeros(shape), where=bra != ket)
        m1 = np.exp(-(gap ** 2) / 8.0)
        overlapping = m1 != 0.0
        mean = 0.5 * np.add(bra, ket, out=np.zeros(shape), where=overlapping)
        mx = np.multiply(mean, m1, out=np.zeros(shape), where=overlapping)
        return m1, mx
    if isinstance(meter, GridMeter):
        waves = np.stack([_shifted(meter, s) for s in shifts])
        bras = np.conj(waves) * _trapezoid_weights(meter.grid)
        return bras @ waves.T, (bras * meter.grid.points) @ waves.T
    raise ValidationError(f"expected GaussianMeter or GridMeter, got {type(meter).__name__}")
