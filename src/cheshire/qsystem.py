"""Photon Hilbert space: a single particle in two arms with polarization.

Basis ordering is ``(|L,+>, |L,->, |R,+>, |R,->)``: index 0-1 left arm,
index 2-3 right arm, with +/- the polarization within each arm.  The left
arm carries a rank-2 arm projector (presence detection ignores
polarization there), the right arm rank-1 projectors per polarization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OrthogonalPostselection, ValidationError
from .tolerances import EIGENVALUE_TOL, HERMITIAN_TOL, NORM_TOL, POSTSELECTION_EPS

DIM = 4

# basis state -> branch (L, R+, R-): both left-arm polarizations share a branch
_BRANCH_OF_BASIS = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def _complex_array(values, what: str) -> np.ndarray:
    """``values`` as a complex array; a non-numeric operand raises `ValidationError`."""
    try:
        return np.asarray(values, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be complex numbers: {exc}") from None


@dataclass(frozen=True, eq=False)
class PhotonKet:
    """Pure photon state as a complex 4-vector over (L+, L-, R+, R-),
    normalized by construction: a squared norm further than ``NORM_TOL``
    from 1 is rejected (`normalized` rescales other vectors)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _complex_array(self.amplitudes, "amplitudes").reshape(-1).copy()
        if amps.shape != (DIM,):
            raise ValidationError(f"expected {DIM} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValidationError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(f"ket norm^2 = {norm_sq!r}, expected 1 within {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes) -> "PhotonKet":
        """Rescale arbitrary non-zero amplitudes to a unit-norm ket."""
        amps = _complex_array(amplitudes, "amplitudes").reshape(-1)
        norm = float(np.linalg.norm(amps))
        if norm <= 0.0 or not np.isfinite(norm):
            raise ValidationError("cannot normalize a zero or non-finite vector")
        return cls(amps / norm)

    def outer(self) -> np.ndarray:
        """|ket><ket| as a dense 4x4 matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _hermitian(values, what: str, shape: tuple[int, int] | None = (DIM, DIM),
               symmetrize: bool = False) -> np.ndarray:
    """The one check of every Hermitian operand (densities, effects, K, Gram
    stacks): ``values`` must have ``shape`` (None: any stack of square
    matrices), then finite entries, then lie within `HERMITIAN_TOL` of its
    conjugate transpose, or `ValidationError` names ``what`` and the failed
    check.  Returns, read-only, the Hermitian part if ``symmetrize``, else a
    copy with the input's bits."""
    m = _complex_array(values, what)
    if shape is None:
        if not (m.ndim >= 2 and m.shape[-2] == m.shape[-1]):
            raise ValidationError(f"{what} must be square, got shape {m.shape}")
    elif m.shape != shape:
        raise ValidationError(f"{what} must be {shape[0]}x{shape[1]}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} must be finite")
    adjoint = m.conj().swapaxes(-2, -1)
    if np.abs(m - adjoint).max() > HERMITIAN_TOL:
        raise ValidationError(f"{what} is not Hermitian within {HERMITIAN_TOL}")
    m = 0.5 * (m + adjoint) if symmetrize else m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class PhotonDensity:
    """Mixed photon state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian(self.matrix, "density matrix", symmetrize=True)
        if abs(np.trace(m).real - 1.0) > NORM_TOL:
            raise ValidationError(f"density matrix trace must be 1 within {NORM_TOL}")
        if np.linalg.eigvalsh(m).min() < -EIGENVALUE_TOL:
            raise ValidationError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class PhotonEffect:
    """Postselection effect (POVM element): Hermitian with 0 <= E <= 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian(self.matrix, "effect", symmetrize=True)
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -EIGENVALUE_TOL or eigs.max() > 1.0 + EIGENVALUE_TOL:
            raise ValidationError("effect eigenvalues must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)


class TransitionAmplitudes(NamedTuple):
    """The complex triple (l, r+, r-) between preparation and postselection.

    For normalized pure states these satisfy the completeness identity
    l + r+ + r- = <post|prep>.
    """

    l: complex
    r_plus: complex
    r_minus: complex

    @property
    def total(self) -> complex:
        return self.l + self.r_plus + self.r_minus

    def coherence(self) -> np.ndarray:
        """Branch coherences K = conj(c) c^T of c = (l, r+, r-)."""
        c = np.array([self.l, self.r_plus, self.r_minus], dtype=complex)
        return np.outer(c.conj(), c)


class WeakValues(NamedTuple):
    L_w: complex
    Sigma_w: complex


def transition_amplitudes(prep: PhotonKet, post: PhotonKet) -> TransitionAmplitudes:
    """Amplitudes l = <post|Pi_L|prep>, r+- = <post|Pi_R,+-|prep>."""
    phi = post.amplitudes
    psi = prep.amplitudes
    l = complex(np.conj(phi[0]) * psi[0] + np.conj(phi[1]) * psi[1])
    r_plus = complex(np.conj(phi[2]) * psi[2])
    r_minus = complex(np.conj(phi[3]) * psi[3])
    return TransitionAmplitudes(l, r_plus, r_minus)


def weak_values(coherence) -> WeakValues:
    """Weak values Tr(E A rho) / Tr(E rho) of A = Pi_L and sigma_R from the
    branch coherence K (or amplitudes): branch k has sum_j K_jk / sum_jk K_jk,
    l / (l + r+ + r-) if pure.  Undefined when |Tr(E rho)| <= `POSTSELECTION_EPS`."""
    branch = _coherence(coherence).sum(axis=0)
    denom = complex(branch.sum())
    if abs(denom) <= POSTSELECTION_EPS:
        raise OrthogonalPostselection(
            f"Tr(E rho) = {abs(denom):.3e} <= {POSTSELECTION_EPS:.1e}; weak values are undefined"
        )
    return WeakValues(complex(branch[0] / denom), complex((branch[1] - branch[2]) / denom))


def _operator_matrix(op) -> np.ndarray:
    if isinstance(op, PhotonKet):
        return op.outer()
    if isinstance(op, (PhotonDensity, PhotonEffect)):
        return op.matrix
    raise ValidationError(f"expected PhotonKet, PhotonDensity or PhotonEffect, got {type(op).__name__}")


def branch_coherence(E, rho) -> np.ndarray:
    """K_jk = Tr(E P_k rho P_j) over the branch projectors (Pi_L, Pi_R+, Pi_R-).

    For pure E and rho this equals `TransitionAmplitudes.coherence`.
    """
    e = _operator_matrix(E)
    r = _operator_matrix(rho)
    return _BRANCH_OF_BASIS.T @ (e * r.T) @ _BRANCH_OF_BASIS


def _coherence(source) -> np.ndarray:
    """K, read-only with its input's bits, from a matrix or the pure special
    case `TransitionAmplitudes.coherence`."""
    if isinstance(source, TransitionAmplitudes):
        source = source.coherence()
    return _hermitian(source, "branch coherence", (3, 3))
