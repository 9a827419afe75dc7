"""Photon Hilbert space: a single particle in two arms with polarization.

Basis ordering is ``(|L,+>, |L,->, |R,+>, |R,->)``: index 0-1 left arm,
index 2-3 right arm, with +/- the polarization within each arm.  The left
arm carries a rank-2 arm projector (presence detection ignores
polarization there), the right arm rank-1 projectors per polarization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalPostselection, ValidationError

DIM = 4
BASIS_LABELS = ("L+", "L-", "R+", "R-")

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
EIGENVALUE_TOL = 1e-10

# A success probability, Tr(E rho) or success-branch norm at most this is
# zero: the postselection is orthogonal and what it conditions is undefined.
POSTSELECTION_EPS = 1e-12


def _projector(*indices: int) -> np.ndarray:
    p = np.zeros((DIM, DIM), dtype=complex)
    for i in indices:
        p[i, i] = 1.0
    p.setflags(write=False)
    return p


PI_L = _projector(0, 1)
PI_R_PLUS = _projector(2)
PI_R_MINUS = _projector(3)
SIGMA_R = PI_R_PLUS - PI_R_MINUS
SIGMA_R.setflags(write=False)

# basis state -> branch (L, R+, R-): both left-arm polarizations share a branch
_BRANCH_OF_BASIS = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


@dataclass(frozen=True, eq=False)
class PhotonKet:
    """Pure photon state as a complex 4-vector over ``BASIS_LABELS``,
    normalized by construction: a squared norm further than ``NORM_TOL``
    from 1 is rejected (`normalized` rescales other vectors)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
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
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(amps))
        if norm <= 0.0 or not np.isfinite(norm):
            raise ValidationError("cannot normalize a zero or non-finite vector")
        return cls(amps / norm)

    @classmethod
    def basis(cls, label: str) -> "PhotonKet":
        if label not in BASIS_LABELS:
            raise ValidationError(f"unknown basis label {label!r}; expected one of {BASIS_LABELS}")
        amps = np.zeros(DIM, dtype=complex)
        amps[BASIS_LABELS.index(label)] = 1.0
        return cls(amps)

    def overlap(self, other: "PhotonKet") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def outer(self) -> np.ndarray:
        """|ket><ket| as a dense 4x4 matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> "PhotonDensity":
        return PhotonDensity(self.outer())

    def effect(self) -> "PhotonEffect":
        return PhotonEffect(self.outer())


def _validated_hermitian(matrix, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (DIM, DIM):
        raise ValidationError(f"{what} must be {DIM}x{DIM}, got {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{what} must be finite")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise ValidationError(f"{what} is not Hermitian within {HERMITIAN_TOL}")
    m = 0.5 * (m + m.conj().T)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class PhotonDensity:
    """Mixed photon state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _validated_hermitian(self.matrix, "density matrix")
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
        m = _validated_hermitian(self.matrix, "effect")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -EIGENVALUE_TOL or eigs.max() > 1.0 + EIGENVALUE_TOL:
            raise ValidationError("effect eigenvalues must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class TransitionAmplitudes:
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

    @property
    def polarization_difference(self) -> complex:
        """r+ - r-, the matrix element of the right-arm polarization."""
        return self.r_plus - self.r_minus

    def coherence(self) -> np.ndarray:
        """Branch coherences K = conj(c) c^T of c = (l, r+, r-)."""
        c = np.array([self.l, self.r_plus, self.r_minus], dtype=complex)
        return np.outer(c.conj(), c)


@dataclass(frozen=True)
class WeakValues:
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


def trace_term(E, rho) -> complex:
    """Tr(E sigma_R rho Pi_L) = K[L, R+] - K[L, R-], the indicator's state factor.

    Accepts kets (lifted to rank-1 operators), densities, or effects.  For
    pure E = |post><post| and rho = |prep><prep| this equals (r+ - r-) l*.
    """
    k = branch_coherence(E, rho)
    return complex(k[0, 1] - k[0, 2])


def branch_coherence(E, rho) -> np.ndarray:
    """K_jk = Tr(E P_k rho P_j) over the branch projectors (Pi_L, Pi_R+, Pi_R-).

    For pure E and rho this equals `TransitionAmplitudes.coherence`.
    """
    e = _operator_matrix(E)
    r = _operator_matrix(rho)
    return _BRANCH_OF_BASIS.T @ (e * r.T) @ _BRANCH_OF_BASIS


def _coherence(source) -> np.ndarray:
    """A copy of K, or the pure special case `TransitionAmplitudes.coherence`."""
    if isinstance(source, TransitionAmplitudes):
        return source.coherence()
    k = np.array(source, dtype=complex)
    if k.shape != (3, 3) or np.max(np.abs(k - k.conj().T)) > HERMITIAN_TOL:
        raise ValidationError(f"branch coherence must be a Hermitian 3x3 matrix, got {k!r}")
    return k
