"""Finite-dimensional embedding of the meter state and its negativity.

The success branch lives in the span of two A-meter states and three
B-meter states, so meter-meter entanglement is a qubit-qutrit question.
Orthonormalizing each span with the known Gaussian overlaps embeds
sum_jk K_kj |a_j b_j><a_k b_k| / P into at most C^2 (x) C^3, where the
partial-transpose criterion is exact: negativity > 0 iff it is entangled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _branch_shifts, _unstack
from .errors import OrthogonalPostselection, ValidationError
from .meter import _validate_couplings, pointer_matrices
from .qsystem import EIGENVALUE_TOL, HERMITIAN_TOL, POSTSELECTION_EPS, _coherence

RANK_TOL = 1e-12
EIGENVALUE_NOISE = 1e-14


def gram_orthonormalize(gram: np.ndarray) -> np.ndarray:
    """Coordinates of the input vectors in an orthonormal basis of their span.

    Given the Gram matrix G_ij = <v_i|v_j>, returns L of shape (n, rank)
    with L L^dagger = G; row i holds the coordinates of v_i.  Directions
    with eigenvalue <= `RANK_TOL` are dropped, so linearly dependent inputs
    (coincident meter states at zero coupling) reduce the dimension
    instead of erroring.  A stack of Gram matrices (..., n, n) gives
    (..., n, r) with r the largest rank in the stack; an entry of lower
    rank has zero columns in place of its dropped directions.
    """
    g = np.asarray(gram, dtype=complex)
    if g.ndim < 2 or g.shape[-2] != g.shape[-1]:
        raise ValidationError("gram matrix must be square")
    if np.max(np.abs(g - np.conj(g.swapaxes(-2, -1)))) > HERMITIAN_TOL:
        raise ValidationError("gram matrix must be Hermitian")
    eigenvalues, vectors = np.linalg.eigh(g)
    if eigenvalues.min() < -EIGENVALUE_TOL:
        raise ValidationError(f"gram matrix has negative eigenvalue {eigenvalues.min()!r}")
    keep = eigenvalues > RANK_TOL
    if not np.all(np.any(keep, axis=-1)):
        raise ValidationError("gram matrix has no positive directions")
    # largest eigenvalue first, so the kept directions lead
    rank = int(keep.sum(axis=-1).max())
    lam = np.where(keep, eigenvalues, 0.0)[..., ::-1][..., :rank]
    return vectors[..., ::-1][..., :rank] * np.sqrt(lam)[..., None, :]


@dataclass(frozen=True, eq=False)
class EmbeddedMeterState:
    """Success-branch meter state in orthonormal product coordinates.

    ``basis_a`` (2 x dim_a) and ``basis_b`` (3 x dim_b) give the meter
    states' coordinates; ``rho`` is the normalized density matrix; and
    ``branch_norm_sq`` is the trace of the raw branch, which equals the
    postselection success probability for physical inputs.  A state
    embedded for a stack of couplings carries the stack as leading axes:
    each basis that of its own meter's couplings, ``rho`` and
    ``branch_norm_sq`` the broadcast of both.
    """

    basis_a: np.ndarray
    basis_b: np.ndarray
    rho: np.ndarray
    branch_norm_sq: float

    @property
    def dim_a(self) -> int:
        return self.basis_a.shape[-1]

    @property
    def dim_b(self) -> int:
        return self.basis_b.shape[-1]

    def density(self) -> np.ndarray:
        """Density matrix on the dim_a * dim_b product space."""
        return self.rho


def embed(coherence, g_a, g_b) -> EmbeddedMeterState:
    """Express the success branch in orthonormal qubit (x) qutrit coordinates.

    Takes the branch coherence K (or amplitudes) and accepts any K, so
    limiting configurations (for example Bell-like triples unreachable from
    normalized photon states) can be embedded directly.  The couplings may
    be arrays; the state then holds one embedding per coupling pair, in the
    stack's largest dimensions (see `gram_orthonormalize`).
    """
    _validate_couplings(g_a, g_b)
    # Gram matrices of the distinct meter states: A unshifted and shifted,
    # B unshifted and shifted either way
    shifts_a, shifts_b = _branch_shifts(g_a, g_b)
    basis_a = gram_orthonormalize(pointer_matrices(shifts_a[..., [1, 0]])[0])
    basis_b = gram_orthonormalize(pointer_matrices(shifts_b)[0])

    # branch product states v_k in branch order (L, R+, R-): L shifts meter A
    v = np.einsum("...ka,...kb->...kab", basis_a[..., [1, 0, 0], :], basis_b)
    v = v.reshape(*v.shape[:-2], -1)
    rho = v.swapaxes(-2, -1) @ _coherence(coherence).T @ v.conj()

    norm_sq = np.trace(rho, axis1=-2, axis2=-1).real
    empty = np.flatnonzero(norm_sq <= POSTSELECTION_EPS)
    if empty.size:
        raise OrthogonalPostselection(
            f"success branch has squared norm {norm_sq.flat[empty[0]].item()!r}; nothing to embed"
        )
    return EmbeddedMeterState(basis_a, basis_b, rho / norm_sq[..., None, None], _unstack(norm_sq))


@dataclass(frozen=True)
class NegativityReport:
    """Partial-transpose entanglement summary for the embedded state.

    ``ppt_conclusive`` is True when the dimensions make the criterion
    necessary and sufficient (always here: 2x3 or smaller), so zero
    negativity certifies separability.  For a stack of states the two
    numbers are arrays.  The zero columns of a stack entry of lower rank
    (see `gram_orthonormalize`) add only zero eigenvalues to its partial
    transpose: its negativity is unchanged, its ``min_pt_eigenvalue`` is
    then at most 0.
    """

    negativity: float
    min_pt_eigenvalue: float
    dim_a: int
    dim_b: int
    ppt_conclusive: bool

    @property
    def entangled(self) -> bool:
        return self.negativity > 0.0


def negativity(state: EmbeddedMeterState) -> NegativityReport:
    """Sum of |negative eigenvalues| of the partial transpose over B.

    Eigenvalues within the numerical noise floor of zero count as zero, so
    separable states report exactly 0.
    """
    da, db = state.dim_a, state.dim_b
    rho = state.density()
    stack = rho.shape[:-2]
    pt = rho.reshape(*stack, da, db, da, db).swapaxes(-3, -1).reshape(*stack, da * db, da * db)
    eigenvalues = np.linalg.eigvalsh(pt)
    # ascending, so the negative eigenvalues are summed in the order they come
    neg = -np.where(eigenvalues < -EIGENVALUE_NOISE, eigenvalues, 0.0).sum(axis=-1) + 0.0
    conclusive = (min(da, db) <= 2 and max(da, db) <= 3)
    return NegativityReport(_unstack(neg), _unstack(eigenvalues[..., 0]), da, db, conclusive)


def meter_negativity(coherence, g_a, g_b) -> NegativityReport:
    """Embed the branch coherence K (or amplitudes) and score it in one step."""
    return negativity(embed(coherence, g_a, g_b))
