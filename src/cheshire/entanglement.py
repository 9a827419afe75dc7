"""Finite-dimensional embedding of the meter state and its negativity.

The success branch lives in the span of two A-meter states and three
B-meter states, so meter-meter entanglement is a qubit-qutrit question for
any pointer.  Orthonormalizing each meter's branch states with its own Gram
matrix M_1 embeds sum_jk K_kj |a_j b_j><a_k b_k| / P into at most
C^2 (x) C^3, where the partial-transpose criterion is exact: negativity > 0
iff it is entangled.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import JointMeterState, _unstack
from .errors import OrthogonalPostselection, ValidationError
from .qsystem import _hermitian
from .tolerances import EIGENVALUE_NOISE, EIGENVALUE_TOL, POSTSELECTION_EPS, RANK_TOL


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
    g = _hermitian(gram, "gram matrix", None)
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


class EmbeddedMeterState(NamedTuple):
    """Success-branch meter state in orthonormal product coordinates.

    ``basis_a`` (3 x dim_a) and ``basis_b`` (3 x dim_b) give each branch's
    meter-state coordinates; ``rho`` is the normalized density matrix; and
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


def embed(state: JointMeterState) -> EmbeddedMeterState:
    """Express the success branch in orthonormal qubit (x) qutrit coordinates.

    Accepts any K, so limiting configurations (for example Bell-like triples
    unreachable from normalized photon states) can be embedded directly.
    For stacked couplings the state holds one embedding per coupling pair,
    in the stack's largest dimensions (see `gram_orthonormalize`).
    """
    # meter A's Gram matrix has rank <= 2: the R+ and R- branches leave it unshifted
    (a1, _), (b1, _) = state.pointer_matrices
    basis_a, basis_b = gram_orthonormalize(a1), gram_orthonormalize(b1)

    # branch product states v_k in branch order (L, R+, R-)
    v = np.einsum("...ka,...kb->...kab", basis_a, basis_b)
    v = v.reshape(*v.shape[:-2], -1)
    rho = v.swapaxes(-2, -1) @ state.coherence.T @ v.conj()

    norm_sq = np.trace(rho, axis1=-2, axis2=-1).real
    empty = np.flatnonzero(norm_sq <= POSTSELECTION_EPS)
    if empty.size:
        raise OrthogonalPostselection(
            f"success branch has squared norm {norm_sq.flat[empty[0]].item()!r}; nothing to embed"
        )
    return EmbeddedMeterState(basis_a, basis_b, rho / norm_sq[..., None, None], _unstack(norm_sq))


class NegativityReport(NamedTuple):
    """Partial-transpose entanglement summary for the embedded state.

    In 2x3 or smaller, as here, the criterion is necessary and sufficient,
    so zero negativity certifies separability.  For a stack of states the two
    numbers are arrays.  The zero columns of a stack entry of lower rank
    (see `gram_orthonormalize`) add only zero eigenvalues to its partial
    transpose: its negativity is unchanged, its ``min_pt_eigenvalue`` is
    then at most 0.
    """

    negativity: float
    min_pt_eigenvalue: float
    dim_a: int
    dim_b: int


def negativity(state: EmbeddedMeterState) -> NegativityReport:
    """Sum of |negative eigenvalues| of the partial transpose over B.

    Eigenvalues within the numerical noise floor of zero count as zero, so
    separable states report exactly 0.
    """
    da, db = state.dim_a, state.dim_b
    rho = state.rho
    stack = rho.shape[:-2]
    pt = rho.reshape(*stack, da, db, da, db).swapaxes(-3, -1).reshape(*stack, da * db, da * db)
    eigenvalues = np.linalg.eigvalsh(pt)
    # ascending, so the negative eigenvalues are summed in the order they come
    neg = -np.where(eigenvalues < -EIGENVALUE_NOISE, eigenvalues, 0.0).sum(axis=-1) + 0.0
    return NegativityReport(_unstack(neg), _unstack(eigenvalues[..., 0]), da, db)


def meter_negativity(state: JointMeterState) -> NegativityReport:
    """Embed the success-branch meter state and score it in one step."""
    return negativity(embed(state))
