"""The meter-entanglement indicator and its optimizers.

After a successful postselection the joint cross-moment <xy> of the two
pointers splits into a classical part, an entanglement part, and a local
interference part.  With unbiased pointers the classical and local parts
vanish, so the signed indicator

    C = 2 <xy> P = g_A g_B w_A w_B Re Tr(E sigma_R rho Pi_L),
    w = exp(-g^2 / 8)

witnesses meter-meter entanglement through its sign and magnitude.  Over
couplings the prefactor g w(g) peaks at g = 2 per meter; over normalized
state pairs the trace factor peaks at 1/4, giving the absolute extremum
C = 1/e at g_A = g_B = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _branch_shifts,
    _total,
    _unstack,
    _weight_indices,
    JointMeterState,
    branch_terms,
    success_moments,
)
from .errors import ConsistencyError, FlatObjective, OrthogonalPostselection, ValidationError
from .meter import _overlap0, _validate_couplings, pointer_matrices
from .qsystem import (
    POSTSELECTION_EPS,
    PhotonDensity,
    PhotonEffect,
    PhotonKet,
    _operator_matrix,
    branch_coherence,
    trace_term,
)

OPTIMAL_COUPLING = 2.0
MAX_TRACE_TERM = 0.25


@dataclass(frozen=True)
class MomentDecomposition:
    """Split of a success-branch moment <F|X_A X_B|F> into its origins.

    ``m_cl`` collects the diagonal branch terms (classical correlations),
    ``m_ent`` the left-right cross terms (meter-meter entanglement), and
    ``m_li`` the interference between the two right-arm branches, which is
    local to meter B.
    """

    m_cl: float
    m_ent: float
    m_li: float

    @property
    def total(self) -> float:
        return self.m_cl + self.m_ent + self.m_li


@dataclass(frozen=True)
class CheshireResult:
    """Indicator value with its ingredients."""

    c_value: float
    p_success: float
    g_a: float
    g_b: float
    trace_term: complex

    @property
    def couplings(self) -> tuple[float, float]:
        return (self.g_a, self.g_b)


def indicator_bound(g_a, g_b):
    """Largest |C| over all states: g_A g_B w_A w_B / 4, elementwise over
    stacks of couplings."""
    _validate_couplings(g_a, g_b)
    return _unstack(_coupling_prefactor(g_a, g_b) * MAX_TRACE_TERM)


def _coupling_prefactor(g_a, g_b) -> np.ndarray:
    """g_A w_A g_B w_B with w = exp(-g^2 / 8), elementwise over stacks of
    couplings.

    w is the scalar `gaussian_overlap0` formula per coupling, so every stack
    entry has the bits of a single evaluation; the caller validates the
    couplings.  No factor is negative, and adding +0.0 turns the product's
    -0.0 at a -0.0 coupling into 0.0.
    """
    w = np.vectorize(_overlap0, otypes=[float])
    return g_a * w(g_a) * g_b * w(g_b) + 0.0


def moment_decomposition(
    state: JointMeterState, x_weight: str = "x", y_weight: str = "x"
) -> MomentDecomposition:
    """Classical / entanglement / local-interference split of the moment.

    The branch-pair terms come from each meter's pointer matrix, so this
    works for analytic and grid meters: diagonal pairs are classical,
    left-right pairs entangling, and the right-right pair local to meter B.
    Stacked couplings give arrays, one entry per coupling pair.
    """
    pick_a, pick_b = _weight_indices(x_weight, y_weight)
    shifts_a, shifts_b = _branch_shifts(state.g_a, state.g_b)
    a = pointer_matrices(shifts_a, state.meter_a)[pick_a]
    b = pointer_matrices(shifts_b, state.meter_b)[pick_b]
    terms = branch_terms(state.coherence, a, b)
    m_cl = _total(np.diagonal(terms, axis1=-2, axis2=-1))
    m_ent = _total(terms[..., 0, 1:]) + _total(terms[..., 1:, 0])
    m_li = _total(terms[..., [1, 2], [2, 1]])
    return MomentDecomposition(*map(_unstack, (m_cl, m_ent, m_li)))


def cheshire_analytic(E, rho, g_a, g_b) -> CheshireResult:
    """Exact Gaussian-meter indicator for (possibly mixed) E and rho.

    Everything follows from the branch coherence K_jk = Tr(E P_k rho P_j):
    the trace factor is K[L, R+] - K[L, R-], and P is `success_moments`'s
    norm.  The couplings may be arrays, with one entry of C and P per
    coupling pair.  From g = 78 on, C is 0.0: the strong-measurement limit.
    A |C| above `indicator_bound` raises `ConsistencyError`.
    """
    k = branch_coherence(PhotonEffect(_operator_matrix(E)), PhotonDensity(_operator_matrix(rho)))
    p = success_moments(k, g_a, g_b).norm
    t = complex(k[0, 1] - k[0, 2])
    prefactor = _coupling_prefactor(g_a, g_b)
    c = prefactor * t.real
    bound = prefactor * MAX_TRACE_TERM
    over = np.flatnonzero(np.abs(c) > bound + 1e-10)
    if over.size:
        first = over[0]
        raise ConsistencyError(
            f"indicator {c.flat[first].item()!r} exceeds the state-independent "
            f"bound {bound.flat[first].item()!r}"
        )
    return CheshireResult(_unstack(c), p, _unstack(g_a), _unstack(g_b), t)


def local_averages(coherence, g_a: float, g_b: float) -> tuple[float, float, float]:
    """Postselected single-pointer means (<x>, <y>, P) from the branch
    coherence K or a pure amplitude triple.

    In the weak limit <x>/g_A -> Re L_w and <y>/g_B -> Re Sigma_w.  Both
    means are undefined, and raise `OrthogonalPostselection`, when P is at
    most `POSTSELECTION_EPS`.
    """
    m = success_moments(coherence, g_a, g_b)
    if m.norm <= POSTSELECTION_EPS:
        raise OrthogonalPostselection(
            f"success probability {m.norm!r} <= {POSTSELECTION_EPS!r}; "
            "pointer averages are undefined"
        )
    return (m.x / m.norm, m.y / m.norm, m.norm)


@dataclass(frozen=True)
class CouplingOptimum:
    g_a: float
    g_b: float
    c_value: float


def optimize_couplings(E, rho, g_max: float = 8.0) -> CouplingOptimum:
    """Arg-max of |C| over the couplings.

    C factorizes as [g_A w(g_A)][g_B w(g_B)] Re Tr(.), so each coupling
    maximizes g exp(-g^2/8) separately.  That rises up to g = 2 and falls
    after it, so the optimum on [0, g_max] is min(2, g_max).
    """
    if not g_max >= 0.0:
        raise ValidationError(f"coupling search bound must be >= 0, got {g_max!r}")
    g_star = min(OPTIMAL_COUPLING, g_max)
    result = cheshire_analytic(E, rho, g_star, g_star)
    if result.trace_term.real == 0.0:
        raise FlatObjective("Re Tr(E sigma_R rho Pi_L) = 0; the indicator vanishes identically")
    return CouplingOptimum(g_star, g_star, result.c_value)


@dataclass(frozen=True)
class StateOptimum:
    prep: PhotonKet
    post: PhotonKet
    c_value: float
    trace_term: complex


def optimize_states(g_a: float, g_b: float, seed: int = 0) -> StateOptimum:
    """Maximize C over normalized pure state pairs at fixed couplings.

    The trace factor is Re Tr(E sigma_R rho Pi_L) = Re l (r+ - r-)*, with
    l = <post|Pi_L|prep> and r+- the right-arm amplitude products.  By
    Cauchy-Schwarz |l| <= |post_L||prep_L| and |r+ - r-| <= |post_R||prep_R|,
    and |psi_L||psi_R| <= 1/2 for a normalized ket, so the factor is at most
    1/4.  prep = post = (|L,+> + |R,+>)/sqrt(2) attains it; it is one
    optimum of a family whose members differ by phases and polarizations,
    and this function always returns it.  ``seed`` is accepted for
    backward compatibility and has no effect.  `FlatObjective` is raised
    where `indicator_bound` is 0.0, as C is then 0.0 for every state.
    """
    _validate_couplings(g_a, g_b)
    prefactor = _coupling_prefactor(g_a, g_b).item()
    if prefactor * MAX_TRACE_TERM == 0.0:
        raise FlatObjective(
            f"coupling prefactor g_A w_A g_B w_B = {prefactor!r}; "
            "the indicator vanishes for every state"
        )
    prep = post = PhotonKet.normalized([1.0, 0.0, 1.0, 0.0])
    t = trace_term(post, prep)
    return StateOptimum(prep, post, prefactor * t.real, t)
