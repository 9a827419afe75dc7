"""Shared fixtures and hypothesis strategies."""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from cheshire.dynamics import JointMeterState
from cheshire.qsystem import DIM, PhotonKet, _coherence

settings.register_profile(
    "pkg",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")


@pytest.fixture
def no_eigensolver(monkeypatch):
    """numpy's eigensolvers raise.  The first LAPACK call of a process costs
    about 0.6-0.7 MB of peak RSS and 0.1-0.3 ms (4x4 eigvalsh on a 2-core
    Xeon), so the paths that need no eigenvalues must not make one."""
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.fixture
def no_worker_threads(monkeypatch):
    """Starting a thread raises, so a test can show that the sampler, whose
    workers are plain `threading.Thread`s, starts none."""
    def refuse(self):
        raise AssertionError(f"thread {self.name} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def projector(*indices: int) -> np.ndarray:
    """Read-only projector onto the given basis states: projector(0, 1) is the
    left-arm Pi_L, projector(2) and projector(3) the right-arm Pi_R+ and Pi_R-."""
    p = np.zeros((DIM, DIM), dtype=complex)
    for i in indices:
        p[i, i] = 1.0
    p.setflags(write=False)
    return p


def failed_state(coherence, weights, g_a, g_b) -> JointMeterState:
    """The failed-postselection meter state, over diag(p) - K: its
    `grid_moments` norm is P' = 1 - P and its xy moment flips the success one."""
    return JointMeterState(np.diag(weights.probabilities) - _coherence(coherence), g_a, g_b)


@pytest.fixture
def example_prep() -> PhotonKet:
    """(|L,+> + |R,+> + |R,->)/sqrt(3)."""
    return PhotonKet(np.array([1.0, 0.0, 1.0, 1.0]) / np.sqrt(3.0))


@pytest.fixture
def example_post() -> PhotonKet:
    """(|L,+> + |R,+> - |R,->)/sqrt(3)."""
    return PhotonKet(np.array([1.0, 0.0, 1.0, -1.0]) / np.sqrt(3.0))


@pytest.fixture
def cheshire_prep() -> PhotonKet:
    """Preparation giving weak values L_w = Sigma_w = 1 with the paired post."""
    return PhotonKet(np.array([np.sqrt(0.5), 0.0, 0.5, 0.5]))


@pytest.fixture
def cheshire_post() -> PhotonKet:
    return PhotonKet(np.array([np.sqrt(0.5), 0.0, 0.5, -0.5]))


def complex_amplitudes():
    """Strategy: finite complex 4-vectors with non-negligible norm."""
    part = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
    vec = st.lists(st.tuples(part, part), min_size=DIM, max_size=DIM)
    return vec.map(lambda v: np.array([re + 1j * im for re, im in v])).filter(
        lambda a: np.linalg.norm(a) > 1e-3
    )


def unit_kets():
    """Strategy: normalized PhotonKet values."""
    return complex_amplitudes().map(PhotonKet.normalized)
