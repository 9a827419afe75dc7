"""A 2-D reference for the joint readout density, written for the tests alone.

It uses numpy only and imports nothing from `cheshire`: its branch shifts,
pointer wave and trapezoid weights are its own, so a fault in the package's
versions of them cannot move this reference along with the routes it checks.

Branch k (order L, R+, R-) shifts meter A by g_A (1, 0, 0)_k and meter B by
g_B (0, 1, -1)_k.  Over a branch coherence K the readout plane is

    p(x, y) = Re sum_jk K_jk a_j*(x) a_k(x) b_j*(y) b_k(y),

a_k and b_k the pointer wave shifted by each meter's shift: |F|^2 for a
pure pair, p_cl for K = diag(p) and the failed branch for diag(p) - K.
"""

from typing import NamedTuple

import numpy as np

SHIFTS_A = np.array([1.0, 0.0, 0.0])
SHIFTS_B = np.array([0.0, 1.0, -1.0])
BLOCK_ROWS = 256  # plane rows per block of `moments`, so memory stays O(256 n)
# Rounding of the failed plane p_cl - p_s, whose terms are at most 1/(2 pi), is about 1e-16.
POSITIVITY_FLOOR = 1e-10


class Moments(NamedTuple):
    """Trapezoid integrals of 1, x, y and xy against the plane."""

    norm: float
    x: float
    y: float
    xy: float


def gaussian(x):
    """The Gaussian pointer (2 pi)^(-1/4) exp(-x^2 / 4): mean 0, variance 1."""
    return np.exp(-0.25 * np.square(x)) / (2.0 * np.pi) ** 0.25


def coherence(k) -> np.ndarray:
    """K as a 3x3 complex array; three amplitudes c stand for K = conj(c) c^T."""
    k = np.asarray(k, dtype=complex)
    return np.outer(k.conj(), k) if k.shape == (3,) else k


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights of the trapezoid rule on increasing points: half of each adjacent gap."""
    half_gaps = 0.5 * np.diff(x)
    return np.append(half_gaps, 0.0) + np.insert(half_gaps, 0, 0.0)


def _pairs(pointer, g, shifts, x) -> np.ndarray:
    """conj(w_j) w_k at the points x for the 9 branch pairs, in K's row-major order."""
    waves = np.array([pointer(x - g * s) for s in shifts])
    return (waves.conj()[:, None] * waves[None, :]).reshape(9, len(x))


def _product(k, pairs_a, pairs_b) -> np.ndarray:
    rows = (coherence(k).reshape(9, 1) * pairs_a).T
    if np.isrealobj(pairs_b):
        # real waves on B: only Re(rows) counts
        return rows.real @ pairs_b
    return (rows @ pairs_b).real


def plane(k, g_a, g_b, x, y=None, pointer=gaussian) -> np.ndarray:
    """The readout plane at every (x_i, y_j), shape (len(x), len(y)); y
    defaults to x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = x if y is None else np.atleast_1d(np.asarray(y, dtype=float))
    return _product(k, _pairs(pointer, g_a, SHIFTS_A, x), _pairs(pointer, g_b, SHIFTS_B, y))


def moments(k, g_a, g_b, x, pointer=gaussian) -> Moments:
    """The plane's trapezoid moments on x times x, one block of BLOCK_ROWS rows
    at a time."""
    x = np.asarray(x, dtype=float)
    pairs_a, pairs_b = _pairs(pointer, g_a, SHIFTS_A, x), _pairs(pointer, g_b, SHIFTS_B, x)
    w = trapezoid_weights(x)
    against = np.stack([w, w * x], axis=1)  # columns: the weights of 1 and of x
    total = np.zeros((2, 2))  # [[1 1, 1 y], [x 1, x y]]
    for lo in range(0, len(x), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        total += against[rows].T @ (_product(k, pairs_a[:, rows], pairs_b) @ against)
    return Moments(total[0, 0], total[1, 0], total[0, 1], total[1, 1])
