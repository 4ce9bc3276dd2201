"""Unitary matrix utilities and the Hilbert-Schmidt process distance.

The Hilbert-Schmidt (HS) distance is QUEST's process-distance metric
(paper Sec. 2)::

    d(U, V) = sqrt(1 - |Tr(U^dag V)|^2 / N^2)

It is invariant to global phase, ranges over [0, 1], and 0 means the two
unitaries implement the same physical transformation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ReproError

#: Max elementwise deviation of ``U^dag U`` from the identity that
#: :func:`is_unitary` accepts.
UNITARY_ATOL = 1e-7


def is_unitary(matrix: np.ndarray) -> bool:
    """Check ``U^dag U == I`` within :data:`UNITARY_ATOL`."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=UNITARY_ATOL))


def hs_inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``Tr(U^dag V)``."""
    if u.shape != v.shape:
        raise ReproError(f"shape mismatch {u.shape} vs {v.shape}")
    # Tr(U^dag V) = sum(conj(U) * V), avoiding the full matrix product.
    return complex(np.sum(u.conj() * v))


def hs_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-invariant HS process distance in ``[0, 1]`` (paper Sec. 2)."""
    dim = u.shape[0]
    overlap = abs(hs_inner(u, v)) / dim
    return math.sqrt(max(0.0, 1.0 - overlap * overlap))

