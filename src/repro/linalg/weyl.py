"""Two-qubit invariants: magic basis, Makhlin invariants, CNOT class.

Used by the transpiler's two-qubit consolidation pass to predict how many
CNOTs a consolidated block needs before running numerical template
fitting, and by tests as an independent check of the synthesis engine.

References: Makhlin (2002); Shende, Bullock, Markov (2004) "Minimal
universal two-qubit controlled-NOT-based circuits".
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ReproError
from repro.linalg.unitary import is_unitary

#: The magic basis: conjugation by MAGIC maps SU(2) (x) SU(2) to SO(4).
MAGIC = (1.0 / math.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)


#: Tolerance of :func:`estimated_cnot_class`'s tensor-product test; its
#: invariant tests allow the square root of it.
_CLASS_ATOL = 1e-7


def magic_rep(u: np.ndarray) -> np.ndarray:
    """Return the special-unitary magic-basis representation of ``U``.

    The result is ``M^dag (U / det(U)^{1/4}) M``; the fourth-root branch is
    arbitrary, which the invariant helpers below account for.
    """
    if u.shape != (4, 4) or not is_unitary(u):
        raise ReproError("magic_rep expects a 4x4 unitary")
    det = np.linalg.det(u)
    su4 = u * complex(det) ** (-0.25)
    return MAGIC.conj().T @ su4 @ MAGIC


def is_tensor_product(u: np.ndarray, atol: float = 1e-8) -> bool:
    """Whether ``U = B (x) A`` for one-qubit unitaries ``A`` and ``B``."""
    if u.shape != (4, 4):
        raise ReproError("is_tensor_product expects a 4x4 matrix")
    # Reshuffle so that a Kron product becomes a rank-1 matrix.
    reshaped = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    singular_values = np.linalg.svd(reshaped, compute_uv=False)
    return bool(singular_values[1] < atol)


def decompose_tensor_product(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex]:
    """Split ``U = phase * (B (x) A)`` into ``(A, B, phase)``.

    ``A`` acts on the first (low-order) qubit, ``B`` on the second, matching
    the little-endian convention (``np.kron(B, A)``).  Raises
    :class:`ReproError` if ``U`` is not a tensor product.
    """
    if not is_tensor_product(u, atol=1e-6):
        raise ReproError("matrix is not a tensor product of one-qubit gates")
    reshaped = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    left, sing, right_h = np.linalg.svd(reshaped)
    b = left[:, 0].reshape(2, 2) * math.sqrt(sing[0])
    a = right_h[0, :].reshape(2, 2) * math.sqrt(sing[0])
    # Normalize each factor to unit determinant; push the correction
    # phases into the returned global phase so phase * kron(B, A) == U.
    phase = 1.0 + 0.0j
    det_a = complex(np.linalg.det(a))
    det_b = complex(np.linalg.det(b))
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise ReproError("degenerate tensor factor")
    a = a * det_a ** (-0.5)
    b = b * det_b ** (-0.5)
    phase = det_a**0.5 * det_b**0.5
    return a, b, phase


def estimated_cnot_class(u: np.ndarray) -> int:
    """Estimate the minimal CNOT count (0-3) to implement ``U`` exactly.

    Uses local invariants: tensor products need 0; the CNOT local-
    equivalence class (``|G1| = 0``, ``G2 = 1``) needs 1; unitaries with a
    real ``G1`` sit in the two-CNOT subvariety (Shende-Bullock-Markov);
    everything else needs 3.  The numerical two-qubit decomposer uses this
    as a starting point and falls back to more CNOTs if template fitting
    does not reach tolerance, so a borderline misclassification is safe.
    """
    if is_tensor_product(u, atol=_CLASS_ATOL):
        return 0
    m = magic_rep(u)
    gamma = m @ m.T
    trace = complex(np.trace(gamma))
    g2 = float(np.real((trace * trace - np.trace(gamma @ gamma)) / 4.0))
    tol = math.sqrt(_CLASS_ATOL)
    if abs(trace) < tol and abs(g2 - 1.0) < tol:
        return 1
    # Shende-Bullock-Markov: two CNOTs suffice iff tr(gamma) is real (the
    # det-branch only flips its sign, so realness is branch-invariant).
    if abs(trace.imag) < tol:
        return 2
    return 3
