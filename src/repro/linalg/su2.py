"""Analytic decomposition of one-qubit unitaries (ZYZ / U3 form).

Any ``U in U(2)`` factors as ``U = e^{i alpha} RZ(phi) RY(theta) RZ(lam)``.
This is the workhorse of the transpiler's one-qubit resynthesis pass: runs
of adjacent one-qubit gates are multiplied together and re-emitted as a
single U3.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.exceptions import ReproError
from repro.linalg.unitary import is_unitary

#: Angles smaller than this are treated as zero when simplifying.
ANGLE_ATOL = 1e-10


def zyz_decompose(u: np.ndarray) -> tuple[float, float, float, float]:
    """Return ``(theta, phi, lam, alpha)`` with ``U = e^{i alpha} RZ(phi) RY(theta) RZ(lam)``."""
    if u.shape != (2, 2) or not is_unitary(u):
        raise ReproError("zyz_decompose expects a 2x2 unitary")
    det = np.linalg.det(u)
    alpha = 0.5 * cmath.phase(det)
    su2 = u * cmath.exp(-1j * alpha)
    # su2 = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    theta = 2.0 * math.atan2(abs(su2[1, 0]), abs(su2[0, 0]))
    if abs(su2[1, 0]) < ANGLE_ATOL:
        # Diagonal: only phi + lam is defined; put it all in phi.
        phi = 2.0 * cmath.phase(su2[1, 1])
        lam = 0.0
    elif abs(su2[0, 0]) < ANGLE_ATOL:
        # Anti-diagonal: only phi - lam is defined.
        phi = 2.0 * cmath.phase(su2[1, 0])
        lam = 0.0
    else:
        phi = cmath.phase(su2[1, 1]) + cmath.phase(su2[1, 0])
        lam = cmath.phase(su2[1, 1]) - cmath.phase(su2[1, 0])
    return theta, phi, lam, alpha


def is_identity_angles(theta: float, phi: float, lam: float) -> bool:
    """Whether ``U3(theta, phi, lam)`` is the identity up to global phase."""
    two_pi = 2.0 * math.pi
    theta_mod = abs(math.remainder(theta, two_pi))
    total = abs(math.remainder(phi + lam, two_pi))
    return theta_mod < ANGLE_ATOL and total < ANGLE_ATOL
