"""Output observables for the spin-model case studies (paper Figs. 1/13/14).

Magnetization is computed from a measured Z-basis distribution: bit 0
means spin up (+1), bit 1 spin down (-1).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError


def _spin_values(num_spins: int) -> np.ndarray:
    """Matrix ``S[state, spin] in {+1, -1}`` for all basis states."""
    states = np.arange(2**num_spins)
    bits = (states[:, None] >> np.arange(num_spins)[None, :]) & 1
    return 1.0 - 2.0 * bits


def average_magnetization(probs: np.ndarray, num_spins: int) -> float:
    """``(1/n) sum_i <Z_i>`` under the given outcome distribution."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (2**num_spins,):
        raise ReproError(
            f"distribution length {probs.shape} != 2**{num_spins}"
        )
    spins = _spin_values(num_spins)
    return float(probs @ spins.mean(axis=1))

