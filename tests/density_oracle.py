"""Exact noisy simulation with a density matrix: the reference engine.

:func:`repro.noise.run_ptm` evolves a circuit's Pauli-transfer-matrix
superoperator and never builds a density matrix.  This module keeps the
direct simulation as the oracle the tests hold it to: every gate is
applied as ``U rho U^dag`` and followed by the Pauli channels that
:func:`repro.noise.model.noise_schedule` puts after it, each applied
exactly, so the returned distribution is the *expected* noisy
distribution with no sampling error.  The density matrix holds ``4^n``
complexes, so keep it to a few qubits.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.embed import apply_gate_to_matrix
from repro.noise.model import (
    PAULI_MATRICES,
    PauliChannel,
    apply_readout_error,
    noise_schedule,
)

#: Max pointwise disagreement between the PTM engine's distribution and
#: this reference for the same circuit and noise model.  Both are exact,
#: so the gap is pure contraction-order rounding.
PTM_DENSITY_AGREEMENT_ATOL = 1e-10


def _conjugate_apply(
    rho: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Return ``U rho U^dag`` for an embedded gate ``U``."""
    half = apply_gate_to_matrix(rho, gate, qubits, num_qubits)
    # (U rho) U^dag == (U (U rho)^dag)^dag
    return apply_gate_to_matrix(half.conj().T, gate, qubits, num_qubits).conj().T


def _apply_pauli_channel(
    rho: np.ndarray, channel: PauliChannel, num_qubits: int
) -> np.ndarray:
    """Apply one scheduled Pauli channel exactly."""
    terms = channel.terms
    total_error = sum(p for p, _ in terms)
    out = (1.0 - total_error) * rho
    for probability, label in terms:
        out = out + probability * _conjugate_apply(
            rho, PAULI_MATRICES[label], channel.qubits, num_qubits
        )
    return out


def run_density(circuit, noise) -> np.ndarray:
    """Return the exact noisy output distribution of ``circuit``.

    Starts in ``|0...0><0...0|``, applies every unitary operation followed
    by its scheduled Pauli channels, traces out nothing (all qubits are
    measured), and finally applies the readout confusion.
    """
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for gate, qubits, channels in noise_schedule(circuit, noise):
        rho = _conjugate_apply(rho, gate, qubits, num_qubits)
        for channel in channels:
            rho = _apply_pauli_channel(rho, channel, num_qubits)
    probs = np.real(np.diag(rho)).copy()
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    return apply_readout_error(probs, num_qubits, noise.readout_error)
