"""Exact noisy simulation with a density matrix.

The role of the paper's "IBMQ QASM simulator with a Pauli noise model":
every gate is followed by the model's Pauli channel applied exactly, so
the returned distribution is the *expected* noisy distribution with no
sampling error.  Practical up to ~8 qubits (the density matrix is
``4^n`` complex numbers); larger circuits use the trajectory sampler.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationCapacityError
from repro.linalg.embed import apply_gate_to_matrix
from repro.noise.model import (
    PAULI_MATRICES,
    NoiseModel,
    PauliChannel,
    apply_readout_error,
    noise_schedule,
)

#: Hard cap for exact density-matrix simulation.
MAX_DENSITY_QUBITS = 9


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


def run_density(
    circuit: Circuit, noise: NoiseModel
) -> np.ndarray:
    """Return the exact noisy output distribution of ``circuit``.

    Starts in ``|0...0><0...0|``, applies every unitary operation followed
    by the Pauli channels :func:`~repro.noise.model.noise_schedule` puts
    after it, traces out nothing (all qubits are measured), and finally
    applies the readout confusion.
    """
    num_qubits = circuit.num_qubits
    if num_qubits > MAX_DENSITY_QUBITS:
        # Structured refusal: the 4^n density matrix would not fit, so
        # name the engine that handles this size instead of letting the
        # allocation fail (or swap) later.
        from repro.noise.ptm import MAX_PTM_QUBITS

        raise SimulationCapacityError(
            "density",
            num_qubits,
            MAX_DENSITY_QUBITS,
            suggested_engine=(
                "ptm" if num_qubits <= MAX_PTM_QUBITS else "trajectories"
            ),
            detail=f"the density matrix would hold 4^{num_qubits} complexes",
        )
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
