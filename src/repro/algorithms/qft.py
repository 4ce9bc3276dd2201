"""Quantum Fourier transform circuit."""

from __future__ import annotations

import math

from repro.circuits.circuit import Circuit
from repro.exceptions import CircuitError


def qft(num_qubits: int) -> Circuit:
    """The standard QFT: Hadamards and controlled phases, then bit reversal.

    Matches the textbook little-endian QFT matrix
    ``F[j, k] = exp(2*pi*i*j*k / 2^n) / sqrt(2^n)`` (verified against the
    explicit matrix in tests).
    """
    if num_qubits < 1:
        raise CircuitError("QFT needs at least one qubit")
    circuit = Circuit(num_qubits)
    for i in range(num_qubits - 1, -1, -1):
        circuit.h(i)
        for j in range(i - 1, -1, -1):
            circuit.cp(math.pi / float(2 ** (i - j)), j, i)
    for q in range(num_qubits // 2):
        circuit.swap(q, num_qubits - 1 - q)
    return circuit

