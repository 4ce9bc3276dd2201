"""Frozen per-column reference for :func:`repro.sim.unitary.circuit_unitary`.

The library builds a circuit's unitary by contracting every gate into
slabs of the identity's columns.  This module keeps the loop the
certifier once used instead — one statevector run per column — as the
oracle the tests hold the builder to.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.statevector import run_statevector


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Column ``k`` is the circuit applied to basis state ``|k>``."""
    stripped = circuit.without_measurements()
    dim = 2**circuit.num_qubits
    columns = np.empty((dim, dim), dtype=complex)
    basis = np.zeros(dim, dtype=complex)
    for k in range(dim):
        basis[k] = 1.0
        columns[:, k] = run_statevector(stripped, basis)
        basis[k] = 0.0
    return columns
