"""Frozen per-column reference for the certifier's unitary rebuild.

:func:`repro.verify.independent.independent_unitary` evolves the
identity's rows through a circuit in batched passes.  This module keeps
the loop it replaced — one statevector run per column — as the oracle
the tests hold it to.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.sim.statevector import run_statevector


def independent_unitary(circuit: Circuit) -> np.ndarray:
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
