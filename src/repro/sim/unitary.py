"""Full-circuit unitary computation (the "Qiskit unitary simulator" role).

The reference builder of circuit unitaries: blocks, the certifier and
the tests' oracles build here.  It accumulates ``U = U_K ... U_1`` by
contracting each gate into the identity's columns — no gate is ever
embedded into a dense full-width operator on its own.  The columns move
in slabs of at most ``_SLAB_AMPLITUDES`` amplitudes, so up to 10 qubits
the whole matrix is one slab, and above that the kernel's transient
copies stay bounded by a slab.  Slabs of two or more columns give the
single-matrix products bit for bit; the width cap keeps every slab at 64
columns or more.  LEAP solutions build many at a time
(:func:`repro.synthesis.leap.solution_unitaries`), with the same
products, so their rows equal this function's matrices byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationError
from repro.linalg.embed import apply_gate_to_matrix

#: Widths beyond this are refused: the dense unitary would not fit and the
#: paper itself declares full-unitary treatment infeasible at this scale.
MAX_UNITARY_QUBITS = 14

#: Amplitudes per column slab (16 MiB of complex128).
_SLAB_AMPLITUDES = 2**20


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Compute the dense unitary of a measurement-free circuit."""
    if circuit.num_qubits > MAX_UNITARY_QUBITS:
        raise SimulationError(
            f"refusing to build a dense unitary for {circuit.num_qubits} "
            f"qubits (max {MAX_UNITARY_QUBITS}); partition the circuit instead"
        )
    if circuit.has_measurements():
        raise SimulationError(
            "circuit contains measurements; call without_measurements() first"
        )
    gates = [
        (op.gate.matrix(), op.qubits)
        for op in circuit.operations
        if op.name != "barrier"
    ]
    num_qubits = circuit.num_qubits
    dim = 2**num_qubits
    columns = min(dim, max(1, _SLAB_AMPLITUDES // dim))
    unitary = None if columns == dim else np.empty((dim, dim), dtype=complex)
    for start in range(0, dim, columns):
        slab = np.eye(dim, min(columns, dim - start), k=-start, dtype=complex)
        for gate, qubits in gates:
            slab = apply_gate_to_matrix(slab, gate, qubits, num_qubits)
        if unitary is None:
            return slab
        unitary[:, start : start + columns] = slab
    return unitary
