"""Circuit-built reference for epsilon-sphere variants.

:mod:`repro.synthesis.sphere` shifts a LEAP solution's angles as data
and builds each probe's matrix from the structure's compiled gate list.
This module keeps the circuit path it replaced — find the rotation
operations, then rebuild the circuit with each shifted angle stored as
``op.params[0] + float(shift)`` — as the oracle the tests hold it to,
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit


def rotation_indices(circuit: Circuit) -> list[int]:
    """Positions of the circuit's parameterized rx/ry/rz operations."""
    return [
        position
        for position, op in enumerate(circuit.operations)
        if op.name in ("rx", "ry", "rz") and op.params
    ]


def with_shifted_angles(
    circuit: Circuit, indices: list[int], shifts: np.ndarray
) -> Circuit:
    """``circuit`` with the rotation at ``indices[i]`` shifted by ``shifts[i]``."""
    out = Circuit(circuit.num_qubits)
    shift_at = dict(zip(indices, shifts))
    for position, op in enumerate(circuit.operations):
        if position in shift_at:
            out.add_gate(
                op.name, op.qubits, (op.params[0] + float(shift_at[position]),)
            )
        else:
            out.append(op)
    return out
