"""Frozen ``tensordot`` + ``moveaxis`` reference for the gate kernel.

:mod:`repro.linalg.embed` applies a gate through one cached transpose
plan and a single ``np.dot``.  This module keeps the three bodies it
replaced — one ``np.tensordot`` followed by one ``np.moveaxis`` per
operand layout — as the oracle the tests hold it to, bit for bit.
Target validation is the kernel's own (its error paths are tested
separately), so these functions assume valid input.
"""

from __future__ import annotations

import numpy as np


def apply_gate_to_state(
    state: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """``embed(gate) @ state`` for one ``(2^n,)`` statevector."""
    k = len(qubits)
    tensor = state.reshape((2,) * num_qubits)
    gate_tensor = gate.reshape((2,) * (2 * k))
    # Gate input axis k + i corresponds to gate qubit (k - 1 - i), i.e. the
    # qubit qubits[k - 1 - i]; in the state tensor that qubit lives on axis
    # num_qubits - 1 - qubits[k - 1 - i].
    state_axes = [num_qubits - 1 - qubits[k - 1 - i] for i in range(k)]
    out = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), state_axes))
    # Output axes 0..k-1 correspond to qubits[k-1], ..., qubits[0].
    out = np.moveaxis(out, range(k), state_axes)
    return np.ascontiguousarray(out.reshape(state.shape))


def apply_gate_to_states(
    states: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """``embed(gate)`` applied to every row of a ``(T, 2^n)`` batch."""
    k = len(qubits)
    batch = states.shape[0]
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    gate_tensor = gate.reshape((2,) * (2 * k))
    # Same axis bookkeeping, shifted by the leading batch axis.
    state_axes = [1 + num_qubits - 1 - qubits[k - 1 - i] for i in range(k)]
    out = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), state_axes))
    out = np.moveaxis(out, range(k), state_axes)
    return np.ascontiguousarray(out.reshape(states.shape))


def apply_gate_to_matrix(
    matrix: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """``embed(gate) @ matrix`` for a ``(2^n, m)`` matrix."""
    k = len(qubits)
    dim = 2**num_qubits
    cols = matrix.shape[1]
    tensor = matrix.reshape((2,) * num_qubits + (cols,))
    gate_tensor = gate.reshape((2,) * (2 * k))
    row_axes = [num_qubits - 1 - qubits[k - 1 - i] for i in range(k)]
    out = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), row_axes))
    out = np.moveaxis(out, range(k), row_axes)
    return np.ascontiguousarray(out.reshape(dim, cols))
