"""Ideal statevector simulation.

Provides the "ground truth" path of the paper's evaluation: circuits are
evolved exactly and the output probability distribution (Born rule) is
either returned analytically or sampled shot-by-shot.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationError
from repro.linalg.embed import apply_gate_to_state
from repro.metrics.tolerances import DISTRIBUTION_NORM_TOL


def zero_state(num_qubits: int) -> np.ndarray:
    """Return the ``|0...0>`` statevector of ``num_qubits`` qubits."""
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def run_statevector(
    circuit: Circuit, initial_state: np.ndarray | None = None
) -> np.ndarray:
    """Evolve a statevector through the circuit's unitary operations.

    Measurements and barriers are ignored (the full pre-measurement state
    is returned); use :func:`probabilities` or :func:`sample_counts` to
    model the readout.
    """
    num_qubits = circuit.num_qubits
    if initial_state is None:
        state = zero_state(num_qubits)
    else:
        state = np.asarray(initial_state, dtype=complex).copy()
        if state.shape != (2**num_qubits,):
            raise SimulationError(
                f"initial state has shape {state.shape}, "
                f"expected ({2**num_qubits},)"
            )
    for op in circuit.operations:
        if op.name in ("measure", "barrier"):
            continue
        state = apply_gate_to_state(state, op.gate.matrix(), op.qubits, num_qubits)
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    """Born-rule outcome probabilities of a statevector."""
    probs = np.abs(state) ** 2
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=DISTRIBUTION_NORM_TOL):
        raise SimulationError(f"state is not normalized (sum={total})")
    return probs / total


def ideal_distribution(circuit: Circuit) -> np.ndarray:
    """Exact output distribution of ``circuit`` starting from ``|0...0>``."""
    return probabilities(run_statevector(circuit.without_measurements()))

