"""Tests for the dense circuit-unitary simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, gate_matrix, random_circuit
from repro.exceptions import SimulationError
from repro.sim import circuit_unitary, run_statevector
from repro.sim.unitary import MAX_UNITARY_QUBITS


def test_unitary_is_gate_product():
    circuit = Circuit(1)
    circuit.h(0)
    circuit.t(0)
    circuit.s(0)
    expected = gate_matrix("s") @ gate_matrix("t") @ gate_matrix("h")
    assert np.allclose(circuit_unitary(circuit), expected)


def test_unitary_matches_statevector(rng):
    circuit = random_circuit(3, 6, rng=rng)
    unitary = circuit_unitary(circuit)
    assert np.allclose(unitary[:, 0], run_statevector(circuit))


def test_unitary_column_action(rng):
    circuit = random_circuit(3, 4, rng=rng)
    unitary = circuit_unitary(circuit)
    for basis in range(8):
        initial = np.zeros(8, dtype=complex)
        initial[basis] = 1.0
        assert np.allclose(
            unitary[:, basis],
            run_statevector(circuit, initial_state=initial),
        )


def test_unitary_rejects_measurements(bell_circuit):
    bell_circuit.measure_all()
    with pytest.raises(SimulationError):
        circuit_unitary(bell_circuit)


def test_unitary_rejects_large_circuits():
    with pytest.raises(SimulationError):
        circuit_unitary(Circuit(MAX_UNITARY_QUBITS + 1))


def test_empty_circuit_is_identity():
    assert np.allclose(circuit_unitary(Circuit(2)), np.eye(4))


def test_barriers_are_transparent(bell_circuit):
    with_barrier = Circuit(2)
    with_barrier.h(0)
    with_barrier.barrier()
    with_barrier.cx(0, 1)
    assert np.allclose(
        circuit_unitary(with_barrier), circuit_unitary(bell_circuit)
    )
