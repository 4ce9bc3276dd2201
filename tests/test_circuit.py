"""Unit tests for the circuit IR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, Gate, Operation
from repro.exceptions import CircuitError
from tests.helpers import equal_up_to_global_phase


def test_empty_circuit_properties():
    circuit = Circuit(3)
    assert circuit.num_qubits == 3
    assert len(circuit) == 0
    assert circuit.depth() == 0
    assert circuit.cnot_count() == 0


def test_zero_qubits_rejected():
    with pytest.raises(CircuitError):
        Circuit(0)


def test_builder_methods(bell_circuit):
    assert [op.name for op in bell_circuit] == ["h", "cx"]
    assert bell_circuit.cnot_count() == 1
    assert bell_circuit.depth() == 2


def test_out_of_range_qubit_rejected():
    circuit = Circuit(2)
    with pytest.raises(CircuitError):
        circuit.h(2)
    with pytest.raises(CircuitError):
        circuit.cx(0, 5)


def test_duplicate_qubits_rejected():
    with pytest.raises(CircuitError):
        Operation(Gate("cx"), (1, 1))


def test_wrong_arity_rejected():
    with pytest.raises(CircuitError):
        Operation(Gate("cx"), (0,))


def test_depth_counts_parallelism():
    circuit = Circuit(4)
    circuit.h(0)
    circuit.h(1)
    circuit.h(2)
    circuit.h(3)
    assert circuit.depth() == 1
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    assert circuit.depth() == 2
    circuit.cx(1, 2)
    assert circuit.depth() == 3


def test_barrier_flattens_depth():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.barrier()
    circuit.h(1)
    # The barrier forces h(1) to start after h(0)'s layer.
    assert circuit.depth() == 2


def test_cnot_count_includes_lowering_costs():
    circuit = Circuit(3)
    circuit.swap(0, 1)
    circuit.rzz(0.3, 1, 2)
    circuit.ccx(0, 1, 2)
    assert circuit.cnot_count() == 3 + 2 + 6


def test_measure_and_measure_all():
    circuit = Circuit(2)
    circuit.measure(0)
    assert circuit.operations[0].cbit == 0
    circuit2 = Circuit(3)
    circuit2.measure_all()
    assert len(circuit2) == 3
    assert circuit2.has_measurements()


def test_without_measurements(bell_circuit):
    bell_circuit.measure_all()
    stripped = bell_circuit.without_measurements()
    assert not stripped.has_measurements()
    assert len(stripped) == 2


def test_inverse_rejects_measurements(bell_circuit):
    bell_circuit.measure_all()
    with pytest.raises(CircuitError):
        bell_circuit.inverse()


def test_inverse_is_adjoint(small_entangled_circuit):
    unitary = small_entangled_circuit.unitary()
    inverse_unitary = small_entangled_circuit.inverse().unitary()
    assert equal_up_to_global_phase(
        inverse_unitary @ unitary, np.eye(8), atol=1e-8
    )


def test_remap_into_wider_circuit(bell_circuit):
    wide = bell_circuit.remap({0: 2, 1: 0}, num_qubits=4)
    assert wide.num_qubits == 4
    assert wide.operations[1].qubits == (2, 0)


def test_equality_semantics(bell_circuit):
    other = Circuit(2)
    other.h(0)
    other.cx(0, 1)
    assert bell_circuit == other
    other.x(0)
    assert bell_circuit != other
    assert bell_circuit != "not a circuit"


def test_copy_is_independent(bell_circuit):
    clone = bell_circuit.copy()
    clone.x(0)
    assert len(bell_circuit) == 2
    assert len(clone) == 3


def test_summary_mentions_counts(small_entangled_circuit):
    text = small_entangled_circuit.summary()
    assert "3 qubits" in text
    assert "3 CNOTs" in text
