"""Tests for basis translation to {rotations, CX}."""

from __future__ import annotations

import pytest

from repro.circuits import (
    GATE_NUM_PARAMS,
    GATE_NUM_QUBITS,
    Circuit,
    Gate,
    Operation,
    random_circuit,
)
from repro.sim import circuit_unitary
from repro.transpile import lower_to_basis
from tests.helpers import equal_up_to_global_phase

_BASIS = frozenset({"cx", "rx", "ry", "rz", "p"})

ALL_GATES = [
    name
    for name in GATE_NUM_PARAMS
    if name not in ("measure", "barrier")
]


@pytest.mark.parametrize("name", ALL_GATES)
def test_each_gate_lowers_equivalently(name):
    arity = GATE_NUM_QUBITS[name]
    params = tuple(0.37 * (i + 1) for i in range(GATE_NUM_PARAMS[name]))
    circuit = Circuit(max(arity, 1))
    circuit.append(Operation(Gate(name, params), tuple(range(arity))))
    lowered = lower_to_basis(circuit)
    assert all(op.name in _BASIS for op in lowered.operations)
    assert equal_up_to_global_phase(
        circuit_unitary(lowered), circuit_unitary(circuit), atol=1e-8
    )


def test_lowering_preserves_measure_and_barrier():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.barrier()
    circuit.measure(0, 1)
    lowered = lower_to_basis(circuit)
    names = [op.name for op in lowered.operations]
    assert "barrier" in names
    assert "measure" in names
    measure = [op for op in lowered.operations if op.name == "measure"][0]
    assert measure.cbit == 1


def test_lowering_random_circuits(rng):
    for _ in range(5):
        circuit = random_circuit(4, 5, rng=rng)
        lowered = lower_to_basis(circuit)
        assert equal_up_to_global_phase(
            circuit_unitary(lowered), circuit_unitary(circuit), atol=1e-8
        )


def test_cnot_count_after_lowering_matches_cost():
    circuit = Circuit(3)
    circuit.swap(0, 1)
    circuit.ccx(0, 1, 2)
    circuit.rzz(0.4, 1, 2)
    lowered = lower_to_basis(circuit)
    native_cx = sum(1 for op in lowered.operations if op.name == "cx")
    assert native_cx == circuit.cnot_count()
