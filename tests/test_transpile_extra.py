"""Additional transpiler edge cases."""

from __future__ import annotations

from repro.circuits import Circuit
from repro.sim import circuit_unitary
from repro.transpile import passes
from repro.transpile import (
    cancel_adjacent_cx,
    consolidate_two_qubit_runs,
    merge_one_qubit_gates,
    transpile,
)
from tests.helpers import equal_up_to_global_phase


def test_merge_keeps_measurements_in_place():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.h(0)
    circuit.measure(0, 0)
    merged = merge_one_qubit_gates(circuit)
    assert [op.name for op in merged] == ["measure"]


def test_cancel_ignores_measured_qubits():
    circuit = Circuit(2)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.cx(0, 1)
    cancelled = cancel_adjacent_cx(circuit)
    assert cancelled.cnot_count() == 2


def test_consolidation_min_run_setting(rng, monkeypatch):
    circuit = Circuit(2)
    circuit.cx(0, 1)
    circuit.ry(0.2, 1)
    circuit.cx(0, 1)
    # A floor of 3 CNOTs leaves a 2-CNOT run untouched.
    with monkeypatch.context() as patch:
        patch.setattr(passes, "_MIN_RUN_CNOTS", 3)
        untouched = consolidate_two_qubit_runs(circuit, rng=rng)
    assert untouched.cnot_count() == 2
    # Default consolidates it down to <= 2 (here: an RZZ-class gate, 2 CX;
    # the pass only rewrites when strictly cheaper, so it may keep 2).
    consolidated = consolidate_two_qubit_runs(circuit, rng=rng)
    assert consolidated.cnot_count() <= 2
    assert equal_up_to_global_phase(
        circuit_unitary(consolidated), circuit_unitary(circuit), atol=1e-6
    )


def test_consolidation_collapses_identity_pair(rng):
    circuit = Circuit(2)
    circuit.cx(0, 1)
    circuit.cx(0, 1)
    consolidated = consolidate_two_qubit_runs(circuit, rng=rng)
    assert consolidated.cnot_count() == 0


def test_transpile_result_exposes_cnot_count(bell_circuit):
    result = transpile(bell_circuit, optimization_level=1)
    assert result.cnot_count == result.circuit.cnot_count() == 1


def test_transpile_idempotent(rng):
    from repro.circuits import random_circuit

    circuit = random_circuit(3, 5, rng=rng)
    once = transpile(circuit, optimization_level=2, rng=0)
    twice = transpile(once.circuit, optimization_level=2, rng=0)
    assert twice.cnot_count <= once.cnot_count
    assert equal_up_to_global_phase(
        circuit_unitary(twice.circuit), circuit_unitary(circuit), atol=1e-6
    )


def test_swap_heavy_circuit_reduction():
    # SWAP then identical SWAP: level-2 passes cancel all six CNOTs.
    circuit = Circuit(2)
    circuit.swap(0, 1)
    circuit.swap(0, 1)
    result = transpile(circuit, optimization_level=2)
    assert result.cnot_count == 0


def test_remap_measurement_cbits():
    circuit = Circuit(3)
    circuit.measure(0, 0)
    remapped = circuit.remap({0: 2, 1: 1, 2: 0})
    op = remapped.operations[0]
    assert op.qubits == (2,)
    assert op.cbit == 2
