"""Tests for peephole optimization passes."""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit, random_circuit
from repro.sim import circuit_unitary
from repro.transpile import (
    cancel_adjacent_cx,
    consolidate_two_qubit_runs,
    lower_to_basis,
    merge_one_qubit_gates,
    remove_identity_rotations,
)
from tests.helpers import equal_up_to_global_phase


def _equivalent(a: Circuit, b: Circuit) -> bool:
    return equal_up_to_global_phase(
        circuit_unitary(a), circuit_unitary(b), atol=1e-6
    )


class TestMergeOneQubitGates:
    def test_merges_rotation_run(self):
        circuit = Circuit(1)
        circuit.rz(0.1, 0)
        circuit.rz(0.2, 0)
        circuit.rz(0.3, 0)
        merged = merge_one_qubit_gates(circuit)
        assert len(merged) == 1
        assert _equivalent(merged, circuit)

    def test_identity_run_disappears(self):
        circuit = Circuit(1)
        circuit.h(0)
        circuit.h(0)
        merged = merge_one_qubit_gates(circuit)
        assert len(merged) == 0

    def test_flushes_at_two_qubit_gates(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(0)
        merged = merge_one_qubit_gates(circuit)
        assert _equivalent(merged, circuit)
        assert merged.cnot_count() == 1

    def test_random_circuits_preserved(self, rng):
        for _ in range(8):
            circuit = random_circuit(3, 6, rng=rng)
            assert _equivalent(merge_one_qubit_gates(circuit), circuit)

    def test_never_increases_one_qubit_count(self, rng):
        circuit = random_circuit(2, 10, rng=rng, cx_probability=0.1)
        merged = merge_one_qubit_gates(circuit)
        assert len(merged) <= len(circuit)


class TestCancelAdjacentCx:
    def test_plain_pair_cancels(self):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        assert len(cancel_adjacent_cx(circuit)) == 0

    def test_reversed_pair_kept(self):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        assert cancel_adjacent_cx(circuit).cnot_count() == 2

    def test_rz_on_control_commutes(self):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.5, 0)
        circuit.cx(0, 1)
        cancelled = cancel_adjacent_cx(circuit)
        assert cancelled.cnot_count() == 0
        assert _equivalent(cancelled, circuit)

    def test_rx_on_target_commutes(self):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        circuit.rx(0.5, 1)
        circuit.cx(0, 1)
        cancelled = cancel_adjacent_cx(circuit)
        assert cancelled.cnot_count() == 0
        assert _equivalent(cancelled, circuit)

    def test_ry_blocks_cancellation(self):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        circuit.ry(0.5, 1)
        circuit.cx(0, 1)
        assert cancel_adjacent_cx(circuit).cnot_count() == 2

    def test_shared_control_commutes(self):
        circuit = Circuit(3)
        circuit.cx(0, 1)
        circuit.cx(0, 2)
        circuit.cx(0, 1)
        cancelled = cancel_adjacent_cx(circuit)
        assert cancelled.cnot_count() == 1
        assert _equivalent(cancelled, circuit)

    def test_shared_target_commutes(self):
        circuit = Circuit(3)
        circuit.cx(0, 2)
        circuit.cx(1, 2)
        circuit.cx(0, 2)
        cancelled = cancel_adjacent_cx(circuit)
        assert cancelled.cnot_count() == 1
        assert _equivalent(cancelled, circuit)

    def test_barrier_blocks_cancellation(self):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        circuit.barrier()
        circuit.cx(0, 1)
        assert cancel_adjacent_cx(circuit).cnot_count() == 2

    def test_random_circuits_preserved(self, rng):
        for _ in range(8):
            circuit = random_circuit(3, 6, rng=rng)
            assert _equivalent(cancel_adjacent_cx(circuit), circuit)


class TestRemoveIdentityRotations:
    def test_removes_two_pi(self):
        circuit = Circuit(1)
        circuit.rz(2.0 * np.pi, 0)
        circuit.rx(0.0, 0)
        circuit.ry(0.5, 0)
        out = remove_identity_rotations(circuit)
        assert len(out) == 1
        assert out.operations[0].name == "ry"


class TestConsolidation:
    def test_reduces_long_same_pair_run(self, rng):
        circuit = Circuit(2)
        for i in range(6):
            circuit.cx(i % 2, (i + 1) % 2)
            circuit.ry(0.3 + 0.1 * i, 0)
            circuit.rz(0.2 + 0.1 * i, 1)
        consolidated = consolidate_two_qubit_runs(circuit, rng=rng)
        assert consolidated.cnot_count() <= 3
        assert _equivalent(consolidated, circuit)

    def test_leaves_cheap_runs_alone(self, rng):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        consolidated = consolidate_two_qubit_runs(circuit, rng=rng)
        assert consolidated.cnot_count() == 1

    def test_preserves_interleaved_other_qubits(self, rng):
        circuit = Circuit(3)
        circuit.cx(0, 1)
        circuit.h(2)
        circuit.cx(0, 1)
        circuit.ry(0.4, 2)
        circuit.cx(1, 2)
        consolidated = consolidate_two_qubit_runs(circuit, rng=rng)
        assert _equivalent(consolidated, circuit)

    def test_random_circuits_preserved(self, rng):
        for _ in range(4):
            circuit = lower_to_basis(random_circuit(3, 5, rng=rng))
            consolidated = consolidate_two_qubit_runs(circuit, rng=rng)
            assert _equivalent(consolidated, circuit)
