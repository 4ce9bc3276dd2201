"""Tests for the scan partitioner and block stitching."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, random_circuit
from repro.exceptions import PartitionError
from repro.partition import CircuitBlock, scan_partition, stitch_blocks
from repro.sim import circuit_unitary
from tests.helpers import equal_up_to_global_phase


def test_single_block_for_small_circuit(ghz3_circuit):
    blocks = scan_partition(ghz3_circuit, max_block_qubits=3)
    assert len(blocks) == 1
    assert blocks[0].qubits == (0, 1, 2)


def test_blocks_respect_size_limit(rng):
    circuit = random_circuit(6, 5, rng=rng)
    for limit in (2, 3, 4):
        blocks = scan_partition(circuit, max_block_qubits=limit)
        assert all(b.num_qubits <= limit for b in blocks)


def test_stitching_reconstructs_circuit(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        circuit = random_circuit(n, int(rng.integers(2, 7)), rng=rng)
        blocks = scan_partition(circuit, max_block_qubits=3)
        stitched = stitch_blocks(blocks, n)
        assert equal_up_to_global_phase(
            circuit_unitary(stitched), circuit_unitary(circuit), atol=1e-8
        )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 6),
    depth=st.integers(1, 6),
    limit=st.integers(2, 4),
)
def test_partition_roundtrip_property(seed, n, depth, limit):
    circuit = random_circuit(n, depth, rng=seed)
    blocks = scan_partition(circuit, max_block_qubits=limit)
    stitched = stitch_blocks(blocks, n)
    assert equal_up_to_global_phase(
        circuit_unitary(stitched), circuit_unitary(circuit), atol=1e-7
    )


def test_per_qubit_block_order_monotonic(rng):
    # The correctness invariant behind the scan partitioner.
    circuit = random_circuit(6, 6, rng=rng)
    blocks = scan_partition(circuit, max_block_qubits=3)
    op_block: dict[int, list[int]] = {}
    for block in blocks:
        for op in block.circuit.operations:
            for local in op.qubits:
                global_q = block.qubits[local]
                op_block.setdefault(global_q, []).append(block.index)
    # Gate order within a block follows circuit order by construction;
    # across blocks each qubit's block indices must be non-decreasing.
    for indices in op_block.values():
        assert indices == sorted(indices)


def test_gate_count_preserved(rng):
    circuit = random_circuit(5, 5, rng=rng)
    blocks = scan_partition(circuit, max_block_qubits=3)
    total = sum(len(b.circuit) for b in blocks)
    unitary_ops = [
        op for op in circuit.operations if op.name not in ("measure", "barrier")
    ]
    assert total == len(unitary_ops)


def test_partition_rejects_measurements(bell_circuit):
    bell_circuit.measure_all()
    with pytest.raises(PartitionError):
        scan_partition(bell_circuit)


def test_partition_rejects_tiny_blocks(bell_circuit):
    with pytest.raises(PartitionError):
        scan_partition(bell_circuit, max_block_qubits=1)


def test_partition_rejects_oversized_gate():
    circuit = Circuit(3)
    circuit.ccx(0, 1, 2)
    with pytest.raises(PartitionError):
        scan_partition(circuit, max_block_qubits=2)


def test_block_validation():
    with pytest.raises(PartitionError):
        CircuitBlock(index=0, qubits=(2, 1), circuit=Circuit(2))
    with pytest.raises(PartitionError):
        CircuitBlock(index=0, qubits=(0, 1), circuit=Circuit(3))


def test_block_replacement_width_checked(ghz3_circuit):
    blocks = scan_partition(ghz3_circuit, max_block_qubits=3)
    with pytest.raises(PartitionError):
        blocks[0].with_circuit(Circuit(2))


def test_stitch_requires_contiguous_indices(ghz3_circuit):
    blocks = scan_partition(ghz3_circuit, max_block_qubits=3)
    from dataclasses import replace

    broken = [replace(blocks[0], index=5)]
    with pytest.raises(PartitionError):
        stitch_blocks(broken, 3)


def test_blocks_have_local_unitaries(rng):
    circuit = random_circuit(5, 4, rng=rng)
    blocks = scan_partition(circuit, max_block_qubits=3)
    for block in blocks:
        unitary = block.unitary()
        dim = 2**block.num_qubits
        assert unitary.shape == (dim, dim)
        assert np.allclose(
            unitary.conj().T @ unitary, np.eye(dim), atol=1e-10
        )
