"""Tests for block approximation pools."""

from __future__ import annotations

import pytest

from repro.circuits import Circuit
from repro.core import pool as pool_module
from repro.core.pool import (
    augment_with_sphere_variants,
    build_pool,
)
from repro.partition import scan_partition
from repro.sim.unitary import circuit_unitary
from repro.synthesis import (
    LeapConfig,
    SynthesisSolution,
    build_leap_ansatz,
    synthesize,
)


def _block():
    circuit = Circuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(0.4, 1)
    circuit.cx(1, 2)
    circuit.ry(0.8, 2)
    circuit.cx(0, 1)
    return scan_partition(circuit, max_block_qubits=3)[0]


@pytest.fixture(scope="module")
def block_and_solutions():
    block = _block()
    solutions = synthesize(
        block.unitary(),
        LeapConfig(max_layers=2, seed=0, solutions_per_layer=2,
                   instantiation_starts=2, max_optimizer_iterations=100),
    )
    return block, solutions


def test_pool_contains_original_first(block_and_solutions):
    block, solutions = block_and_solutions
    pool = build_pool(block, solutions)
    assert pool.candidates[0].distance == 0.0
    assert pool.candidates[0].cnot_count == block.circuit.cnot_count()


def test_pool_candidate_accounting(block_and_solutions):
    block, solutions = block_and_solutions
    pool = build_pool(block, solutions)
    assert pool.size == len(pool.candidates)
    assert len(pool.cnot_counts()) == pool.size
    assert len(pool.distances()) == pool.size
    assert pool.distances()[0] == 0.0


def test_distance_cap_filters(block_and_solutions):
    block, solutions = block_and_solutions
    capped = build_pool(block, solutions, distance_cap=0.05)
    for candidate in capped.candidates[1:]:
        assert candidate.distance <= 0.05 + 1e-6


def test_max_candidates_respected(block_and_solutions, monkeypatch):
    block, solutions = block_and_solutions
    monkeypatch.setattr(pool_module, "_MAX_CANDIDATES", 2)
    pool = build_pool(block, solutions)
    # Original + at most 2 synthesized.
    assert pool.size <= 3


def test_useless_solutions_dropped(block_and_solutions):
    block, _ = block_and_solutions
    # A solution with as many CNOTs as the original but nonzero distance
    # should never enter the pool.
    cnots = block.circuit.cnot_count()
    solution = SynthesisSolution(
        block.num_qubits,
        ((0, 1),) * cnots,
        (0.3,) * (3 * block.num_qubits + 4 * cnots),
        0.5,
    )
    pool = build_pool(block, [solution])
    assert pool.size == 1


def test_candidates_build_their_circuits_from_data(block_and_solutions):
    """A synthesized candidate holds its solution and builds the circuit
    once, on first read; the original candidate holds the block's."""
    block, solutions = block_and_solutions
    pool = build_pool(block, solutions)
    assert pool.candidates[0].circuit is block.circuit
    for candidate in pool.candidates[1:]:
        assert "circuit" not in vars(candidate)
        solution = candidate.source
        expected = build_leap_ansatz(
            solution.num_qubits, solution.placements
        ).build_circuit(solution.params)
        assert candidate.circuit == expected
        assert candidate.circuit is candidate.circuit
        assert candidate.cnot_count == expected.cnot_count()
        assert candidate.unitary.tobytes() == circuit_unitary(expected).tobytes()


def test_near_duplicates_dropped(block_and_solutions):
    block, solutions = block_and_solutions
    if not solutions:
        pytest.skip("no solutions to duplicate")
    doubled = list(solutions) + list(solutions)
    pool_a = build_pool(block, solutions)
    pool_b = build_pool(block, doubled)
    assert pool_b.size == pool_a.size


def test_sphere_augmentation_adds_dissimilar(block_and_solutions):
    block, solutions = block_and_solutions
    pool = build_pool(block, solutions, distance_cap=0.3)
    eligible = [
        c for c in pool.candidates
        if c.cnot_count < block.circuit.cnot_count() and c.distance < 0.27
    ]
    added = augment_with_sphere_variants(pool, threshold=0.3, per_count=4, rng=0)
    if eligible:
        assert added > 0
        for candidate in pool.candidates[-added:]:
            assert candidate.distance <= 0.3 + 1e-9
    else:
        assert added == 0
