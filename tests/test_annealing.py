"""Tests for the dual-annealing selection engine."""

from __future__ import annotations

import pytest

from repro.circuits import Circuit
from repro.core import annealing
from repro.core.annealing import select_approximations
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.exceptions import SelectionError
from repro.linalg import hs_distance
from repro.partition.blocks import CircuitBlock


def _phase_circuit(angle: float, cnots: int = 1) -> Circuit:
    circuit = Circuit(2)
    circuit.cx(0, 1)
    circuit.rz(angle, 1)
    circuit.cx(0, 1)
    for _ in range(cnots - 2):
        pass
    return circuit


def _pool(index: int, qubits, angles_cnots) -> BlockPool:
    original = _phase_circuit(0.5)
    block = CircuitBlock(index=index, qubits=qubits, circuit=original)
    original_unitary = original.unitary()
    pool = BlockPool(block=block, original_unitary=original_unitary)
    for angle, cnots in angles_cnots:
        circuit = _phase_circuit(angle)
        unitary = circuit.unitary()
        pool.candidates.append(
            Candidate(
                source=circuit,
                unitary=unitary,
                distance=hs_distance(unitary, original_unitary),
                cnot_count=cnots,
            )
        )
    return pool


def _objective(threshold=1.0, blocks=2, spec=None):
    spec = spec or [(0.5, 2), (0.8, 1), (0.2, 1)]
    pools = [
        _pool(i, (2 * i, 2 * i + 1), spec) for i in range(blocks)
    ]
    return SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=2 * blocks
    )


def test_first_selection_minimizes_cnots():
    objective = _objective()
    result = select_approximations(objective, max_samples=1, seed=0)
    assert result.num_selected == 1
    assert result.cnot_counts[0] == 2  # one 1-CNOT candidate per block


def test_selection_collects_dissimilar_samples():
    objective = _objective()
    result = select_approximations(objective, max_samples=8, seed=0)
    assert result.num_selected >= 2
    # No duplicates among selections.
    seen = {tuple(c) for c in result.choices}
    assert len(seen) == result.num_selected


def test_selection_stops_on_duplicate(counters):
    # With a single candidate per block only one selection is possible.
    objective = _objective(spec=[(0.5, 2)])
    result = select_approximations(objective, max_samples=8, seed=0)
    assert result.num_selected == 1
    assert counters()["selection.rounds"] == 2  # the second was a duplicate


def test_infeasible_threshold_raises():
    # Threshold below zero rejects even the exact original.
    objective = _objective(threshold=-1.0)
    with pytest.raises(SelectionError):
        select_approximations(objective, max_samples=4, seed=0)


def test_max_samples_respected():
    objective = _objective(blocks=3)
    result = select_approximations(objective, max_samples=2, seed=0)
    assert result.num_selected <= 2


def test_bounds_and_objectives_recorded():
    objective = _objective()
    result = select_approximations(objective, max_samples=4, seed=0)
    assert len(result.bounds) == result.num_selected
    assert len(result.objective_values) == result.num_selected
    for bound in result.bounds:
        assert bound <= objective.threshold


def test_annealer_path_matches_exhaustive(monkeypatch):
    # Force the dual-annealing path by disabling exhaustive search; it
    # should find the same first (lowest-CNOT) selection.
    objective_a = _objective()
    exact = select_approximations(objective_a, max_samples=1, seed=0)
    objective_b = _objective()
    monkeypatch.setattr(annealing, "EXHAUSTIVE_CUTOFF", 0)
    annealed = select_approximations(objective_b, max_samples=1, seed=0)
    assert exact.cnot_counts[0] == annealed.cnot_counts[0]


def test_bad_max_samples():
    with pytest.raises(SelectionError):
        select_approximations(_objective(), max_samples=0)
