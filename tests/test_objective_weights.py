"""Objective weight extremes and selection interplay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core.annealing import select_approximations
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.exceptions import SelectionError
from repro.linalg import hs_distance
from repro.partition.blocks import CircuitBlock


def _phase_circuit(angle: float) -> Circuit:
    circuit = Circuit(2)
    circuit.cx(0, 1)
    circuit.rz(angle, 1)
    circuit.cx(0, 1)
    return circuit


def _pools(blocks: int = 2):
    spec = [(0.5, 2), (0.8, 1), (0.2, 1)]
    pools = []
    for index in range(blocks):
        original = _phase_circuit(0.5)
        block = CircuitBlock(
            index=index, qubits=(2 * index, 2 * index + 1), circuit=original
        )
        original_unitary = original.unitary()
        pool = BlockPool(block=block, original_unitary=original_unitary)
        for angle, cnots in spec:
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
        pools.append(pool)
    return pools


def test_weight_zero_ignores_similarity():
    # weight=0: pure CNOT minimization, so re-selecting the cheapest
    # choice scores identically to the first round.
    objective = SelectionObjective(
        pools=_pools(), threshold=1.0, original_cnot_count=4, weight=0.0
    )
    cheap = np.array([1, 1])
    objective.selected.append(cheap)
    assert objective(cheap) == pytest.approx(0.5)


def test_weight_one_ignores_cnots():
    objective = SelectionObjective(
        pools=_pools(), threshold=1.0, original_cnot_count=4, weight=1.0
    )
    objective.selected.append(np.array([1, 1]))
    # A fully dissimilar choice scores 0 regardless of its CNOT count.
    dissimilar = np.array([2, 2])
    assert objective(dissimilar) == pytest.approx(0.0)


def test_invalid_weight_rejected():
    with pytest.raises(SelectionError):
        SelectionObjective(
            pools=_pools(), threshold=1.0, original_cnot_count=4, weight=1.5
        )


def test_selection_under_weight_extremes():
    for weight in (0.0, 0.5, 1.0):
        objective = SelectionObjective(
            pools=_pools(), threshold=1.0, original_cnot_count=4, weight=weight
        )
        result = select_approximations(objective, max_samples=4, seed=0)
        assert result.num_selected >= 1


def test_selection_deterministic_given_seed():
    results = []
    for _ in range(2):
        objective = SelectionObjective(
            pools=_pools(3), threshold=1.0, original_cnot_count=6
        )
        result = select_approximations(objective, max_samples=4, seed=11)
        results.append([tuple(c) for c in result.choices])
    assert results[0] == results[1]
