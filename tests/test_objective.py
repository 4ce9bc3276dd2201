"""Tests for the Algorithm-1 objective function."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.exceptions import SelectionError
from repro.partition.blocks import CircuitBlock
from tests.annealing_oracle import decode


def _phase_circuit(angle: float) -> Circuit:
    circuit = Circuit(2)
    circuit.cx(0, 1)
    circuit.rz(angle, 1)
    circuit.cx(0, 1)
    return circuit


def _make_pool(index: int, qubits: tuple[int, int], angles_cnots) -> BlockPool:
    original = _phase_circuit(0.5)
    block = CircuitBlock(index=index, qubits=qubits, circuit=original)
    original_unitary = original.unitary()
    pool = BlockPool(block=block, original_unitary=original_unitary)
    from repro.linalg import hs_distance

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


@pytest.fixture
def pools():
    # Candidate 0: the original (distance 0, 2 CNOTs).
    # Candidate 1: slight over-rotation, 1 CNOT (cheap approximation).
    # Candidate 2: slight under-rotation, 1 CNOT (dissimilar to 1).
    spec = [(0.5, 2), (0.8, 1), (0.2, 1)]
    return [
        _make_pool(0, (0, 1), spec),
        _make_pool(1, (2, 3), spec),
    ]


def _objective(pools, threshold=1.0):
    return SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=4
    )


def test_first_sample_scored_by_cnots_only(pools):
    objective = _objective(pools)
    cheap = np.array([1, 1])
    expensive = np.array([0, 0])
    assert objective(cheap) == pytest.approx(2 / 4)
    assert objective(expensive) == pytest.approx(4 / 4)


def test_threshold_rejection(pools):
    objective = _objective(pools, threshold=1e-6)
    # Any choice with nonzero distance breaches a tiny threshold.
    assert objective(np.array([1, 1])) == 1.0
    # The exact original always passes the bound check (its normalized
    # CNOT score is 1.0 by definition, but it is feasible).
    assert objective.choice_bound(np.array([0, 0])) <= 1e-6


def test_similarity_term_activates(pools):
    objective = _objective(pools)
    objective.selected.append(np.array([1, 1]))
    same_again = objective(np.array([1, 1]))
    dissimilar = objective(np.array([2, 2]))
    # Re-proposing the identical choice is penalized by similarity 1.0.
    assert same_again == pytest.approx(0.5 * 1.0 + 0.5 * 0.5)
    assert dissimilar < same_again


def test_decode_floors_and_clips(pools):
    objective = _objective(pools)
    assert list(decode(objective, np.array([0.9, 2.7]))) == [0, 2]
    assert list(decode(objective, np.array([-3.0, 99.0]))) == [0, 2]


def test_choice_accounting(pools):
    objective = _objective(pools)
    choice = np.array([0, 2])
    assert objective.choice_cnot_count(choice) == 3
    assert objective.choice_bound(choice) == pytest.approx(
        pools[1].candidates[2].distance
    )


def test_validation():
    with pytest.raises(SelectionError):
        SelectionObjective(pools=[], threshold=1.0, original_cnot_count=4)


@pytest.mark.parametrize("choice", [[-1, 0], [4, 0]])
@pytest.mark.parametrize("with_prior", [False, True])
def test_public_entry_points_reject_out_of_pool_choices(pools, choice, with_prior):
    # A negative index must not wrap around to the pool's last
    # candidate, and a past-the-end one must not reach numpy's
    # IndexError, whether or not a prior is selected.
    objective = _objective(pools)
    if with_prior:
        objective.selected.append(np.array([1, 1]))
    with pytest.raises(SelectionError):
        objective(np.array(choice))
    with pytest.raises(SelectionError):
        objective.evaluate_batch([choice])
    with pytest.raises(SelectionError):
        objective.choice_bound(np.array(choice))
    with pytest.raises(SelectionError):
        objective.choice_cnot_count(np.array(choice))
