"""The stacked LEAP builder against the reference builder, row by row.

``solution_unitaries`` moves a whole list of solutions through one
stacked product per template slot; each row must still be
``circuit_unitary(solution.circuit)``, byte for byte, whatever the mix
of placements, lengths and repeats in the stack.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.synthesis.leap as leap_module
from repro.exceptions import SynthesisError
from repro.sim.unitary import circuit_unitary
from repro.synthesis.leap import SynthesisSolution, solution_unitaries

def _solution(rng, num_qubits, placements) -> SynthesisSolution:
    count = 3 * num_qubits + 4 * len(placements)
    angles = tuple(rng.uniform(-np.pi, np.pi, count).tolist())
    return SynthesisSolution(num_qubits, placements, angles, 0.0)


def _placements(rng, num_qubits, layers) -> tuple[tuple[int, int], ...]:
    if num_qubits == 1:
        return ()
    pairs = [(a, b) for a in range(num_qubits) for b in range(num_qubits) if a != b]
    return tuple(pairs[i] for i in rng.integers(len(pairs), size=layers))


def _assert_rows_are_circuit_unitaries(solutions):
    stack = solution_unitaries(solutions)
    assert len(stack) == len(solutions)
    for solution, unitary in zip(solutions, stack):
        expected = circuit_unitary(solution.circuit)
        assert unitary.dtype == expected.dtype
        assert unitary.shape == expected.shape
        assert unitary.tobytes() == expected.tobytes()


def test_an_empty_list_builds_nothing():
    assert solution_unitaries([]) == []


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_mixed_stacks_equal_the_circuit_unitaries(num_qubits):
    """Distinct and shared placements, 0-6 layers and repeated rows, in
    shuffled order."""
    rng = np.random.default_rng(100 + num_qubits)
    for _ in range(12):
        solutions = []
        for _ in range(int(rng.integers(1, 7))):
            layers = int(rng.integers(0, 7))
            solutions.append(
                _solution(rng, num_qubits, _placements(rng, num_qubits, layers))
            )
        # Rows sharing a structure, at their own angles.
        shared = solutions[0]
        for _ in range(int(rng.integers(0, 4))):
            solutions.append(_solution(rng, num_qubits, shared.placements))
        # Repeated rows.
        solutions += [solutions[i] for i in rng.integers(len(solutions), size=2)]
        order = rng.permutation(len(solutions))
        _assert_rows_are_circuit_unitaries([solutions[i] for i in order])


def test_rows_sharing_one_structure_equal_the_circuit_unitaries():
    """The sphere's case: one structure at many angles."""
    rng = np.random.default_rng(7)
    placements = ((0, 1), (1, 2), (2, 0), (0, 1))
    _assert_rows_are_circuit_unitaries(
        [_solution(rng, 3, placements) for _ in range(5)]
    )


@pytest.mark.parametrize(
    "cells, sizes", [(1, [1] * 7), (3 * 64 * 24, [3, 3, 1]), (2**20, [7])]
)
def test_rows_split_over_stacks_equal_the_circuit_unitaries(cells, sizes, monkeypatch):
    """The gather budget splits the rows over stacks (the longest of
    these 3-qubit templates has 24 slots of 64 cells), which changes no
    byte."""
    stacks = []
    real_stack = leap_module._stack_unitaries

    def recording_stack(solutions):
        stacks.append(len(solutions))
        return real_stack(solutions)

    monkeypatch.setattr(leap_module, "_STACK_GATHER_CELLS", cells)
    monkeypatch.setattr(leap_module, "_stack_unitaries", recording_stack)
    rng = np.random.default_rng(9)
    solutions = [
        _solution(rng, 3, _placements(rng, 3, layers))
        for layers in (3, 0, 3, 2, 1, 3, 2)
    ]
    _assert_rows_are_circuit_unitaries(solutions)
    assert stacks == sizes


def test_a_stack_of_one_equals_the_circuit_unitary():
    rng = np.random.default_rng(3)
    for num_qubits in (1, 2, 3, 4):
        for layers in (0, 1, 6):
            placements = _placements(rng, num_qubits, layers)
            solution = _solution(rng, num_qubits, placements)
            _assert_rows_are_circuit_unitaries([solution])
            assert solution.unitary().tobytes() == (
                circuit_unitary(solution.circuit).tobytes()
            )


@pytest.mark.parametrize("placements", [((0, 2),), ((-1, 0),), ((1, 1),)])
def test_malformed_structures_are_refused(placements):
    angles = (0.1,) * (6 + 4 * len(placements))
    solution = SynthesisSolution(2, placements, angles, 0.0)
    with pytest.raises(SynthesisError, match="bad placement"):
        solution_unitaries([solution])


def test_a_wrong_angle_count_is_refused():
    solution = SynthesisSolution(2, ((0, 1),), (0.1,) * 9, 0.0)
    with pytest.raises(SynthesisError, match="9 angles for a template of 10"):
        solution_unitaries([solution])


def test_rows_of_different_widths_are_refused():
    rng = np.random.default_rng(0)
    solutions = [
        _solution(rng, 2, ((0, 1),)),
        _solution(rng, 3, ((0, 1),)),
    ]
    with pytest.raises(SynthesisError, match="one width"):
        solution_unitaries(solutions)
