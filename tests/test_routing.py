"""Tests for swap routing onto constrained topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, random_circuit
from repro.exceptions import TranspilerError
from repro.noise import linear_coupling
from repro.sim import ideal_distribution
from repro.sim.readout import logical_distribution
from repro.transpile import route_to_coupling


def _respects_coupling(circuit, coupling):
    allowed = set(coupling) | {(b, a) for a, b in coupling}
    return all(
        op.qubits in allowed
        for op in circuit.operations
        if len(op.qubits) == 2
    )


def test_adjacent_gates_unchanged():
    circuit = Circuit(3)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    result = route_to_coupling(circuit, linear_coupling(3))
    assert result.swaps_inserted == 0
    assert result.circuit.cnot_count() == 2


def test_distant_gate_gets_swaps():
    circuit = Circuit(4)
    circuit.cx(0, 3)
    result = route_to_coupling(circuit, linear_coupling(4))
    assert result.swaps_inserted == 2
    assert _respects_coupling(result.circuit, linear_coupling(4))


def test_layout_tracked():
    circuit = Circuit(3)
    circuit.cx(0, 2)
    result = route_to_coupling(circuit, linear_coupling(3))
    # Logical qubit 0 moved to physical qubit 1.
    assert result.final_layout[0] == 1


def test_measurements_follow_layout():
    circuit = Circuit(3)
    circuit.x(0)
    circuit.cx(0, 2)
    circuit.measure_all()
    result = route_to_coupling(circuit, linear_coupling(3))
    physical = ideal_distribution(result.circuit.without_measurements())
    logical = logical_distribution(result.circuit, physical)
    original = ideal_distribution(circuit.without_measurements())
    assert np.allclose(logical, original, atol=1e-10)


def test_random_circuits_preserved(rng):
    coupling = linear_coupling(4)
    for _ in range(6):
        circuit = random_circuit(4, 4, rng=rng)
        circuit.measure_all()
        result = route_to_coupling(circuit, coupling)
        assert _respects_coupling(result.circuit, coupling)
        physical = ideal_distribution(result.circuit.without_measurements())
        logical = logical_distribution(result.circuit, physical)
        original = ideal_distribution(circuit.without_measurements())
        assert np.allclose(logical, original, atol=1e-8)


def test_too_many_qubits_rejected():
    circuit = Circuit(5)
    with pytest.raises(TranspilerError):
        route_to_coupling(circuit, linear_coupling(3), num_physical=3)


def test_disconnected_graph_rejected():
    circuit = Circuit(4)
    with pytest.raises(TranspilerError):
        route_to_coupling(circuit, ((0, 1), (2, 3)))


def test_three_qubit_gates_rejected():
    circuit = Circuit(3)
    circuit.ccx(0, 1, 2)
    with pytest.raises(TranspilerError):
        route_to_coupling(circuit, linear_coupling(3))


def test_circuit_embeds_into_larger_device():
    circuit = Circuit(2)
    circuit.cx(0, 1)
    result = route_to_coupling(circuit, linear_coupling(5), num_physical=5)
    assert result.circuit.num_qubits == 5


@pytest.mark.parametrize(
    "coupling",
    [
        ((0, 7), (7, 2), (0, 1)),  # failed late, inside the routed circuit
        ((0, 1), (1, 2), (2, 7)),  # was accepted
        ((0, 1), (1, 1), (1, 2)),
        ((0, 1), (-1, 2)),
    ],
)
def test_bad_coupling_edges_rejected(coupling):
    circuit = Circuit(3)
    circuit.cx(0, 2)
    with pytest.raises(TranspilerError, match="bad coupling edge"):
        route_to_coupling(circuit, coupling)


def test_equal_length_paths_take_the_first_one_searched():
    # A ring of four: 0 reaches 2 through 1 or through 3, both two hops.
    # The search visits 0's neighbours in coupling-map order, so the
    # first edge listed decides which one the SWAP walks through.
    circuit = Circuit(4)
    circuit.cx(0, 2)
    through_one = route_to_coupling(circuit, ((0, 1), (1, 2), (2, 3), (3, 0)))
    through_three = route_to_coupling(circuit, ((3, 0), (2, 3), (1, 2), (0, 1)))
    assert [op.qubits for op in through_one.circuit.operations] == [(0, 1), (1, 2)]
    assert [op.qubits for op in through_three.circuit.operations] == [(0, 3), (3, 2)]


def test_routes_on_a_chain_are_the_unique_shortest_paths():
    # On a chain every path is unique: walking operand a towards b takes
    # |a - b| - 1 swaps, each between neighbours on the way.
    circuit = Circuit(5)
    circuit.cx(4, 0)
    circuit.cx(1, 3)
    result = route_to_coupling(circuit, linear_coupling(5))
    ops = [(op.name, op.qubits) for op in result.circuit.operations]
    assert ops == [
        ("swap", (4, 3)),
        ("swap", (3, 2)),
        ("swap", (2, 1)),
        ("cx", (1, 0)),
        # Logical 1 now sits on physical 2, logical 3 on physical 4.
        ("swap", (2, 3)),
        ("cx", (3, 4)),
    ]
