"""Swap routing onto constrained topologies (layout-aware mapping).

A greedy shortest-path router: every two-qubit gate whose logical qubits
sit on non-adjacent physical qubits is preceded by SWAPs that walk one
operand along the shortest path.  Measurements are re-targeted through the
final layout so the classical bit order stays logical — downstream
distribution helpers rely on this.

Paths come from a breadth-first search that visits each qubit's
neighbours in the order their edges appear in the coupling map.  Where
two shortest paths have equal length, the one it reaches first wins:
each qubit's predecessor is the first qubit, in search order, that
reaches it.  On a chain every path is unique.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.circuits.circuit import Circuit, Operation
from repro.exceptions import TranspilerError


@dataclass
class RoutingResult:
    """A routed circuit plus the logical-to-physical layout history."""

    circuit: Circuit
    final_layout: dict[int, int] = field(default_factory=dict)
    swaps_inserted: int = 0


def _adjacency(
    coupling_map: tuple[tuple[int, int], ...], num_physical: int
) -> list[list[int]]:
    """Each physical qubit's neighbours, in coupling-map order.

    Raises :class:`TranspilerError` for an edge whose endpoints repeat
    or fall outside ``range(num_physical)``.
    """
    neighbours: list[list[int]] = [[] for _ in range(num_physical)]
    for a, b in coupling_map:
        if a == b or not (0 <= a < num_physical and 0 <= b < num_physical):
            raise TranspilerError(
                f"bad coupling edge {(a, b)} on {num_physical} physical qubit(s)"
            )
        neighbours[a].append(b)
        neighbours[b].append(a)
    return neighbours


def _search_tree(neighbours: list[list[int]], source: int) -> dict[int, int | None]:
    """Breadth-first predecessors of every qubit reachable from ``source``."""
    predecessor: dict[int, int | None] = {source: None}
    frontier = deque([source])
    while frontier:
        qubit = frontier.popleft()
        for neighbour in neighbours[qubit]:
            if neighbour not in predecessor:
                predecessor[neighbour] = qubit
                frontier.append(neighbour)
    return predecessor


def _shortest_path(neighbours: list[list[int]], source: int, target: int) -> list[int]:
    """The first shortest path from ``source`` to ``target``, both ends
    included."""
    predecessor = _search_tree(neighbours, source)
    path = [target]
    while path[-1] != source:
        path.append(predecessor[path[-1]])
    return path[::-1]


def route_to_coupling(
    circuit: Circuit,
    coupling_map: tuple[tuple[int, int], ...],
    num_physical: int | None = None,
) -> RoutingResult:
    """Map ``circuit`` onto the device graph with greedy SWAP insertion.

    Raises :class:`TranspilerError` for a circuit wider than the device,
    a coupling edge whose endpoints repeat or fall outside
    ``range(num_physical)``, a disconnected coupling graph, or a gate on
    three or more qubits.
    """
    num_physical = num_physical or circuit.num_qubits
    if circuit.num_qubits > num_physical:
        raise TranspilerError(
            f"circuit needs {circuit.num_qubits} qubits; device has "
            f"{num_physical}"
        )
    neighbours = _adjacency(coupling_map, num_physical)
    if len(_search_tree(neighbours, 0)) != num_physical:
        raise TranspilerError("coupling graph is not connected")

    logical_to_physical = {q: q for q in range(circuit.num_qubits)}
    physical_to_logical = {q: q for q in range(circuit.num_qubits)}
    out = Circuit(num_physical)
    swaps = 0

    def apply_swap(phys_a: int, phys_b: int) -> None:
        nonlocal swaps
        out.swap(phys_a, phys_b)
        swaps += 1
        log_a = physical_to_logical.get(phys_a)
        log_b = physical_to_logical.get(phys_b)
        if log_a is not None:
            logical_to_physical[log_a] = phys_b
        if log_b is not None:
            logical_to_physical[log_b] = phys_a
        physical_to_logical[phys_a], physical_to_logical[phys_b] = (
            log_b,
            log_a,
        )

    for op in circuit.operations:
        if op.name == "barrier":
            out.barrier()
            continue
        if op.name == "measure":
            out.measure(logical_to_physical[op.qubits[0]], op.cbit)
            continue
        if len(op.qubits) == 1:
            out.append(
                Operation(op.gate, (logical_to_physical[op.qubits[0]],))
            )
            continue
        if len(op.qubits) > 2:
            raise TranspilerError(
                "lower 3+ qubit gates to the CX basis before routing"
            )
        phys_a = logical_to_physical[op.qubits[0]]
        phys_b = logical_to_physical[op.qubits[1]]
        path = _shortest_path(neighbours, phys_a, phys_b)
        # Walk the first operand down the path until adjacent.
        while len(path) > 2:
            apply_swap(path[0], path[1])
            path = path[1:]
        phys_a = logical_to_physical[op.qubits[0]]
        phys_b = logical_to_physical[op.qubits[1]]
        out.append(Operation(op.gate, (phys_a, phys_b)))
    return RoutingResult(
        circuit=out,
        final_layout=dict(logical_to_physical),
        swaps_inserted=swaps,
    )
