"""Variational circuits: QAOA (MaxCut) and a hardware-efficient VQE ansatz."""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import CircuitError


def qaoa_maxcut(
    graph: nx.Graph,
    gammas: list[float],
    betas: list[float],
) -> Circuit:
    """QAOA for MaxCut on ``graph`` with per-round angles.

    One round applies ``RZZ(2*gamma)`` on every edge (the cost layer) and
    ``RX(2*beta)`` on every node (the mixer layer), after an initial
    uniform superposition.
    """
    if len(gammas) != len(betas) or not gammas:
        raise CircuitError("QAOA needs equal, non-zero numbers of angles")
    nodes = sorted(graph.nodes)
    if nodes != list(range(len(nodes))):
        raise CircuitError("graph nodes must be 0..n-1")
    circuit = Circuit(len(nodes))
    for q in nodes:
        circuit.h(q)
    for gamma, beta in zip(gammas, betas):
        for a, b in sorted(graph.edges):
            circuit.rzz(2.0 * gamma, a, b)
        for q in nodes:
            circuit.rx(2.0 * beta, q)
    return circuit


def random_qaoa(
    num_qubits: int,
    rounds: int = 1,
    edge_probability: float = 0.5,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """A random-graph MaxCut QAOA instance with random angles."""
    rng = np.random.default_rng(rng)
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    for a in range(num_qubits):
        for b in range(a + 1, num_qubits):
            if rng.random() < edge_probability:
                graph.add_edge(a, b)
    if graph.number_of_edges() == 0:
        graph.add_edge(0, 1 % num_qubits)
    gammas = list(rng.uniform(0.0, np.pi, size=rounds))
    betas = list(rng.uniform(0.0, np.pi / 2.0, size=rounds))
    return qaoa_maxcut(graph, gammas, betas)


def vqe_ansatz(
    num_qubits: int,
    layers: int = 2,
    params: np.ndarray | None = None,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """A hardware-efficient VQE ansatz: RY layers + a linear CX chain.

    ``params`` has shape ``(layers + 1, num_qubits)``; random angles are
    drawn when omitted (the paper evaluates fixed VQE *circuits*, not the
    outer optimization loop).
    """
    if num_qubits < 2:
        raise CircuitError("VQE ansatz needs at least two qubits")
    rng = np.random.default_rng(rng)
    if params is None:
        params = rng.uniform(-np.pi, np.pi, size=(layers + 1, num_qubits))
    params = np.asarray(params, dtype=float)
    if params.shape != (layers + 1, num_qubits):
        raise CircuitError(
            f"params shape {params.shape} != {(layers + 1, num_qubits)}"
        )
    circuit = Circuit(num_qubits)
    for q in range(num_qubits):
        circuit.ry(float(params[0, q]), q)
    for layer in range(layers):
        for q in range(num_qubits - 1):
            circuit.cx(q, q + 1)
        for q in range(num_qubits):
            circuit.ry(float(params[layer + 1, q]), q)
    return circuit
