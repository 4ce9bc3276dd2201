"""Variational circuits: QAOA (MaxCut) and a hardware-efficient VQE ansatz."""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import CircuitError


def qaoa_maxcut(
    num_qubits: int,
    edges: list[tuple[int, int]],
    gammas: list[float],
    betas: list[float],
) -> Circuit:
    """QAOA for MaxCut on the graph of ``edges`` over ``num_qubits`` nodes.

    One round applies ``RZZ(2*gamma)`` on every edge, in the order given
    (the cost layer), and ``RX(2*beta)`` on every node (the mixer layer),
    after an initial uniform superposition.  An edge whose nodes repeat
    or fall outside ``range(num_qubits)`` raises :class:`CircuitError`.
    """
    if len(gammas) != len(betas) or not gammas:
        raise CircuitError("QAOA needs equal, non-zero numbers of angles")
    circuit = Circuit(num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
    for gamma, beta in zip(gammas, betas):
        for a, b in edges:
            circuit.rzz(2.0 * gamma, a, b)
        for q in range(num_qubits):
            circuit.rx(2.0 * beta, q)
    return circuit


def random_qaoa(
    num_qubits: int,
    rounds: int = 1,
    edge_probability: float = 0.5,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """A random-graph MaxCut QAOA instance with random angles.

    Each pair ``a < b`` is an edge with probability ``edge_probability``,
    and an empty draw falls back to the edge ``(0, 1)``; the cost layer
    runs the edges in lexicographic order.  Fewer than two qubits raise
    :class:`CircuitError`: there is no edge to cut.
    """
    if num_qubits < 2:
        raise CircuitError(f"QAOA MaxCut needs at least two qubits, got {num_qubits}")
    rng = np.random.default_rng(rng)
    edges = [
        (a, b)
        for a in range(num_qubits)
        for b in range(a + 1, num_qubits)
        if rng.random() < edge_probability
    ]
    if not edges:
        edges = [(0, 1)]
    gammas = list(rng.uniform(0.0, np.pi, size=rounds))
    betas = list(rng.uniform(0.0, np.pi / 2.0, size=rounds))
    return qaoa_maxcut(num_qubits, edges, gammas, betas)


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
