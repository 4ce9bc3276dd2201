"""Exact two-qubit decomposition into at most three CNOTs.

Used by the transpiler's consolidation pass: any 4x4 unitary is re-emitted
as the cheapest template (0-3 CNOTs with ZYZ rotations) that reproduces it
to tolerance.  The starting CNOT count is predicted from local invariants
(:func:`repro.linalg.weyl.estimated_cnot_class`); template fitting falls
back to one more CNOT if the prediction was optimistic, so the result is
always correct and is minimal whenever the classifier is right.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SynthesisError
from repro.linalg.su2 import zyz_decompose
from repro.linalg.weyl import decompose_tensor_product, estimated_cnot_class
from repro.synthesis.ansatz import build_leap_ansatz
from repro.synthesis.instantiate import instantiate

#: Alternating CNOT directions, the Vatan-Williams pattern.
_TEMPLATE_PLACEMENTS = [(0, 1), (1, 0), (0, 1)]

#: HS distance a template must reach to count as equal to the target.
_TOLERANCE = 1e-6


def _one_qubit_ops(circuit: Circuit, qubit: int, matrix: np.ndarray) -> None:
    theta, phi, lam, _ = zyz_decompose(matrix)
    circuit.rz(lam, qubit)
    circuit.ry(theta, qubit)
    circuit.rz(phi, qubit)


def decompose_two_qubit(
    target: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """Return a circuit on 2 qubits equal to ``target`` up to global phase.

    The circuit uses at most 3 CNOTs plus RZ/RY rotations.  Raises
    :class:`SynthesisError` if no template reaches ``_TOLERANCE`` (which
    would indicate a non-unitary input).
    """
    if target.shape != (4, 4):
        raise SynthesisError("decompose_two_qubit expects a 4x4 matrix")
    rng = np.random.default_rng(rng)
    start_class = estimated_cnot_class(target)
    if start_class == 0:
        a, b, _ = decompose_tensor_product(target)
        circuit = Circuit(2)
        _one_qubit_ops(circuit, 0, a)
        _one_qubit_ops(circuit, 1, b)
        return circuit
    for cnots in range(start_class, 4):
        ansatz = build_leap_ansatz(2, _TEMPLATE_PLACEMENTS[:cnots])
        result = instantiate(
            ansatz,
            target,
            rng=rng,
            starts=6,
            maxiter=1000,
            success_cost=max(1e-14, _TOLERANCE * _TOLERANCE / 2.0),
        )
        if result.distance <= _TOLERANCE:
            return ansatz.build_circuit(result.params)
    raise SynthesisError(
        "no 3-CNOT template matched the target; input may not be unitary"
    )
