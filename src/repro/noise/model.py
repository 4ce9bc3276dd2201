"""Pauli noise models (paper Sec. 4.1).

The paper's noisy simulations use a Pauli noise model "for all the qubits
with noise levels of 1%, 0.5%, and 0.1%"; the two-qubit (CNOT) error rate
on real devices is about an order of magnitude above the one-qubit rate.
:class:`NoiseModel` captures exactly that structure:

* after every one-qubit gate, a uniform Pauli error (X/Y/Z) with
  probability ``one_qubit_error``;
* after every two-qubit gate, a uniform two-qubit Pauli error (the 15
  non-identity Paulis) with probability ``two_qubit_error``;
* a symmetric readout bit-flip with probability ``readout_error`` per
  qubit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.exceptions import NoiseModelError

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: The 15 non-identity two-qubit Pauli labels.
TWO_QUBIT_PAULIS: tuple[str, ...] = tuple(
    a + b for a, b in itertools.product("IXYZ", repeat=2) if a + b != "II"
)

ONE_QUBIT_PAULIS: tuple[str, ...] = ("X", "Y", "Z")


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label such as ``"X"`` or ``"ZY"``.

    Multi-qubit labels are ordered little-endian: the *last* character
    acts on the first listed qubit, matching ``np.kron`` composition.
    """
    if not label or any(c not in _PAULI_1Q for c in label):
        raise NoiseModelError(f"bad Pauli label {label!r}")
    matrix = _PAULI_1Q[label[0]]
    for char in label[1:]:
        matrix = np.kron(matrix, _PAULI_1Q[char])
    return matrix


@dataclass(frozen=True)
class NoiseModel:
    """Gate-level Pauli noise plus readout error.

    ``idle_decoherence`` adds a small extra one-qubit Pauli error per
    circuit *layer* on idle qubits, modelling decoherence during long
    circuits — longer circuits decohere more, which is the mechanism the
    paper's CNOT-count reduction targets.
    """

    one_qubit_error: float = 0.001
    two_qubit_error: float = 0.01
    readout_error: float = 0.02
    idle_decoherence: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "one_qubit_error",
            "two_qubit_error",
            "readout_error",
            "idle_decoherence",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise NoiseModelError(f"{name}={value} outside [0, 1]")

    @classmethod
    def from_noise_level(cls, level: float, readout: float | None = None) -> "NoiseModel":
        """Paper-style model: ``level`` is the two-qubit error rate.

        The one-qubit rate is set an order of magnitude lower and the
        readout error defaults to ``level`` (Sec. 1.2's error hierarchy).
        """
        return cls(
            one_qubit_error=level / 10.0,
            two_qubit_error=level,
            readout_error=level if readout is None else readout,
        )

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """A model with every error rate zero (for testing)."""
        return cls(0.0, 0.0, 0.0, 0.0)

    @property
    def is_noiseless(self) -> bool:
        """Whether all error channels are disabled."""
        return (
            self.one_qubit_error == 0.0
            and self.two_qubit_error == 0.0
            and self.readout_error == 0.0
            and self.idle_decoherence == 0.0
        )

    def error_probability(self, gate_qubits: int) -> float:
        """Pauli-error probability after a gate of the given arity."""
        if gate_qubits == 1:
            return self.one_qubit_error
        if gate_qubits == 2:
            return self.two_qubit_error
        # Wider gates are charged the two-qubit rate per constituent CNOT
        # elsewhere; as a direct channel, use the two-qubit rate.
        return self.two_qubit_error

    def pauli_terms(self, gate_qubits: int) -> list[tuple[float, str]]:
        """Return ``(probability, label)`` error terms for a gate arity."""
        probability = self.error_probability(gate_qubits)
        if probability == 0.0:
            return []
        if gate_qubits == 1:
            return [(probability / 3.0, p) for p in ONE_QUBIT_PAULIS]
        labels = TWO_QUBIT_PAULIS
        return [(probability / len(labels), p) for p in labels]


def readout_confusion(readout_error: float) -> np.ndarray:
    """Symmetric single-qubit readout confusion matrix ``C[read, actual]``."""
    e = readout_error
    return np.array([[1.0 - e, e], [e, 1.0 - e]])


def apply_readout_error(
    probs: np.ndarray, num_qubits: int, readout_error: float
) -> np.ndarray:
    """Apply the per-qubit readout confusion to an outcome distribution."""
    if readout_error == 0.0:
        return probs
    confusion = readout_confusion(readout_error)
    tensor = probs.reshape((2,) * num_qubits)
    for axis in range(num_qubits):
        tensor = np.tensordot(confusion, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    return tensor.reshape(-1)
