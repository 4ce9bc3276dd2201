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

:func:`noise_schedule` lists the channels that follow each gate; the
PTM and trajectory engines and the tests' density-matrix reference all
read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.circuits.circuit import Circuit
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


#: Dense matrix of every one- and two-qubit Pauli error label, read-only.
PAULI_MATRICES: dict[str, np.ndarray] = {
    label: pauli_matrix(label) for label in ONE_QUBIT_PAULIS + TWO_QUBIT_PAULIS
}
for _matrix in PAULI_MATRICES.values():
    _matrix.setflags(write=False)


@dataclass(frozen=True)
class NoiseModel:
    """Gate-level Pauli noise plus readout error."""

    one_qubit_error: float = 0.001
    two_qubit_error: float = 0.01
    readout_error: float = 0.02

    def __post_init__(self) -> None:
        for name in ("one_qubit_error", "two_qubit_error", "readout_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise NoiseModelError(f"{name}={value} outside [0, 1]")

    @classmethod
    def from_noise_level(cls, level: float) -> "NoiseModel":
        """Paper-style model: ``level`` is the two-qubit and the readout
        error rate, and the one-qubit rate is an order of magnitude lower
        (Sec. 1.2's error hierarchy).
        """
        return cls(
            one_qubit_error=level / 10.0,
            two_qubit_error=level,
            readout_error=level,
        )


class PauliChannel(NamedTuple):
    """A Pauli error on ``qubits``: with total ``probability``, one of
    ``labels`` (little-endian, like :func:`pauli_matrix`) uniformly."""

    qubits: tuple[int, ...]
    probability: float
    labels: tuple[str, ...]

    @property
    def terms(self) -> tuple[tuple[float, str], ...]:
        """``(probability, label)`` per label; the identity keeps the rest."""
        share = self.probability / len(self.labels)
        return tuple((share, label) for label in self.labels)


def noise_schedule(
    circuit: Circuit, noise: NoiseModel
) -> list[tuple[np.ndarray, tuple[int, ...], tuple[PauliChannel, ...]]]:
    """``(matrix, qubits, channels)`` per unitary operation, in order.

    ``measure`` and ``barrier`` are dropped.  After a one- or two-qubit
    gate comes its channel of 3 or 15 non-identity Paulis at that
    arity's rate, after a wider gate one two-qubit channel per
    consecutive pair of its qubits.  A channel of rate 0 is never built,
    and each gate matrix is built once per ``(name, params)``.
    """
    matrices: dict[tuple, np.ndarray] = {}
    schedule = []
    for op in circuit.operations:
        if op.name in ("measure", "barrier"):
            continue
        key = (op.name, op.params)
        matrix = matrices.get(key)
        if matrix is None:
            matrix = matrices[key] = op.gate.matrix()
        qubits = op.qubits
        channels: list[PauliChannel] = []
        if len(qubits) == 1:
            if noise.one_qubit_error > 0.0:
                channels.append(
                    PauliChannel(qubits, noise.one_qubit_error, ONE_QUBIT_PAULIS)
                )
        elif noise.two_qubit_error > 0.0:
            channels += [
                PauliChannel(pair, noise.two_qubit_error, TWO_QUBIT_PAULIS)
                for pair in zip(qubits, qubits[1:])
            ]
        schedule.append((matrix, qubits, tuple(channels)))
    return schedule


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
