"""Frozen slot-by-slot reference for ``Ansatz.trace_and_gradient``.

:class:`repro.synthesis.ansatz.Ansatz` evaluates the instantiation cost
with stacked per-rotation work.  This module keeps the kernel it
replaced — one slot at a time, prefix products forward, one suffix
product backward — as the oracle the tests hold it to, bit for bit.
It reads only an ansatz's public ``slots``, ``num_qubits`` and
``num_params``.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.gates import gate_matrix
from repro.linalg.embed import embed_unitary

_PAULI = {
    "rx": np.array([[0, 1], [1, 0]], dtype=complex),
    "ry": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "rz": np.array([[1, 0], [0, -1]], dtype=complex),
}


class SlotSweep:
    """The slot-by-slot cost/gradient sweep over one ansatz."""

    def __init__(self, ansatz) -> None:
        self.slots = list(ansatz.slots)
        self.num_qubits = ansatz.num_qubits
        self.num_params = ansatz.num_params
        self._dim = 2**self.num_qubits
        # Fixed-slot embeddings and the embedded derivative generators
        # ``-i/2 * P`` never change; cache them once.
        self._fixed_embeds: dict[int, np.ndarray] = {}
        self._generator_embeds: dict[int, np.ndarray] = {}
        for position, slot in enumerate(self.slots):
            if slot.param_index is None:
                self._fixed_embeds[position] = embed_unitary(
                    gate_matrix(slot.name), slot.qubits, self.num_qubits
                )
            else:
                self._generator_embeds[position] = embed_unitary(
                    -0.5j * _PAULI[slot.name], slot.qubits, self.num_qubits
                )

    def _slot_embeds(self, params: np.ndarray) -> list[np.ndarray]:
        """Embedded slot unitaries for a parameter vector."""
        embeds: list[np.ndarray] = []
        for position, slot in enumerate(self.slots):
            if slot.param_index is None:
                embeds.append(self._fixed_embeds[position])
            else:
                gate = gate_matrix(slot.name, (float(params[slot.param_index]),))
                embeds.append(embed_unitary(gate, slot.qubits, self.num_qubits))
        return embeds

    def unitary_and_gradient(
        self, params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``U(params)`` and the ``(num_params, dim, dim)`` tensor
        ``dU/dtheta``."""
        dim = self._dim
        embeds = self._slot_embeds(params)
        # Prefix products: prefixes[k] = E_k ... E_1 (prefixes[0] = I).
        prefixes = [np.eye(dim, dtype=complex)]
        for embed in embeds:
            prefixes.append(embed @ prefixes[-1])
        unitary = prefixes[-1]
        gradient = np.zeros((self.num_params, dim, dim), dtype=complex)
        suffix = np.eye(dim, dtype=complex)
        for position in range(len(self.slots) - 1, -1, -1):
            slot = self.slots[position]
            if slot.param_index is not None:
                derivative_embed = (
                    self._generator_embeds[position] @ embeds[position]
                )
                gradient[slot.param_index] = (
                    suffix @ derivative_embed @ prefixes[position]
                )
            suffix = suffix @ embeds[position]
        return unitary, gradient

    def trace_and_gradient(
        self, params: np.ndarray, target_conj: np.ndarray
    ) -> tuple[complex, np.ndarray]:
        """Return ``Tr(V^dag U)`` and its derivative for every parameter,
        contracting each derivative inside the backward sweep."""
        dim = self._dim
        embeds = self._slot_embeds(params)
        prefixes = [np.eye(dim, dtype=complex)]
        for embed in embeds:
            prefixes.append(embed @ prefixes[-1])
        trace = complex(np.add.reduce(target_conj * prefixes[-1], axis=None))
        dtraces = np.zeros(self.num_params, dtype=complex)
        suffix = np.eye(dim, dtype=complex)
        for position in range(len(self.slots) - 1, -1, -1):
            slot = self.slots[position]
            if slot.param_index is not None:
                derivative_embed = (
                    self._generator_embeds[position] @ embeds[position]
                )
                dtraces[slot.param_index] = np.add.reduce(
                    target_conj * (suffix @ derivative_embed @ prefixes[position]),
                    axis=None,
                )
            suffix = suffix @ embeds[position]
        return trace, dtraces
