"""Parameterized circuit templates (ansatze) for numerical synthesis.

A LEAP/QSearch-style template is a sequence of *slots*: fixed entangling
gates (CNOTs at chosen placements) interleaved with one-parameter Pauli
rotations.  The template knows how to

* build a concrete :class:`~repro.circuits.Circuit` from a parameter
  vector, and
* evaluate ``Tr(V^dag U(params))`` against a target ``V`` together with
  its analytic derivative for every rotation angle
  (``dR/dtheta = -i/2 * P * R`` for a Pauli rotation
  ``R = exp(-i theta P / 2)``).

The derivative evaluation is compiled once per template into an
evaluation plan (:meth:`Ansatz.__init__`), so one call costs two
sequential chains of ``K`` small matrix products for ``K`` slots plus a
fixed number of stacked numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import gate_matrix, rx_entries, ry_entries, rz_entries
from repro.exceptions import GateError, SynthesisError
from repro.linalg.embed import apply_gate_to_matrix, embed_unitary

_PAULI = {
    "rx": np.array([[0, 1], [1, 0]], dtype=complex),
    "ry": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "rz": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Derivative generator ``-i/2 * P`` of each rotation:
#: ``dR/dtheta = generator @ R``.
_GENERATORS = {name: -0.5j * pauli for name, pauli in _PAULI.items()}


# Row-major 2x2 entries of each rotation as Python scalars, from the
# ``math``/``cmath`` formulas of ``gate_matrix`` itself (``np.cos`` runs
# SIMD loops that need not match libm bit for bit).
_ROTATION_ENTRIES = {"rx": rx_entries, "ry": ry_entries, "rz": rz_entries}

#: Default rotation pattern applied to each qubit a CNOT touches: the
#: paper's "two rotation gates on both the qubits" (Sec. 3.5).  Combined
#: with the full ZYZ initial layer this is universal in practice and a
#: third cheaper per layer than a ZYZ triple.
DEFAULT_LAYER_ROTATIONS: tuple[str, ...] = ("ry", "rz")


@dataclass(frozen=True)
class Slot:
    """One position in the template.

    ``param_index`` is ``None`` for fixed gates; rotations own exactly one
    parameter.
    """

    name: str
    qubits: tuple[int, ...]
    param_index: int | None


class Ansatz:
    """A fixed-structure parameterized circuit over ``num_qubits`` qubits.

    Raises :class:`SynthesisError` for a malformed template: parameter
    indices other than ``0..P-1``, a rotation other than rx/ry/rz on
    exactly one qubit, a fixed slot that is no known parameterless gate
    on its qubit count, or qubits that repeat or lie out of range.
    """

    def __init__(self, num_qubits: int, slots: list[Slot]) -> None:
        self.num_qubits = int(num_qubits)
        self.slots = list(slots)
        indices = [s.param_index for s in slots if s.param_index is not None]
        if sorted(indices) != list(range(len(indices))):
            raise SynthesisError("parameter indices must be 0..P-1 in some order")
        self.num_params = len(indices)
        self._dim = 2**self.num_qubits
        self._compile_plan()

    def _compile_plan(self) -> None:
        """Validate every slot and precompute what each evaluation reuses.

        Rotations are stacked in slot order ("rows").  For each row the
        plan keeps where its 2x2 entries land in the dense embedding
        ``I_high (x) R (x) I_low`` and the identity factor each entry is
        multiplied by, so embedding every rotation is one gather and two
        elementwise products — the same products
        :func:`repro.linalg.embed.embed_unitary` forms one slot at a time.
        """
        n, dim = self.num_qubits, self._dim
        # Per slot: its fixed embed, or None where a rotation goes.
        self._slot_embeds: list[np.ndarray | None] = []
        rotations: list[tuple[int, Slot]] = []
        for position, slot in enumerate(self.slots):
            qubits = tuple(slot.qubits)
            if len(set(qubits)) != len(qubits) or any(
                not 0 <= q < n for q in qubits
            ):
                raise SynthesisError(
                    f"slot {position} {slot}: qubits must be distinct and in "
                    f"range for {n} qubit(s)"
                )
            if slot.param_index is not None:
                if slot.name not in _ROTATION_ENTRIES or len(qubits) != 1:
                    raise SynthesisError(
                        f"slot {position} {slot}: a parameterized slot must be "
                        "an rx, ry or rz rotation on one qubit"
                    )
                rotations.append((position, slot))
                self._slot_embeds.append(None)
                continue
            try:
                gate = gate_matrix(slot.name)
            except GateError as exc:
                raise SynthesisError(f"slot {position} {slot}: {exc}") from exc
            if gate.shape != (2 ** len(qubits),) * 2:
                raise SynthesisError(
                    f"slot {position} {slot}: gate {slot.name!r} does not act "
                    f"on {len(qubits)} qubit(s)"
                )
            self._slot_embeds.append(embed_unitary(gate, qubits, n))

        rows = len(rotations)
        self._rotations = [
            (_ROTATION_ENTRIES[slot.name], slot.param_index) for _, slot in rotations
        ]
        self._rotation_positions = np.array(
            [position for position, _ in rotations], dtype=np.intp
        )
        # dtraces[p] = row_sums[self._param_rows[p]]
        self._param_rows = np.empty(rows, dtype=np.intp)
        self._param_rows[[slot.param_index for _, slot in rotations]] = np.arange(rows)
        # The suffix chain is needed only down to the first rotation.
        self._first_rotation = int(self._rotation_positions.min()) if rows else 0

        entry, low, high = _embedding_layouts(n)
        targets = np.array([slot.qubits[0] for _, slot in rotations], dtype=np.intp)
        self._entry_index = entry[targets] + 4 * np.arange(rows)[:, None]
        self._low_factors = low[targets]
        self._high_factors = high[targets]
        # Embedded derivative generators: each derivative embed is then
        # one matmul ``generator @ rotation`` per row.
        self._generators = self._embed_rows(
            np.array([_GENERATORS[slot.name] for _, slot in rotations], dtype=complex)
        )
        self._identity = np.eye(dim, dtype=complex)

    def _embed_rows(self, gates: np.ndarray) -> np.ndarray:
        """Dense embeddings ``(rows, dim, dim)`` of one 2x2 gate per row.

        ``gates`` holds the rows' 2x2 matrices back to back, in any shape.
        """
        embeds = gates.reshape(-1)[self._entry_index]
        np.multiply(embeds, self._low_factors, out=embeds)
        np.multiply(self._high_factors, embeds, out=embeds)
        return embeds.reshape(-1, self._dim, self._dim)

    # ------------------------------------------------------------------
    @property
    def cnot_count(self) -> int:
        """Number of fixed CNOT slots in the template."""
        return sum(1 for s in self.slots if s.name == "cx")

    def build_circuit(self, params: np.ndarray) -> Circuit:
        """Materialize the template with bound angles."""
        if len(params) != self.num_params:
            raise SynthesisError(
                f"expected {self.num_params} parameters, got {len(params)}"
            )
        circuit = Circuit(self.num_qubits)
        for slot in self.slots:
            if slot.param_index is None:
                circuit.add_gate(slot.name, slot.qubits)
            else:
                circuit.add_gate(
                    slot.name, slot.qubits, (float(params[slot.param_index]),)
                )
        return circuit

    def unitary(self, params: np.ndarray) -> np.ndarray:
        """Evaluate only the unitary (no gradients)."""
        unitary = np.eye(self._dim, dtype=complex)
        for slot in self.slots:
            angles = () if slot.param_index is None else (float(params[slot.param_index]),)
            unitary = apply_gate_to_matrix(
                unitary, gate_matrix(slot.name, angles), slot.qubits, self.num_qubits
            )
        return unitary

    def trace_and_gradient(
        self, params: np.ndarray, target_conj: np.ndarray
    ) -> tuple[complex, np.ndarray]:
        """Return ``Tr(V^dag U)`` and its derivative for every parameter.

        ``target_conj`` is the elementwise conjugate of the target ``V``
        (so the trace is ``sum(target_conj * U)``).  This is the L-BFGS
        hot path of :func:`repro.synthesis.instantiate.instantiate`.

        With slot embeds ``E_k``, prefixes ``P_k = E_{k-1} ... E_0`` and
        suffixes ``S_k = E_{K-1} ... E_{k+1}``, the derivative for the
        rotation in slot ``k`` is ``Tr(V^dag (S_k D_k) P_k)`` with
        ``D_k = embed(-i/2 P) @ E_k``.  Only the prefix and suffix chains
        are sequential; every per-rotation product, and the contraction
        against the target, is one stacked call over all rotations.  Each
        stacked call repeats the same BLAS product or pairwise reduction
        per row that a slot-by-slot sweep makes, so the results are
        bit-identical to one (``tests/ansatz_oracle.py`` keeps that sweep
        as the reference).
        """
        dim, slots = self._dim, len(self.slots)
        thetas = np.asarray(params, dtype=float).tolist()
        entries: list = []
        for build, index in self._rotations:
            entries += build(thetas[index])
        rotations = self._embed_rows(np.array(entries, dtype=complex))
        embeds = list(self._slot_embeds)
        for position, embed in zip(self._rotation_positions.tolist(), rotations):
            embeds[position] = embed

        # np.dot on 2-D operands issues the same zgemm as ``@`` with less
        # per-call overhead; ``out=`` writes straight into the stack.
        prefixes = np.empty((slots + 1, dim, dim), dtype=complex)
        prefixes[0] = self._identity
        prefix_views = list(prefixes)
        for k in range(slots):
            np.dot(embeds[k], prefix_views[k], out=prefix_views[k + 1])
        suffixes = np.empty((slots, dim, dim), dtype=complex)
        suffixes[slots - 1 :] = self._identity  # an empty slice if slots == 0
        suffix_views = list(suffixes)
        for k in range(slots - 1, self._first_rotation, -1):
            np.dot(suffix_views[k], embeds[k], out=suffix_views[k - 1])

        rows = len(self._rotations)
        positions = self._rotation_positions
        derivatives = np.matmul(self._generators, rotations)
        # Rows 0..R-1 hold (S_k @ D_k) @ P_k; row R holds U for the trace.
        products = np.empty((rows + 1, dim, dim), dtype=complex)
        np.matmul(
            np.matmul(suffixes[positions], derivatives),
            prefixes[positions],
            out=products[:rows],
        )
        products[rows] = prefix_views[slots]
        np.multiply(target_conj, products, out=products)
        sums = np.add.reduce(products.reshape(rows + 1, dim * dim), axis=1)
        return complex(sums[rows]), sums[self._param_rows]


def _embedding_layouts(num_qubits: int) -> tuple[np.ndarray, ...]:
    """Where a 2x2 gate ``G`` lands in its dense ``I_high (x) G (x) I_low``.

    Returns three ``(num_qubits, dim*dim)`` arrays; row ``q`` is for a
    gate on qubit ``q``.  Each flattened element of the embedding is
    ``high * (G[entry] * low)`` — the two products, in that order, that
    :func:`repro.linalg.embed.embed_unitary` forms with ``_kron``.  The
    arrays are ``entry`` (row-major index into ``G``), ``low`` and
    ``high`` (the identity entries, exactly 1 or 0).
    """
    entries, lows, highs = [], [], []
    for qubit in range(num_qubits):
        low, high = 2**qubit, 2 ** (num_qubits - 1 - qubit)
        # Embedding row (h1, i, l1) and column (h2, j, l2), in mixed radix.
        h1, i, l1, h2, j, l2 = np.indices((high, 2, low, high, 2, low)).reshape(6, -1)
        entries.append(2 * i + j)
        lows.append(l1 == l2)
        highs.append(h1 == h2)
    size = 4**num_qubits
    return (
        np.array(entries, dtype=np.intp).reshape(-1, size),
        np.array(lows, dtype=complex).reshape(-1, size),
        np.array(highs, dtype=complex).reshape(-1, size),
    )


def build_leap_ansatz(
    num_qubits: int,
    placements: list[tuple[int, int]],
    layer_rotations: tuple[str, ...] = DEFAULT_LAYER_ROTATIONS,
) -> Ansatz:
    """Build the LEAP template for a given CNOT placement sequence.

    The template starts with a full ZYZ triple on every qubit, then for
    each placement ``(control, target)`` adds a CNOT followed by
    ``layer_rotations`` on both touched qubits (paper Fig. 5).
    """
    slots: list[Slot] = []
    index = 0
    for qubit in range(num_qubits):
        for name in ("rz", "ry", "rz"):
            slots.append(Slot(name, (qubit,), index))
            index += 1
    for control, target in placements:
        if control == target:
            raise SynthesisError(f"bad placement {(control, target)}")
        slots.append(Slot("cx", (control, target), None))
        for qubit in (control, target):
            for name in layer_rotations:
                slots.append(Slot(name, (qubit,), index))
                index += 1
    return Ansatz(num_qubits, slots)


def all_placements(
    num_qubits: int, coupling: list[tuple[int, int]] | None = None
) -> list[tuple[int, int]]:
    """Enumerate candidate CNOT placements.

    With no coupling constraint, all ordered qubit pairs are allowed; with
    a coupling list, both orientations of each allowed edge.
    """
    if coupling is None:
        return [
            (a, b)
            for a in range(num_qubits)
            for b in range(num_qubits)
            if a != b
        ]
    placements: list[tuple[int, int]] = []
    for a, b in coupling:
        placements.append((a, b))
        placements.append((b, a))
    return sorted(set(placements))
