"""The LEAP circuit template and its instantiation kernel.

A LEAP template (paper Fig. 5) is fixed by its qubit count and its CNOT
placements: a ZYZ triple on every qubit, then, per placement
``(control, target)``, a CNOT followed by :data:`LAYER_ROTATIONS` on both
of its qubits.  Its *slots* are those gates in order, each rotation
owning the next parameter.  The template knows how to

* build a concrete :class:`~repro.circuits.Circuit` from a parameter
  vector, and
* evaluate ``Tr(V^dag U(params))`` against a target ``V`` together with
  its analytic derivative for every rotation angle
  (``dR/dtheta = -i/2 * P * R`` for a Pauli rotation
  ``R = exp(-i theta P / 2)``).

The derivative evaluation is compiled once per template into an
evaluation plan (:meth:`Ansatz.__init__`), so one call costs two
sequential chains of ``K`` small matrix products for ``K`` slots plus a
fixed number of stacked numpy calls.  An :class:`AnsatzStack` runs the
same plan for several templates of one shape at once, one parameter row
each, so the numpy call count does not grow with the number of rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import gate_matrix, ry_entries, rz_entries
from repro.exceptions import SynthesisError
from repro.linalg.embed import embed_unitary

_PAULI = {
    "ry": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "rz": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Derivative generator ``-i/2 * P`` of each rotation:
#: ``dR/dtheta = generator @ R``.
_GENERATORS = {name: -0.5j * pauli for name, pauli in _PAULI.items()}


# Row-major 2x2 entries of each rotation as Python scalars, from the
# ``math``/``cmath`` formulas of ``gate_matrix`` itself (``np.cos`` runs
# SIMD loops that need not match libm bit for bit).
_ROTATION_ENTRIES = {"ry": ry_entries, "rz": rz_entries}

#: The rotations on each qubit a CNOT touches: the paper's "two rotation
#: gates on both the qubits" (Sec. 3.5).  Combined with the full ZYZ
#: initial layer this is universal in practice and a third cheaper per
#: layer than a ZYZ triple.
LAYER_ROTATIONS: tuple[str, ...] = ("ry", "rz")

#: The rotations every template starts with on each qubit.
_INITIAL_ROTATIONS = ("rz", "ry", "rz")


@dataclass(frozen=True)
class Slot:
    """One gate of a template: a CNOT (``param_index`` None) or a
    rotation owning one parameter."""

    name: str
    qubits: tuple[int, ...]
    param_index: int | None


class Ansatz:
    """The LEAP template of ``placements`` over ``num_qubits`` qubits.

    Raises :class:`SynthesisError` for a placement whose qubits repeat
    or lie out of range.
    """

    def __init__(self, num_qubits: int, placements) -> None:
        self.num_qubits = int(num_qubits)
        self.placements = tuple(map(tuple, placements))
        self.slots = leap_slots(self.num_qubits, self.placements)
        self.num_params = leap_param_count(self.num_qubits, len(self.placements))
        self._dim = 2**self.num_qubits
        self._compile_template()
        self._compile_rows([self])

    def _compile_template(self) -> None:
        """Keep what depends on this template alone.

        Rotations are stacked in slot order ("rotation rows"), which is
        parameter order.  Their names and slot positions fix the shape
        of the plan; their target qubits and the CNOTs' embeddings are
        what one template of a stack contributes (:meth:`_compile_rows`).
        """
        n = self.num_qubits
        cx = gate_matrix("cx")
        # Per slot: its CNOT's embed, or None where a rotation goes.
        self._fixed_embeds = [
            None if slot.param_index is not None else embed_unitary(cx, slot.qubits, n)
            for slot in self.slots
        ]
        rotations = [
            (position, slot)
            for position, slot in enumerate(self.slots)
            if slot.param_index is not None
        ]
        self._rotation_names = [slot.name for _, slot in rotations]
        self._rotation_targets = [slot.qubits[0] for _, slot in rotations]
        self._rotation_entries = [_ROTATION_ENTRIES[slot.name] for _, slot in rotations]
        self._rotation_positions = np.array(
            [position for position, _ in rotations], dtype=np.intp
        )
        self._identity = np.eye(self._dim, dtype=complex)

    def _compile_rows(self, members: list[Ansatz]) -> None:
        """Precompute the per-row plan of a stack of ``members``.

        Row ``b`` of every array below belongs to ``members[b]``.  For
        each rotation the plan keeps where its 2x2 entries land in the
        dense embedding ``I_high (x) R (x) I_low`` and the identity factor
        each entry is multiplied by, so embedding every rotation of every
        row is one gather and two elementwise products — the same
        products :func:`repro.linalg.embed.embed_unitary` forms one slot
        at a time.  Arrays are rotation-major, ``(R, B, ...)``.
        """
        batch = len(members)
        self._batch = batch
        self._slot_embeds = [
            None if embed is None else np.stack([m._fixed_embeds[k] for m in members])
            for k, embed in enumerate(self._fixed_embeds)
        ]
        entry, low, high = _embedding_layouts(self.num_qubits)
        targets = np.array(
            [m._rotation_targets for m in members], dtype=np.intp
        ).reshape(batch, -1).T
        count = len(targets)
        offsets = 4 * np.arange(count * batch, dtype=np.intp).reshape(count, batch, 1)
        self._entry_index = entry[targets] + offsets
        self._low_factors = low[targets]
        self._high_factors = high[targets]
        # Embedded derivative generators: each derivative embed is then
        # one matmul ``generator @ rotation`` per row.
        generators = np.array(
            [_GENERATORS[name] for name in self._rotation_names], dtype=complex
        ).reshape(count, 1, 4)
        self._generators = self._embed_rows(np.repeat(generators, batch, axis=1))

    def _embed_rows(self, gates: np.ndarray) -> np.ndarray:
        """Dense embeddings ``(R, B, dim, dim)`` of one 2x2 gate per row.

        ``gates`` holds the rows' 2x2 matrices back to back in
        rotation-major order, in any shape.
        """
        embeds = gates.reshape(-1)[self._entry_index]
        np.multiply(embeds, self._low_factors, out=embeds)
        np.multiply(self._high_factors, embeds, out=embeds)
        return embeds.reshape(-1, self._batch, self._dim, self._dim)

    # ------------------------------------------------------------------
    @property
    def cnot_count(self) -> int:
        """Number of CNOTs in the template: one per placement."""
        return len(self.placements)

    def build_circuit(self, params: np.ndarray) -> Circuit:
        """Materialize the template with bound angles."""
        if len(params) != self.num_params:
            raise SynthesisError(
                f"expected {self.num_params} parameters, got {len(params)}"
            )
        return bind_slots(self.num_qubits, self.slots, params)

    def trace_and_gradient(self, params: np.ndarray, target_conj: np.ndarray):
        """Return ``Tr(V^dag U)`` and its derivative for every parameter.

        ``target_conj`` is the elementwise conjugate of the target ``V``
        (so the trace is ``sum(target_conj * U)``).  This is the L-BFGS
        hot path of :func:`repro.synthesis.instantiate.instantiate_multi`.

        ``params`` of shape ``(P,)`` gives a complex trace and ``(P,)``
        derivatives.  ``(B, P)`` parameters, on an :class:`AnsatzStack` of
        ``B`` templates (``B = 1`` for a lone template), give ``(B,)``
        traces and ``(B, P)`` derivatives, row ``b`` for template ``b``.

        With slot embeds ``E_k``, prefixes ``P_k = E_{k-1} ... E_0`` and
        suffixes ``S_k = E_{K-1} ... E_{k+1}``, the derivative for the
        rotation in slot ``k`` is ``Tr(V^dag (S_k D_k) P_k)`` with
        ``D_k = embed(-i/2 P) @ E_k``.  Only the prefix and suffix chains
        are sequential, one stacked product over all rows per slot; every
        per-rotation product, and the contraction against the target, is
        one stacked call over all rotations of all rows.  Each stacked
        call repeats the same BLAS product or pairwise reduction per
        matrix that a slot-by-slot sweep of one template makes, so every
        row is bit-identical to it (``tests/ansatz_oracle.py`` keeps that
        sweep as the reference).
        """
        dim, slots, batch = self._dim, len(self.slots), self._batch
        thetas = np.asarray(params, dtype=float)
        columns = thetas.reshape(batch, self.num_params).T.tolist()
        entries: list = []
        for build, column in zip(self._rotation_entries, columns):
            for theta in column:
                entries += build(theta)
        rotations = self._embed_rows(np.array(entries, dtype=complex))
        embeds = list(self._slot_embeds)
        for position, embed in zip(self._rotation_positions.tolist(), rotations):
            embeds[position] = embed

        # Slot-major chains: each step is one (B, dim, dim) product whose
        # operands and output are contiguous, ``out=`` writing straight
        # into the stack.  Slot 0 is a rotation, so the suffix chain runs
        # down to slot 1.
        prefixes = np.empty((slots + 1, batch, dim, dim), dtype=complex)
        prefixes[0] = self._identity
        prefix_views = list(prefixes)
        for k in range(slots):
            np.matmul(embeds[k], prefix_views[k], out=prefix_views[k + 1])
        suffixes = np.empty((slots, batch, dim, dim), dtype=complex)
        suffixes[slots - 1] = self._identity
        suffix_views = list(suffixes)
        for k in range(slots - 1, 0, -1):
            np.matmul(suffix_views[k], embeds[k], out=suffix_views[k - 1])

        count = len(self._rotation_entries)
        positions = self._rotation_positions
        derivatives = np.matmul(self._generators, rotations)
        # Rows 0..R-1 hold (S_k @ D_k) @ P_k; row R holds U for the trace.
        products = np.empty((count + 1, batch, dim, dim), dtype=complex)
        np.matmul(
            np.matmul(suffixes[positions], derivatives),
            prefixes[positions],
            out=products[:count],
        )
        products[count] = prefix_views[slots]
        np.multiply(target_conj, products, out=products)
        sums = np.add.reduce(
            products.reshape((count + 1) * batch, dim * dim), axis=1
        ).reshape(count + 1, batch)
        # Row-major copy: each row's derivatives are contiguous, as a lone
        # template's are, for the elementwise cost formula downstream.
        dtraces = np.ascontiguousarray(sums[:count].T)
        if thetas.ndim == 1:
            return complex(sums[count, 0]), dtraces[0]
        return sums[count], dtraces


class AnsatzStack(Ansatz):
    """Same-shape templates evaluated together, one parameter row each.

    ``members`` must agree on their qubit count and CNOT count; only the
    qubits each slot acts on may differ (as between the CNOT placements
    of one LEAP layer).  :meth:`trace_and_gradient` then
    takes ``(B, P)`` parameters, row ``b`` binding ``members[b]``, and each
    row's result is bit-identical to that member's own call.  A template
    may appear in several rows.  ``slots`` and the other template
    accessors describe ``members[0]``.
    """

    def __init__(self, members: list[Ansatz]) -> None:
        members = tuple(members)
        if not members:
            raise SynthesisError("an ansatz stack needs at least one template")
        lead = members[0]
        shape = _template_shape(lead)
        if any(_template_shape(member) != shape for member in members[1:]):
            raise SynthesisError(
                "stacked templates must share qubit count and CNOT count"
            )
        # The shape and the plan's shared part are the lead's; the per-row
        # part is recompiled over every member.
        vars(self).update(vars(lead))
        self.members = members
        self._compile_rows(list(members))


def _template_shape(ansatz: Ansatz) -> tuple[int, int]:
    return ansatz.num_qubits, len(ansatz.placements)


@functools.lru_cache(maxsize=None)
def _embedding_layouts(num_qubits: int) -> tuple[np.ndarray, ...]:
    """Where a 2x2 gate ``G`` lands in its dense ``I_high (x) G (x) I_low``.

    Returns three ``(num_qubits, dim*dim)`` arrays; row ``q`` is for a
    gate on qubit ``q``.  Each flattened element of the embedding is
    ``high * (G[entry] * low)`` — the two products, in that order, that
    :func:`repro.linalg.embed.embed_unitary` forms with ``_kron``.  The
    arrays are ``entry`` (row-major index into ``G``), ``low`` and
    ``high`` (the identity entries, exactly 1 or 0).  Cached per qubit
    count; callers only index them.
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


def bind_slots(num_qubits: int, slots, params) -> Circuit:
    """The circuit of ``slots`` with each rotation bound to its angle."""
    angles = np.asarray(params, dtype=float).tolist()
    circuit = Circuit(num_qubits)
    for slot in slots:
        if slot.param_index is None:
            circuit.add_gate(slot.name, slot.qubits)
        else:
            circuit.add_gate(slot.name, slot.qubits, (angles[slot.param_index],))
    return circuit


def leap_param_count(num_qubits: int, cnots: int) -> int:
    """The angle count of the LEAP template with ``cnots`` placements:
    a ZYZ triple per qubit, then :data:`LAYER_ROTATIONS` on both qubits
    of each CNOT."""
    return len(_INITIAL_ROTATIONS) * num_qubits + 2 * len(LAYER_ROTATIONS) * cnots


def build_leap_ansatz(num_qubits: int, placements) -> Ansatz:
    """Build the LEAP template for a given CNOT placement sequence."""
    return Ansatz(num_qubits, placements)


@functools.lru_cache(maxsize=1024)
def leap_slots(
    num_qubits: int, placements: tuple[tuple[int, int], ...]
) -> tuple[Slot, ...]:
    """The slots of the LEAP template for a CNOT placement sequence.

    The template starts with a full ZYZ triple on every qubit, then for
    each placement ``(control, target)`` adds a CNOT followed by
    :data:`LAYER_ROTATIONS` on both touched qubits (paper Fig. 5).
    Parameter indices follow slot order.  Raises :class:`SynthesisError`
    for a placement whose qubits repeat or lie out of range.  Cached:
    structures recur.
    """
    slots: list[Slot] = []
    index = 0
    for qubit in range(num_qubits):
        for name in _INITIAL_ROTATIONS:
            slots.append(Slot(name, (qubit,), index))
            index += 1
    for control, target in placements:
        if control == target or not (
            0 <= control < num_qubits and 0 <= target < num_qubits
        ):
            raise SynthesisError(
                f"bad placement {(control, target)} on {num_qubits} qubit(s)"
            )
        slots.append(Slot("cx", (control, target), None))
        for qubit in (control, target):
            for name in LAYER_ROTATIONS:
                slots.append(Slot(name, (qubit,), index))
                index += 1
    return tuple(slots)
