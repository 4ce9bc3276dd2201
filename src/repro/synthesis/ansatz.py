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
evaluation plan (:meth:`Ansatz.__init__`), so one call costs one
sequential chain of ``K`` steps for ``K`` slots, each step one numpy
call that advances the prefix and the suffix product together, plus a
fixed number of stacked numpy calls.  An :class:`AnsatzStack` runs the
same plan for several templates of one shape at once, one parameter row
each, so the numpy call count does not grow with the number of rows;
it can drop rows that are done and keep its plan.  The arrays those
calls write are allocated once per stack, at its first call, and every
later call writes into them; a template or stack is therefore driven by
one thread at a time.
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


def _derivative_entries(generator: np.ndarray) -> tuple[list[int], list[complex]]:
    """Row-major entries of ``generator @ R`` as ``scale[e] * R[source[e]]``.

    A Pauli generator has exactly one nonzero per row, ``±1/2`` or
    ``±i/2``, so each entry of the product is one product of that value
    with an entry of ``R``: the same product, and so the same bits, as a
    matrix product of the two forms (its other terms are exact zeros,
    which change no nonzero sum).
    """
    columns = np.argmax(generator != 0, axis=1).tolist()
    source = [2 * columns[row] + column for row in (0, 1) for column in (0, 1)]
    scale = [complex(generator[row, columns[row]]) for row in (0, 1) for _ in (0, 1)]
    return source, scale


#: Per rotation, where each entry of its derivative ``generator @ R`` comes
#: from among ``R``'s entries, and the factor it takes.
_DERIVATIVE_ENTRIES = {name: _derivative_entries(g) for name, g in _GENERATORS.items()}


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

        It also fixes where each slot's embed (rotations first, then the
        CNOTs) and each chain step's region sit in the chain buffer
        (:class:`_Layout`).
        """
        n, slots = self.num_qubits, self.slots
        cx = gate_matrix("cx")
        rotations = [k for k, slot in enumerate(slots) if slot.param_index is not None]
        cnots = [k for k, slot in enumerate(slots) if slot.param_index is None]
        self._cnot_embeds = [embed_unitary(cx, slots[k].qubits, n) for k in cnots]
        self._rotation_targets = [slots[k].qubits[0] for k in rotations]
        self._rotation_entries = [_ROTATION_ENTRIES[slots[k].name] for k in rotations]
        sources, scales = zip(*(_DERIVATIVE_ENTRIES[slots[k].name] for k in rotations))
        self._derivative_sources = np.array(sources, dtype=np.intp).reshape(-1, 1, 4)
        self._derivative_scales = np.array(scales, dtype=complex).reshape(-1, 1, 4)
        steps = len(slots)
        place = {k: index for index, k in enumerate(rotations + cnots)}
        self._embed_places = [place[k] for k in range(steps)]
        positions = np.array(rotations, dtype=np.intp)
        self._suffix_places = steps + 2 * (steps - 1 - positions)
        self._prefix_places = steps + 2 * positions + 1

    def _compile_rows(self, members: list[Ansatz]) -> None:
        """Precompute the per-row plan of a stack of ``members``.

        Row ``b`` of every array below belongs to ``members[b]``.  For
        each rotation the plan keeps where its 2x2 entries land in the
        dense embedding ``I_high (x) R (x) I_low`` (:func:`_embedding_layouts`),
        so embedding every rotation of every row is one gather, and
        embedding their derivatives ``generator @ R`` another.  Arrays are
        rotation-major, ``(R, B, ...)``; a call evaluates the rows
        :attr:`_rows` selects (all of them, until a stack drops some).
        """
        batch, dim = len(members), self._dim
        targets = np.array(
            [m._rotation_targets for m in members], dtype=np.intp
        ).reshape(batch, -1).T
        self._plan_entries = _embedding_layouts(self.num_qubits)[targets]
        self._plan_cnots = np.empty((len(self._cnot_embeds), batch, dim, dim), complex)
        for index, cnots in enumerate(self._plan_cnots):
            cnots[:] = [m._cnot_embeds[index] for m in members]
        self._rows = np.arange(batch)
        # The rows just changed, so any workspace is the wrong shape; the
        # first call on these rows allocates theirs.
        self._workspace: _Workspace | None = None
        self._layout: _Layout | None = None

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
        (so the trace is ``sum(target_conj * U)``), a ``(dim, dim)``
        array.  This is the L-BFGS hot path of
        :func:`repro.synthesis.instantiate.instantiate_multi`.

        ``params`` of shape ``(P,)``, on a lone template (or a stack
        down to one row), gives a complex trace and ``(P,)``
        derivatives.  ``(B, P)`` parameters, on an :class:`AnsatzStack` of
        ``B`` rows (``B = 1`` for a lone template), give ``(B,)`` traces
        and ``(B, P)`` derivatives, row ``b`` for template ``b``.  Any
        other shape of ``params`` or ``target_conj`` raises
        :class:`SynthesisError`.

        With slot embeds ``E_k``, prefixes ``P_k = E_{k-1} ... E_0`` and
        suffixes ``S_k = E_{K-1} ... E_{k+1}``, the derivative for the
        rotation in slot ``k`` is ``Tr(V^dag (S_k D_k) P_k)`` with
        ``D_k = embed(-i/2 P) @ E_k``.  Only the chains are sequential:
        step ``t`` is one stacked product over all rows that forms
        ``P_{t+1} = E_t P_t`` and ``S_{K-2-t} = S_{K-1-t} E_{K-1-t}``
        together, and the last forms ``U = P_K`` alone.  Every
        per-rotation product, and the contraction against the target, is
        one stacked call over all rotations of all rows.  Each stacked
        call repeats the same BLAS product or pairwise reduction per
        matrix that a slot-by-slot sweep of one template makes, and each
        ``D_k`` entry is the one exact product such a BLAS product forms,
        so every row is bit-identical to the sweep
        (``tests/ansatz_oracle.py`` keeps it as the reference).

        Every call on a stack writes the same workspace (:class:`_Workspace`),
        allocated by its first call; the arrays a call returns are fresh.
        """
        layout = self._layout if self._layout is not None else self._lay_out()
        thetas = np.asarray(params, dtype=float)
        batch, count = layout.batch, len(self._rotation_entries)
        if thetas.shape != (batch, self.num_params) and (
            batch != 1 or thetas.shape != (self.num_params,)
        ):
            expected = (self.num_params,) if batch == 1 else (batch, self.num_params)
            raise SynthesisError(
                f"params of shape {thetas.shape} do not fit {batch} template "
                f"row(s): expected {expected}"
            )
        if np.shape(target_conj) != (self._dim, self._dim):
            raise SynthesisError(
                f"target of shape {np.shape(target_conj)} does not fit a "
                f"{self.num_qubits}-qubit template: expected {(self._dim, self._dim)}"
            )
        columns = thetas.reshape(batch, self.num_params).T.tolist()
        entries: list = []
        for build, column in zip(self._rotation_entries, columns):
            for theta in column:
                entries += build(theta)
        # Rotation embeds: one gather, straight into their places in the
        # chain buffer; the embedding's other entries read the 0 appended.
        # ``clip`` lets ``take`` write straight into ``out``: under the
        # default ``raise`` it gathers into a copy first.  Every index is
        # in range, so the modes agree.
        entries.append(0)
        values = np.array(entries, dtype=complex)
        values.take(layout.entry_index, out=layout.rotations, mode="clip")
        # Derivative embeds D_k = embed(-i/2 P) @ E_k = embed(-i/2 P R):
        # each entry of -i/2 P R is one exact product (_derivative_entries),
        # embedded by the same gather.
        scaled = layout.derivative_products
        values.take(layout.derivative_sources, out=scaled, mode="clip")
        np.multiply(scaled, layout.derivative_scales, out=scaled)
        layout.derivative_entries.take(
            layout.entry_index, out=layout.derivative_embeds, mode="clip"
        )

        # The chains: each step reads the embeds and its own region and
        # writes the next region, so no product's output overlaps its
        # operands (numpy would first copy them).
        for lefts, rights, out in layout.steps:
            np.matmul(lefts, rights, out=out)

        # Rows 0..R-1 of ``products`` hold (S_k @ D_k) @ P_k; row R holds
        # U, which the last chain step wrote.
        products, gathered = layout.products, layout.gathered
        layout.chain.take(self._suffix_places, axis=0, out=gathered, mode="clip")
        np.matmul(gathered, layout.derivatives, out=layout.left)
        layout.chain.take(self._prefix_places, axis=0, out=gathered, mode="clip")
        np.matmul(layout.left, gathered, out=products[:count])
        np.multiply(target_conj, products, out=products)
        sums = np.add.reduce(
            products.reshape((count + 1) * batch, -1), axis=1
        ).reshape(count + 1, batch)
        # Row-major copy: each row's derivatives are contiguous, as a lone
        # template's are, for the elementwise cost formula downstream.
        # Both returned arrays are fresh, never views of the workspace.
        dtraces = np.ascontiguousarray(sums[:count].T)
        if thetas.ndim == 1:
            return complex(sums[count, 0]), dtraces[0]
        return sums[count], dtraces

    def _lay_out(self) -> _Layout:
        """Lay the rows :attr:`_rows` selects out in the workspace,
        allocating it (for every row of the plan) on first use."""
        if self._workspace is None:
            self._workspace = _Workspace(self)
        self._layout = _Layout(self, self._workspace)
        return self._layout


class _Workspace:
    """The arrays :meth:`Ansatz.trace_and_gradient` writes, allocated once
    per stack for every row of its plan.

    Every call on a stack overwrites them, so a kernel call allocates
    only its small per-row outputs.  Arrays this size, allocated and
    freed on every call, would make the allocator map and unmap them (or
    trim them off the heap top) and fault their pages back in each time.
    A template is therefore driven by one thread at a time.  A call on
    ``b`` rows uses a leading slice of each array (:class:`_Layout`), so
    a stack that drops rows keeps writing the same pages.
    """

    def __init__(self, ansatz: Ansatz) -> None:
        slots, count = len(ansatz.slots), len(ansatz._rotation_entries)
        batch = ansatz._plan_entries.shape[1]

        def rows(length: int) -> np.ndarray:
            return np.empty(length * batch * ansatz._dim**2, complex)

        #: Every slot's embed, then one ``[S_{K-1-t}, P_t]`` region per
        #: chain step ``t``.
        self.chain = rows(3 * slots)
        #: Per rotation: the entries of its derivative ``-i/2 P R`` (and
        #: a 0), its derivative embed ``D_k``, the gathered ``S_k`` then
        #: ``P_k``, and ``S_k @ D_k``.
        self.derivative_entries = np.empty(4 * count * batch + 1, complex)
        self.derivatives = rows(count)
        self.gathered = rows(count)
        self.left = rows(count)
        #: Every product against the target, and the unitary last.
        self.products = rows(count + 1)


class _Layout:
    """The views and indices of one call on the rows a stack evaluates.

    Each array is a leading slice of its workspace array, rotation- or
    slot-major, ``(·, b, dim, dim)`` for ``b`` rows.  Chain step ``t``
    multiplies ``(E_t, S_{K-1-t})`` by ``(P_t, E_{K-1-t})`` into
    ``(P_{t+1}, S_{K-2-t})``: its operands lie in the embeds and region
    ``t``, its output in region ``t + 1``, so their extents are disjoint.
    The last step writes ``U = E_{K-1} P_{K-1}`` into ``products``.
    """

    def __init__(self, ansatz: Ansatz, work: _Workspace) -> None:
        rows = ansatz._rows
        batch, dim = len(rows), ansatz._dim
        count, slots = len(ansatz._rotation_entries), len(ansatz.slots)

        def view(buffer: np.ndarray, length: int) -> np.ndarray:
            return buffer[: length * batch * dim * dim].reshape(length, batch, dim, dim)

        self.batch = batch
        offsets = np.arange(count * batch, dtype=np.intp).reshape(count, batch, 1)
        entries = ansatz._plan_entries[:, rows]
        self.entry_index = np.where(entries < 0, 4 * count * batch, entries + 4 * offsets)
        self.derivative_sources = (ansatz._derivative_sources + 4 * offsets).reshape(-1)
        self.derivative_scales = np.broadcast_to(
            ansatz._derivative_scales, (count, batch, 4)
        ).reshape(-1)
        # One entry of -i/2 P R per rotation entry, then the 0 the
        # embedding reads.
        self.derivative_entries = work.derivative_entries[: 4 * count * batch + 1]
        self.derivative_entries[-1] = 0
        self.derivative_products = self.derivative_entries[:-1]

        chain = self.chain = view(work.chain, 3 * slots)
        self.rotations = chain[:count].reshape(count, batch, dim * dim)
        np.take(ansatz._plan_cnots, rows, axis=1, out=chain[count:slots], mode="clip")
        # The chains' identity ends, S_{K-1} and P_0, open region 0.
        chain[slots : slots + 2] = np.eye(dim)
        self.derivatives = view(work.derivatives, count)
        self.derivative_embeds = self.derivatives.reshape(count, batch, dim * dim)
        self.gathered = view(work.gathered, count)
        self.left = view(work.left, count)
        self.products = view(work.products, count + 1)

        places = ansatz._embed_places
        self.steps = []
        for t in range(slots - 1):
            region = slots + 2 * t
            embed, late = places[t], places[slots - 1 - t]
            lefts = chain[embed : region + 1 : region - embed]
            rights = chain[region + 1 : late - 1 if late else None : late - region - 1]
            self.steps.append((lefts, rights, chain[region + 3 : region + 1 : -1]))
        self.steps.append((chain[places[-1]], chain[3 * slots - 1], self.products[count]))


class AnsatzStack(Ansatz):
    """Same-shape templates evaluated together, one parameter row each.

    ``members`` must agree on their qubit count and CNOT count; only the
    qubits each slot acts on may differ (as between the CNOT placements
    of one LEAP layer).  :meth:`trace_and_gradient` then
    takes ``(B, P)`` parameters, row ``b`` binding ``members[b]``, and each
    row's result is bit-identical to that member's own call.  A template
    may appear in several rows.  ``slots`` and the other template
    accessors describe ``members[0]``.  The stack has a workspace of its
    own shape, never its members'.  :meth:`keep_rows` drops rows.
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

    def keep_rows(self, rows: list[int]) -> None:
        """Evaluate only ``rows`` from now on: increasing positions among
        the rows evaluated now.  :attr:`members` and the parameter rows a
        call takes shrink to match; the plan and the workspace stay, and
        calls write a leading slice of the workspace.
        """
        self.members = tuple(self.members[row] for row in rows)
        self._rows = self._rows[rows]
        self._layout = None


def _template_shape(ansatz: Ansatz) -> tuple[int, int]:
    return ansatz.num_qubits, len(ansatz.placements)


@functools.lru_cache(maxsize=None)
def _embedding_layouts(num_qubits: int) -> np.ndarray:
    """Where a 2x2 gate ``G`` lands in its dense ``I_high (x) G (x) I_low``.

    Returns a ``(num_qubits, dim*dim)`` array; row ``q`` is for a gate on
    qubit ``q``.  Each flattened element of the embedding is the entry of
    ``G`` at that row-major index, or an exact zero where the index is -1
    (an identity factor is 0).  :func:`repro.linalg.embed.embed_unitary`
    multiplies by those identity entries instead, so its zeros may carry
    either sign; every nonzero entry is the same number, and the kernel
    only feeds an embed to BLAS products, whose nonzero sums no zero's
    sign can change.  Cached per qubit count; callers only index it.
    """
    entries = []
    for qubit in range(num_qubits):
        low, high = 2**qubit, 2 ** (num_qubits - 1 - qubit)
        # Embedding row (h1, i, l1) and column (h2, j, l2), in mixed radix.
        h1, i, l1, h2, j, l2 = np.indices((high, 2, low, high, 2, low)).reshape(6, -1)
        entries.append(np.where((l1 == l2) & (h1 == h2), 2 * i + j, -1))
    return np.array(entries, dtype=np.intp).reshape(-1, 4**num_qubits)


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
