"""Tensor-network style gate application and dense embedding.

These routines define the library's single source of truth for how a
k-qubit gate acts on amplitudes inside an n-qubit system.  The
statevector and unitary simulators, the trajectory sampler, the
synthesis code and the certifier go through these
functions, and the three ``apply_gate_to_*`` functions share one kernel,
so the little-endian convention is enforced in one place for all of
them.  (The PTM engine contracts Pauli-transfer matrices with its own
``einsum``, and readout confusion acts on probability tensors with
``np.tensordot``: neither applies a gate to amplitudes.)  The kernel
runs the transposes and the single ``np.dot`` of ``np.tensordot`` +
``np.moveaxis`` (so it returns the same bits) from a cached plan,
without their per-call axis bookkeeping, which cost more than the
product on the 8x8 to 64x64 operands of block unitaries.  The same plan,
as flat gathers (:func:`matrix_gathers`), lets the LEAP builder move a
stack of matrices through one stacked product per gate.

Convention: basis index ``k = sum_q b_q * 2**q`` (qubit 0 is the
least-significant bit).  A state of ``n`` qubits reshaped to ``(2,)*n``
has axis ``a`` corresponding to qubit ``n - 1 - a``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.exceptions import SimulationError


def _check_targets(qubits: tuple[int, ...], num_qubits: int) -> None:
    if len(set(qubits)) != len(qubits):
        raise SimulationError(f"duplicate target qubits {qubits}")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise SimulationError(
            f"target qubits {qubits} out of range for {num_qubits} qubits"
        )


@functools.lru_cache(maxsize=4096)
def _plan(
    qubits: tuple[int, ...], num_qubits: int, layout: str
) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Transpose plan for one gate placement on one operand layout.

    The operand is viewed as a tensor with one size-2 axis per qubit
    (qubit ``q`` on axis ``n - 1 - q``), preceded by the batch axis for
    ``"states"`` or followed by the column axis for ``"matrix"``; that
    extra axis has size ``-1`` in the plan's shapes.  The gate index is
    little-endian in ``qubits`` like the state is in qubit numbers (its
    most significant bit acts on ``qubits[-1]``), so the plan brings the
    target axes to the front in reversed ``qubits`` order, leaving the
    rest in place.  The product's leading ``k`` axes are the gate's
    outputs, and the output permutation moves them back.  Both are the
    permutations ``np.tensordot`` and ``np.moveaxis`` derive, which is
    what makes the kernel bit-identical to them.

    Returns ``(gate_dim, in_shape, in_perm, out_shape, out_perm)``.
    Invalid targets raise here, so they are never cached.
    """
    _check_targets(qubits, num_qubits)
    k = len(qubits)
    twos = (2,) * num_qubits
    if layout == "state":
        offset, in_shape = 0, twos
    elif layout == "states":
        offset, in_shape = 1, (-1,) + twos
    else:
        offset, in_shape = 0, twos + (-1,)
    ndim = len(in_shape)
    axes = [offset + num_qubits - 1 - q for q in reversed(qubits)]
    rest = [a for a in range(ndim) if a not in axes]
    out_shape = (2,) * k + tuple(in_shape[a] for a in rest)
    # np.moveaxis(product, range(k), axes), as a permutation.
    out_perm = list(range(k, ndim))
    for dest, src in sorted(zip(axes, range(k))):
        out_perm.insert(dest, src)
    return 2**k, in_shape, tuple(axes + rest), out_shape, tuple(out_perm)


def matrix_gathers(
    qubits: tuple[int, ...], num_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat gathers that run :func:`apply_gate_to_matrix`'s transposes
    on a ``2^n x 2^n`` matrix, from the same plan.

    ``matrix.ravel()[into].reshape(2**k, -1)`` is the operand the kernel
    multiplies the gate into, and ``product.ravel()[back]`` is the
    returned matrix, flattened: the same elements at the same places, so
    callers can gather many matrices, each under its own placement, and
    multiply them as one stack.
    """
    _, in_shape, in_perm, out_shape, out_perm = _plan(
        tuple(qubits), num_qubits, "matrix"
    )
    dim = 2**num_qubits
    cells = np.arange(dim * dim)
    into = cells.reshape(in_shape[:-1] + (dim,)).transpose(in_perm).ravel()
    back = cells.reshape(
        tuple(dim if axis == -1 else axis for axis in out_shape)
    ).transpose(out_perm).ravel()
    return into, back


def _apply(
    operand: np.ndarray,
    gate: np.ndarray,
    qubits: tuple[int, ...],
    num_qubits: int,
    layout: str,
) -> np.ndarray:
    """Shared body of the three ``apply_gate_to_*`` functions."""
    gate_dim, in_shape, in_perm, out_shape, out_perm = _plan(
        tuple(qubits), num_qubits, layout
    )
    if gate.shape != (gate_dim, gate_dim):
        raise SimulationError(
            f"gate shape {gate.shape} does not match {len(qubits)} target qubit(s)"
        )
    # The transposed copy of the operand is a temporary, freed before the
    # output copy is made, as inside np.tensordot: holding it would add
    # an operand-sized array to every call's peak.
    product = np.dot(
        gate, operand.reshape(in_shape).transpose(in_perm).reshape(gate_dim, -1)
    )
    out = product.reshape(out_shape).transpose(out_perm)
    return np.ascontiguousarray(out.reshape(operand.shape))


def apply_gate_to_state(
    state: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` gate to ``qubits`` of a ``(2^n,)`` statevector.

    Returns a new array; the input is not modified.
    """
    if state.shape != (2**num_qubits,):
        raise SimulationError(
            f"state shape {state.shape} is not (2**{num_qubits},)"
        )
    return _apply(state, gate, qubits, num_qubits, "state")


def apply_gate_to_states(
    states: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` gate to every row of a ``(T, 2^n)`` batch.

    The batched analogue of :func:`apply_gate_to_state`: one product
    evolves all ``T`` statevectors at once, which is what makes the
    Monte-Carlo trajectory sampler fast (the whole batch moves through
    each gate in a single contraction instead of ``T`` Python calls).
    Returns a new ``(T, 2^n)`` array; the input is not modified.
    """
    if states.ndim != 2 or states.shape[1] != 2**num_qubits:
        raise SimulationError(
            f"batch shape {states.shape} is not (T, 2**{num_qubits})"
        )
    return _apply(states, gate, qubits, num_qubits, "states")


def apply_gate_to_matrix(
    matrix: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Left-multiply a ``2^n x m`` matrix by the embedded gate.

    Computes ``embed(gate) @ matrix`` without materializing the embedded
    operator.  Used to accumulate circuit unitaries slab by slab.
    """
    if matrix.ndim != 2 or matrix.shape[0] != 2**num_qubits:
        raise SimulationError(
            f"matrix shape {matrix.shape} is not (2**{num_qubits}, m)"
        )
    return _apply(matrix, gate, qubits, num_qubits, "matrix")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D arrays.

    Bit-identical to ``np.kron`` (every element is the same single
    product ``a[i, j] * b[k, l]``) but skips its generic-ndim axis
    bookkeeping, which dominates the synthesis gradient hot loop where
    thousands of tiny embeddings are built per optimizer step.
    """
    rows_a, cols_a = a.shape
    rows_b, cols_b = b.shape
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(rows_a * rows_b, cols_a * cols_b)


def embed_unitary(
    gate: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Return the dense ``2^n x 2^n`` embedding of a k-qubit gate.

    Only used where a dense operator is genuinely needed (the LEAP
    template's fixed CX slots); simulators use the apply functions.
    One-qubit gates take the Kronecker path ``I_high (x) G (x) I_low``,
    whose products the ansatz's embedding layouts reproduce bit for bit;
    it builds its two identities at the call.
    """
    if len(qubits) == 1 and gate.shape == (2, 2):
        q = qubits[0]
        _check_targets(qubits, num_qubits)
        low = np.eye(2**q, dtype=complex)
        high = np.eye(2 ** (num_qubits - 1 - q), dtype=complex)
        return _kron(high, _kron(gate, low))
    dim = 2**num_qubits
    return apply_gate_to_matrix(np.eye(dim, dtype=complex), gate, qubits, num_qubits)
