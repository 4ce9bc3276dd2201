"""Tests for gate embedding and tensor application."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import gate_matrix, random_unitary
from repro.exceptions import SimulationError
from repro.linalg import (
    apply_gate_to_matrix,
    apply_gate_to_state,
    apply_gate_to_states,
    embed_unitary,
)
from tests import embed_oracle


def test_one_qubit_embedding_matches_kron(rng):
    gate = random_unitary(2, rng)
    identity = np.eye(2)
    # Qubit 0 is the low-order factor.
    assert np.allclose(embed_unitary(gate, (0,), 2), np.kron(identity, gate))
    assert np.allclose(embed_unitary(gate, (1,), 2), np.kron(gate, identity))


def test_two_qubit_embedding_adjacent(rng):
    gate = random_unitary(4, rng)
    # On qubits (0, 1) of a 2-qubit system the embedding is the gate itself.
    assert np.allclose(embed_unitary(gate, (0, 1), 2), gate)


def test_two_qubit_embedding_reversed_is_swap_conjugation(rng):
    gate = random_unitary(4, rng)
    swap = gate_matrix("swap")
    embedded = embed_unitary(gate, (1, 0), 2)
    assert np.allclose(embedded, swap @ gate @ swap)


def test_three_qubit_embedding_middle(rng):
    gate = random_unitary(2, rng)
    expected = np.kron(np.eye(2), np.kron(gate, np.eye(2)))
    assert np.allclose(embed_unitary(gate, (1,), 3), expected)


def test_apply_state_matches_dense(rng):
    n = 4
    state = random_unitary(2**n, rng)[:, 0]
    gate = random_unitary(4, rng)
    for qubits in [(0, 2), (3, 1), (2, 3)]:
        dense = embed_unitary(gate, qubits, n)
        assert np.allclose(
            apply_gate_to_state(state, gate, qubits, n), dense @ state
        )


def test_apply_matrix_matches_dense(rng):
    n = 3
    matrix = random_unitary(2**n, rng)
    gate = random_unitary(2, rng)
    dense = embed_unitary(gate, (1,), n)
    assert np.allclose(
        apply_gate_to_matrix(matrix, gate, (1,), n), dense @ matrix
    )


def test_apply_preserves_norm(rng):
    state = random_unitary(8, rng)[:, 0]
    gate = random_unitary(4, rng)
    out = apply_gate_to_state(state, gate, (0, 2), 3)
    assert np.isclose(np.linalg.norm(out), 1.0)


def test_duplicate_targets_rejected(rng):
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(SimulationError):
        apply_gate_to_state(state, np.eye(4), (0, 0), 2)


def test_out_of_range_target_rejected():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(SimulationError):
        apply_gate_to_state(state, np.eye(2), (5,), 2)


def test_gate_shape_mismatch_rejected():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(SimulationError):
        apply_gate_to_state(state, np.eye(4), (0,), 2)


def test_embedding_is_unitary(rng):
    gate = random_unitary(4, rng)
    embedded = embed_unitary(gate, (2, 0), 3)
    assert np.allclose(embedded.conj().T @ embedded, np.eye(8), atol=1e-10)


def test_one_qubit_kron_path_matches_apply_on_every_qubit(rng):
    # The one-qubit Kronecker path builds its identities at the call,
    # for any register width; on every qubit of a 4-qubit register it
    # equals the embedding applied to the identity.
    gate = random_unitary(2, rng)
    for qubit in range(4):
        dense = embed_unitary(gate, (qubit,), 4)
        expected = apply_gate_to_matrix(
            np.eye(16, dtype=complex), gate, (qubit,), 4
        )
        assert np.allclose(dense, expected, atol=1e-12)


# ----------------------------------------------------------------------
# Batched application
# ----------------------------------------------------------------------

def test_batched_matches_per_state(rng):
    n = 4
    batch = np.linalg.qr(
        rng.standard_normal((2**n, 7)) + 1j * rng.standard_normal((2**n, 7))
    )[0].T
    gate = random_unitary(4, rng)
    for qubits in [(0, 2), (3, 1), (2, 3), (1, 0)]:
        out = apply_gate_to_states(batch, gate, qubits, n)
        for row in range(batch.shape[0]):
            expected = apply_gate_to_state(batch[row], gate, qubits, n)
            assert np.allclose(out[row], expected, atol=1e-12)


def test_batched_single_row_matches_state(rng):
    state = random_unitary(8, rng)[:, 0]
    gate = random_unitary(2, rng)
    out = apply_gate_to_states(state[None, :], gate, (1,), 3)
    assert np.allclose(out[0], apply_gate_to_state(state, gate, (1,), 3))


def test_batched_input_not_modified(rng):
    batch = random_unitary(4, rng)[:2, :].copy()
    before = batch.copy()
    apply_gate_to_states(batch, gate_matrix("cx"), (0, 1), 2)
    assert np.array_equal(batch, before)


def test_batched_shape_validation(rng):
    gate = random_unitary(2, rng)
    with pytest.raises(SimulationError):
        apply_gate_to_states(np.zeros(4, dtype=complex), gate, (0,), 2)
    with pytest.raises(SimulationError):
        apply_gate_to_states(np.zeros((3, 5), dtype=complex), gate, (0,), 2)
    with pytest.raises(SimulationError):
        apply_gate_to_states(np.zeros((3, 4), dtype=complex), gate, (0, 0), 2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(2, 5),
    batch=st.integers(1, 6),
    gate_arity=st.integers(1, 2),
)
def test_batched_property_matches_per_state(seed, num_qubits, batch, gate_arity):
    """The batched kernel equals row-by-row application for random gates
    and targets — including non-adjacent and reversed qubit tuples."""
    rng = np.random.default_rng(seed)
    gate_arity = min(gate_arity, num_qubits)
    qubits = tuple(
        int(q) for q in rng.choice(num_qubits, size=gate_arity, replace=False)
    )
    gate = random_unitary(2**gate_arity, rng)
    states = rng.standard_normal((batch, 2**num_qubits)) + 1j * rng.standard_normal(
        (batch, 2**num_qubits)
    )
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    out = apply_gate_to_states(states, gate, qubits, num_qubits)
    for row in range(batch):
        expected = apply_gate_to_state(states[row], gate, qubits, num_qubits)
        assert np.allclose(out[row], expected, atol=1e-12)
    # Reversing the qubit tuple must act like reversing it per-state too.
    if gate_arity == 2:
        reversed_out = apply_gate_to_states(
            states, gate, qubits[::-1], num_qubits
        )
        for row in range(batch):
            expected = apply_gate_to_state(
                states[row], gate, qubits[::-1], num_qubits
            )
            assert np.allclose(reversed_out[row], expected, atol=1e-12)


# ----------------------------------------------------------------------
# The plan-cached kernel against the tensordot + moveaxis oracle
# ----------------------------------------------------------------------
_KERNELS = {
    "state": (apply_gate_to_state, embed_oracle.apply_gate_to_state),
    "states": (apply_gate_to_states, embed_oracle.apply_gate_to_states),
    "matrix": (apply_gate_to_matrix, embed_oracle.apply_gate_to_matrix),
}


def _target_tuples(num_qubits: int, arity: int, rng) -> set:
    """Adjacent, reversed, spread-out and random placements."""
    ascending = tuple(range(arity))
    spread = tuple(sorted({0, num_qubits - 1, num_qubits // 2}))[:arity]
    tuples = {ascending, ascending[::-1], tuple(range(num_qubits - arity, num_qubits))}
    if len(spread) == arity:
        tuples |= {spread, spread[::-1]}
    for _ in range(4):
        tuples.add(tuple(int(q) for q in rng.permutation(num_qubits)[:arity]))
    return tuples


def _operands(layout: str, dim: int, rng) -> list:
    """C-ordered and strided operands, with T = 1 and m = 1 included."""
    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if layout == "state":
        return [draw(dim), draw(2 * dim)[::2]]
    if layout == "states":
        return [draw((1, dim)), draw((3, dim)), draw((dim, 3)).T]
    return [draw((dim, 1)), draw((dim, 3)), draw((3, dim)).T]


@pytest.mark.parametrize("num_qubits", range(1, 9))
def test_kernel_matches_tensordot_oracle(num_qubits):
    rng = np.random.default_rng(num_qubits)
    dim = 2**num_qubits
    for arity in range(1, min(3, num_qubits) + 1):
        for qubits in _target_tuples(num_qubits, arity, rng):
            gate = random_unitary(2**arity, rng)
            for layout, (kernel, oracle) in _KERNELS.items():
                for operand in _operands(layout, dim, rng):
                    # A transposed gate is not C-contiguous.
                    for g in (gate, gate.T):
                        before = operand.copy()
                        out = kernel(operand, g, qubits, num_qubits)
                        assert np.array_equal(
                            out, oracle(operand, g, qubits, num_qubits)
                        ), (layout, qubits, operand.shape)
                        assert out.flags.c_contiguous
                        assert out.shape == operand.shape
                        assert np.array_equal(operand, before)


@pytest.mark.parametrize("layout", sorted(_KERNELS))
def test_kernel_error_paths_raise_simulation_error(layout):
    kernel = _KERNELS[layout][0]
    operand = {
        "state": np.zeros(8, dtype=complex),
        "states": np.zeros((2, 8), dtype=complex),
        "matrix": np.zeros((8, 2), dtype=complex),
    }[layout]
    one, two = gate_matrix("h"), gate_matrix("cx")
    bad_calls = [
        (operand, two, (1, 1), 3),  # duplicate target
        (operand, one, (3,), 3),  # out of range
        (operand, one, (-1,), 3),  # negative
        (operand, two, (0,), 3),  # gate wider than its targets
        (operand, one, (0, 1), 3),  # gate narrower than its targets
        (operand, one, (0,), 2),  # operand does not hold 2**n amplitudes
        # A wrong-length 1-D operand, and an extra axis: a "state" of
        # shape (8, 1) used to come back as (8, 1), and one of length 6
        # raised numpy's ValueError.
        (operand.reshape(-1)[:6], one, (0,), 3),
        (operand[..., None], one, (0,), 3),
    ]
    for args in bad_calls:
        with pytest.raises(SimulationError):
            kernel(*args)
    # A rejected placement is not cached: the same key stays rejected,
    # and valid calls still work.
    with pytest.raises(SimulationError):
        kernel(operand, two, (1, 1), 3)
    assert kernel(operand, one, (0,), 3).shape == operand.shape
