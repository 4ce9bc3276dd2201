"""Tests for two-qubit local invariants and CNOT-class estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, gate_matrix, random_unitary
from repro.exceptions import ReproError
from repro.linalg import (
    MAGIC,
    decompose_tensor_product,
    estimated_cnot_class,
    is_tensor_product,
    magic_rep,
)


def _dressed(rng, cnots: int) -> np.ndarray:
    """Random local gates around ``cnots`` alternating CNOTs."""
    circuit = Circuit(2)
    placements = [(0, 1), (1, 0), (0, 1)]
    for q in range(2):
        circuit.u3(*rng.uniform(-3, 3, 3), q)
    for i in range(cnots):
        circuit.cx(*placements[i])
        for q in range(2):
            circuit.u3(*rng.uniform(-3, 3, 3), q)
    return circuit.unitary()


def test_magic_basis_is_unitary():
    assert np.allclose(MAGIC.conj().T @ MAGIC, np.eye(4), atol=1e-12)


def test_magic_rep_maps_locals_to_orthogonal(rng):
    a, b = random_unitary(2, rng), random_unitary(2, rng)
    rep = magic_rep(np.kron(b, a))
    assert np.allclose(rep.imag @ rep.real.T, rep.real @ rep.imag.T, atol=1e-8)
    # An SO(4) matrix (up to phase) satisfies M M^T proportional to I.
    product = rep @ rep.T
    assert np.allclose(product, product[0, 0] * np.eye(4), atol=1e-7)






def test_tensor_product_detection(rng):
    a, b = random_unitary(2, rng), random_unitary(2, rng)
    assert is_tensor_product(np.kron(b, a))
    assert not is_tensor_product(gate_matrix("cx"))


def test_tensor_product_split(rng):
    for _ in range(10):
        a, b = random_unitary(2, rng), random_unitary(2, rng)
        u = np.kron(b, a)
        a2, b2, phase = decompose_tensor_product(u)
        assert np.allclose(phase * np.kron(b2, a2), u, atol=1e-8)


def test_tensor_split_rejects_entangling():
    with pytest.raises(ReproError):
        decompose_tensor_product(gate_matrix("cx"))


@pytest.mark.parametrize("cnots", [0, 1, 2])
def test_cnot_class_of_dressed_circuits(rng, cnots):
    for _ in range(5):
        u = _dressed(rng, cnots)
        assert estimated_cnot_class(u) == cnots


def test_cnot_class_named_gates():
    assert estimated_cnot_class(gate_matrix("cx")) == 1
    assert estimated_cnot_class(gate_matrix("cz")) == 1
    assert estimated_cnot_class(gate_matrix("swap")) == 3
    assert estimated_cnot_class(np.eye(4, dtype=complex)) == 0


def test_cnot_class_random_is_three(rng):
    # Haar-random unitaries almost surely need 3 CNOTs.
    classes = [estimated_cnot_class(random_unitary(4, rng)) for _ in range(10)]
    assert all(c == 3 for c in classes)


def test_magic_rep_rejects_bad_input():
    with pytest.raises(ReproError):
        magic_rep(np.eye(2))
