"""Tests for the analytic one-qubit (ZYZ / U3) decomposition."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import gate_matrix, random_unitary
from repro.circuits.gates import ry_matrix, rz_matrix
from repro.exceptions import ReproError
from repro.linalg import zyz_decompose
from repro.linalg.su2 import is_identity_angles


def zyz_reconstruct(theta, phi, lam, alpha):
    """``e^{i alpha} RZ(phi) RY(theta) RZ(lam)``: the product
    :func:`zyz_decompose` factors a unitary into."""
    return cmath.exp(1j * alpha) * (
        rz_matrix(phi) @ ry_matrix(theta) @ rz_matrix(lam)
    )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_zyz_roundtrip_random(seed):
    u = random_unitary(2, np.random.default_rng(seed))
    theta, phi, lam, alpha = zyz_decompose(u)
    assert np.allclose(zyz_reconstruct(theta, phi, lam, alpha), u, atol=1e-8)


@pytest.mark.parametrize(
    "name", ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"]
)
def test_zyz_roundtrip_named_gates(name):
    u = gate_matrix(name)
    theta, phi, lam, alpha = zyz_decompose(u)
    assert np.allclose(zyz_reconstruct(theta, phi, lam, alpha), u, atol=1e-9)


def test_zyz_diagonal_case():
    u = np.diag([1.0, cmath.exp(0.7j)]).astype(complex)
    theta, phi, lam, alpha = zyz_decompose(u)
    assert theta == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(zyz_reconstruct(theta, phi, lam, alpha), u, atol=1e-9)


def test_zyz_antidiagonal_case():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    theta, phi, lam, alpha = zyz_decompose(u)
    assert theta == pytest.approx(math.pi, abs=1e-9)
    assert np.allclose(zyz_reconstruct(theta, phi, lam, alpha), u, atol=1e-9)


def test_zyz_rejects_non_unitary():
    with pytest.raises(ReproError):
        zyz_decompose(np.ones((2, 2)))
    with pytest.raises(ReproError):
        zyz_decompose(np.eye(4))


def test_is_identity_angles():
    assert is_identity_angles(0.0, 0.0, 0.0)
    assert is_identity_angles(2 * math.pi, 0.3, -0.3)
    assert not is_identity_angles(0.1, 0.0, 0.0)
    assert not is_identity_angles(0.0, 0.2, 0.3)
