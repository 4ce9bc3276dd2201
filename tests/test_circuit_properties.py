"""Property-based tests on circuit algebra (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit
from repro.linalg import hs_distance, is_unitary
from repro.sim import circuit_unitary, run_statevector
from tests.helpers import equal_up_to_global_phase


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4), depth=st.integers(1, 5))
def test_circuit_unitary_is_unitary(seed, n, depth):
    circuit = random_circuit(n, depth, rng=seed)
    assert is_unitary(circuit_unitary(circuit))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 4))
def test_compose_multiplies_unitaries(seed, n):
    gen = np.random.default_rng(seed)
    a = random_circuit(n, 3, rng=gen)
    b = random_circuit(n, 3, rng=gen)
    combined = a.copy()
    combined.extend(b.operations)
    expected = circuit_unitary(b) @ circuit_unitary(a)
    assert np.allclose(circuit_unitary(combined), expected, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4))
def test_inverse_composes_to_identity(seed, n):
    circuit = random_circuit(n, 4, rng=seed)
    identity = circuit.copy()
    identity.extend(circuit.inverse().operations)
    assert equal_up_to_global_phase(
        circuit_unitary(identity), np.eye(2**n), atol=1e-8
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 4))
def test_remap_is_permutation_conjugation(seed, n):
    gen = np.random.default_rng(seed)
    circuit = random_circuit(n, 3, rng=gen)
    permutation = gen.permutation(n)
    mapping = {i: int(permutation[i]) for i in range(n)}
    remapped = circuit.remap(mapping)
    # Remapping preserves gate structure and the spectrum of the unitary.
    # Compare eigenvalues as complex numbers, not angles: an eigenvalue at
    # exactly -1 lands on the angle branch cut, where numerical noise
    # flips np.angle between -pi and +pi (hypothesis found seed=512, n=4).
    original_eigs = np.linalg.eigvals(circuit_unitary(circuit))
    remapped_eigs = np.linalg.eigvals(circuit_unitary(remapped))
    for eig in original_eigs:
        assert np.min(np.abs(remapped_eigs - eig)) < 1e-7
    assert remapped.cnot_count() == circuit.cnot_count()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4))
def test_statevector_matches_unitary_column(seed, n):
    circuit = random_circuit(n, 4, rng=seed)
    assert np.allclose(
        run_statevector(circuit), circuit_unitary(circuit)[:, 0], atol=1e-10
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hs_distance_triangle_inequality(seed):
    from repro.circuits import random_unitary

    gen = np.random.default_rng(seed)
    a, b, c = (random_unitary(4, gen) for _ in range(3))
    # The HS distance is a metric on the projective unitary group.
    assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 4))
def test_depth_bounds_operation_count(seed, n):
    circuit = random_circuit(n, 4, rng=seed)
    assert circuit.depth() <= len(circuit)
    if len(circuit):
        assert circuit.depth() >= len(circuit) / n
