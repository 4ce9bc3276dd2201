"""Tests for epsilon-sphere variant sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core.similarity import unitaries_similar
from repro.exceptions import SynthesisError
from repro.linalg import hs_distance
from repro.sim.unitary import circuit_unitary
from repro.synthesis.ansatz import build_leap_ansatz
from repro.synthesis.sphere import (
    _rotation_indices,
    _shifted_unitary,
    _with_shifted_angles,
    sphere_variants,
)


def _base_circuit() -> Circuit:
    circuit = Circuit(2)
    circuit.ry(0.3, 0)
    circuit.rz(0.2, 1)
    circuit.cx(0, 1)
    circuit.ry(0.5, 0)
    circuit.rz(0.7, 1)
    return circuit


def test_variants_land_in_band():
    circuit = _base_circuit()
    target = circuit.unitary()
    threshold = 0.2
    variants = sphere_variants(circuit, target, threshold, count=4, rng=0)
    assert len(variants) >= 2
    for variant, unitary in variants:
        assert np.array_equal(unitary, variant.unitary())
        distance = hs_distance(variant.unitary(), target)
        assert distance <= threshold + 1e-9
        assert distance >= 0.05


def test_variants_preserve_structure():
    circuit = _base_circuit()
    variants = sphere_variants(circuit, circuit.unitary(), 0.2, count=2, rng=1)
    for variant, unitary in variants:
        assert np.array_equal(unitary, variant.unitary())
        assert variant.cnot_count() == circuit.cnot_count()
        assert [op.name for op in variant] == [op.name for op in circuit]


def test_plus_minus_pairs_are_dissimilar():
    # Variants generated in +v/-v pairs should include mutually
    # dissimilar pairs (the whole point of sphere sampling).
    circuit = _base_circuit()
    target = circuit.unitary()
    variants = sphere_variants(circuit, target, 0.25, count=6, rng=2)
    assert len(variants) >= 2
    for variant, unitary in variants:
        assert np.array_equal(unitary, variant.unitary())
    found_dissimilar = False
    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            if not unitaries_similar(
                variants[i][0].unitary(), variants[j][0].unitary(), target
            ):
                found_dissimilar = True
    assert found_dissimilar


def test_no_room_returns_empty():
    # If the base is already essentially on the sphere, nothing is made.
    circuit = _base_circuit()
    other = Circuit(2)
    other.cx(0, 1)
    far_target = other.unitary()
    base_distance = hs_distance(circuit.unitary(), far_target)
    variants = sphere_variants(
        circuit, far_target, threshold=base_distance * 1.01, count=4, rng=0
    )
    assert variants == []


def test_no_rotations_returns_empty():
    circuit = Circuit(2)
    circuit.cx(0, 1)
    assert sphere_variants(circuit, circuit.unitary(), 0.2, rng=0) == []


def test_threshold_must_be_positive():
    circuit = _base_circuit()
    with pytest.raises(SynthesisError):
        sphere_variants(circuit, circuit.unitary(), 0.0)


def test_deterministic_with_seed():
    circuit = _base_circuit()
    target = circuit.unitary()
    a = sphere_variants(circuit, target, 0.2, count=2, rng=42)
    b = sphere_variants(circuit, target, 0.2, count=2, rng=42)
    assert len(a) == len(b)
    for (va, ua), (vb, ub) in zip(a, b):
        assert np.array_equal(ua, va.unitary())
        assert np.array_equal(ub, vb.unitary())
        assert np.allclose(va.unitary(), vb.unitary())


def test_held_base_unitary_gives_the_same_variants():
    circuit = _base_circuit()
    target = circuit.unitary()
    built = sphere_variants(circuit, target, 0.2, count=4, rng=5)
    held = sphere_variants(
        circuit, target, 0.2, count=4, rng=5, unitary=circuit.unitary()
    )
    assert len(built) == len(held) > 0
    for (va, ua), (vb, ub) in zip(built, held):
        assert list(va) == list(vb)
        assert ua.tobytes() == ub.tobytes()


def _probe_circuits(rng) -> list[Circuit]:
    """LEAP-shaped circuits with random angles, plus one with a barrier
    and fixed one-qubit gates between its rotations."""
    circuits = []
    for num_qubits, placements in [
        (2, [(0, 1)]),
        (2, [(0, 1), (1, 0), (0, 1)]),
        (3, [(0, 1), (1, 2)]),
        (3, [(2, 0), (0, 1), (1, 2), (0, 2)]),
    ]:
        ansatz = build_leap_ansatz(num_qubits, placements)
        circuits.append(
            ansatz.build_circuit(rng.uniform(-np.pi, np.pi, ansatz.num_params))
        )
    mixed = Circuit(3)
    mixed.h(0)
    mixed.rz(0.4, 1)
    mixed.sx(2)
    mixed.barrier()
    mixed.cx(0, 2)
    mixed.s(1)
    mixed.ry(-1.1, 2)
    mixed.barrier()
    mixed.t(0)
    mixed.rx(2.3, 0)
    mixed.cx(1, 0)
    mixed.x(2)
    mixed.rz(-0.7, 2)
    circuits.append(mixed)
    return circuits


def test_probe_matches_the_shifted_circuit_bit_for_bit():
    rng = np.random.default_rng(11)
    for circuit in _probe_circuits(rng):
        all_rotations = _rotation_indices(circuit)
        for indices in (all_rotations, all_rotations[::2]):
            unitary_at = _shifted_unitary(circuit, indices)
            for _ in range(6):
                direction = rng.normal(size=len(indices))
                direction /= np.linalg.norm(direction)
                scale = rng.choice([-1.0, 1.0]) * 4.0 ** rng.uniform(-6, 2)
                shifts = scale * direction
                expected = circuit_unitary(
                    _with_shifted_angles(circuit, indices, shifts)
                )
                probe = unitary_at(shifts)
                assert probe.dtype == expected.dtype
                assert probe.shape == expected.shape
                assert probe.tobytes() == expected.tobytes()
