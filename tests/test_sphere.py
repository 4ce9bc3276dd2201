"""Tests for epsilon-sphere variant sampling."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core.similarity import are_similar
from repro.exceptions import SynthesisError
from repro.linalg import hs_distance
from repro.sim.unitary import circuit_unitary
from repro.synthesis.leap import SynthesisSolution
from repro.synthesis.sphere import sphere_variants
from tests.sphere_oracle import (
    rotation_indices,
    sequential_sphere_variants,
    with_shifted_angles,
)


def _base(angles=None) -> SynthesisSolution:
    """A one-CNOT 2-qubit LEAP solution (10 angles)."""
    if angles is None:
        angles = tuple(np.random.default_rng(4).uniform(-np.pi, np.pi, 10).tolist())
    return SynthesisSolution(2, ((0, 1),), angles, 0.0)


def _assert_built_from_data(variant: SynthesisSolution, unitary: np.ndarray):
    """The variant's matrix is its own circuit's, bit for bit."""
    assert unitary.tobytes() == circuit_unitary(variant.circuit).tobytes()
    assert unitary.tobytes() == variant.unitary().tobytes()


def test_variants_land_in_band():
    base = _base()
    target = base.unitary()
    threshold = 0.2
    variants = sphere_variants(base, target, threshold, count=4, rng=0)
    assert len(variants) >= 2
    for variant, unitary in variants:
        _assert_built_from_data(variant, unitary)
        distance = hs_distance(unitary, target)
        assert variant.distance == distance
        assert distance <= threshold + 1e-9
        assert distance >= 0.05


def test_variants_preserve_structure():
    base = _base()
    variants = sphere_variants(base, base.unitary(), 0.2, count=2, rng=1)
    assert variants
    for variant, unitary in variants:
        _assert_built_from_data(variant, unitary)
        assert variant.num_qubits == base.num_qubits
        assert variant.placements == base.placements
        assert all(type(angle) is float for angle in variant.params)
        assert variant.cnot_count == base.cnot_count
        assert [op.name for op in variant.circuit] == [
            op.name for op in base.circuit
        ]


def test_plus_minus_pairs_are_dissimilar():
    # Variants generated in +v/-v pairs should include mutually
    # dissimilar pairs (the whole point of sphere sampling).
    base = _base()
    target = base.unitary()
    variants = sphere_variants(base, target, 0.25, count=6, rng=2)
    assert len(variants) >= 2
    for variant, unitary in variants:
        _assert_built_from_data(variant, unitary)
    found_dissimilar = False
    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            a, b = variants[i][1], variants[j][1]
            mutual = hs_distance(a, b)
            if not are_similar(mutual, hs_distance(a, target), hs_distance(b, target)):
                found_dissimilar = True
    assert found_dissimilar


def test_no_room_returns_empty():
    # If the base is already essentially on the sphere, nothing is made.
    base = _base()
    other = Circuit(2)
    other.cx(0, 1)
    far_target = other.unitary()
    base_distance = hs_distance(base.unitary(), far_target)
    variants = sphere_variants(
        base, far_target, threshold=base_distance * 1.01, count=4, rng=0
    )
    assert variants == []


def test_threshold_must_be_positive():
    base = _base()
    with pytest.raises(SynthesisError):
        sphere_variants(base, base.unitary(), 0.0)


def test_deterministic_with_seed():
    base = _base()
    target = base.unitary()
    a = sphere_variants(base, target, 0.2, count=2, rng=42)
    b = sphere_variants(base, target, 0.2, count=2, rng=42)
    assert len(a) == len(b) > 0
    for (va, ua), (vb, ub) in zip(a, b):
        assert va == vb
        assert ua.tobytes() == ub.tobytes()


def test_held_base_unitary_gives_the_same_variants():
    base = _base()
    target = base.unitary()
    built = sphere_variants(base, target, 0.2, count=4, rng=5)
    held = sphere_variants(
        base, target, 0.2, count=4, rng=5, unitary=base.unitary()
    )
    assert len(built) == len(held) > 0
    for (va, ua), (vb, ub) in zip(built, held):
        assert va == vb
        assert np.array(va.params).tobytes() == np.array(vb.params).tobytes()
        assert ua.tobytes() == ub.tobytes()


_STRUCTURES = [
    (2, ((0, 1),)),
    (2, ((0, 1), (1, 0), (0, 1))),
    (3, ((0, 1), (1, 2))),
    (3, ((2, 0), (0, 1), (1, 2), (0, 2))),
    (1, ()),
]


def test_probe_matches_the_shifted_circuit_bit_for_bit():
    """A probe builds the structure at ``params + shifts``; the oracle
    rebuilds the base circuit with each angle stored as
    ``op.params[0] + float(shift)``.  Same angles, same matrix."""
    rng = np.random.default_rng(11)
    for num_qubits, placements in _STRUCTURES:
        count = 3 * num_qubits + 4 * len(placements)
        base = SynthesisSolution(
            num_qubits, placements, tuple(rng.uniform(-np.pi, np.pi, count).tolist()), 0.0
        )
        circuit = base.circuit
        indices = rotation_indices(circuit)
        assert len(indices) == count
        for _ in range(6):
            direction = rng.normal(size=count)
            direction /= np.linalg.norm(direction)
            scale = rng.choice([-1.0, 1.0]) * 4.0 ** rng.uniform(-6, 2)
            shifts = scale * direction
            oracle = with_shifted_angles(circuit, indices, shifts)
            expected = circuit_unitary(oracle)
            shifted = tuple((np.asarray(base.params) + shifts).tolist())
            variant = SynthesisSolution(num_qubits, placements, shifted, 0.0)
            probe = variant.unitary()
            assert probe.dtype == expected.dtype
            assert probe.shape == expected.shape
            assert probe.tobytes() == expected.tobytes()
            assert variant.circuit == oracle


def test_variants_match_the_circuit_oracle():
    """From a zero-angle base a variant's angles are its shifts exactly,
    so each variant must be the oracle's shifted circuit and its matrix
    that circuit's unitary, bit for bit."""
    base = _base((0.0,) * 10)
    variants = sphere_variants(base, base.unitary(), 0.2, count=4, rng=3)
    assert variants
    indices = rotation_indices(base.circuit)
    for variant, unitary in variants:
        oracle = with_shifted_angles(base.circuit, indices, variant.params)
        assert variant.circuit == oracle
        assert unitary.tobytes() == circuit_unitary(oracle).tobytes()


def _assert_matches_the_sequential_search(solution, target, threshold, count, seed):
    """Lockstep and sequential searches from equal generators: the same
    variants (angles and distances bit for bit), the same matrix bytes
    and the same final generator state.  Returns the variants."""
    lockstep_rng = np.random.default_rng(seed)
    sequential_rng = np.random.default_rng(seed)
    got = sphere_variants(solution, target, threshold, count=count, rng=lockstep_rng)
    want = sequential_sphere_variants(
        solution, target, threshold, count=count, rng=sequential_rng
    )
    assert len(got) == len(want)
    for (variant, unitary), (expected, expected_unitary) in zip(got, want):
        assert variant == expected
        assert np.array(variant.params).tobytes() == np.array(expected.params).tobytes()
        assert variant.distance.hex() == expected.distance.hex()
        assert unitary.tobytes() == expected_unitary.tobytes()
    assert lockstep_rng.bit_generator.state == sequential_rng.bit_generator.state
    return got


def _three_qubit_base() -> tuple[SynthesisSolution, np.ndarray]:
    """A two-layer 3-qubit solution and a target near it."""
    rng = np.random.default_rng(21)
    base = SynthesisSolution(
        3, ((0, 1), (1, 2)), tuple(rng.uniform(-np.pi, np.pi, 17).tolist()), 0.0
    )
    shift = rng.normal(size=17)
    shifted = np.asarray(base.params) + 0.12 * shift / np.linalg.norm(shift)
    return base, replace(base, params=tuple(shifted.tolist())).unitary()


@pytest.mark.parametrize("count", range(1, 7))
def test_lockstep_search_matches_the_sequential_oracle(count):
    base = _base()
    variants = _assert_matches_the_sequential_search(
        base, base.unitary(), 0.2, count, seed=count
    )
    assert len(variants) == count
    base, target = _three_qubit_base()
    assert 0.0 < hs_distance(base.unitary(), target) < 0.9 * 0.3
    variants = _assert_matches_the_sequential_search(
        base, target, 0.3, count, seed=10 + count
    )
    assert len(variants) == count


def test_lockstep_search_with_no_room_draws_nothing():
    """A base at 0.9 * threshold or beyond gets no variants and leaves
    the generator where it was."""
    base, target = _three_qubit_base()
    threshold = hs_distance(base.unitary(), target) / 0.9
    for count in (1, 4):
        assert _assert_matches_the_sequential_search(
            base, target, threshold, count, seed=5
        ) == []
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert sphere_variants(base, target, threshold, rng=rng) == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("count", [1, 2, 5])
def test_lockstep_search_stops_at_the_attempt_cap(count):
    """HS distances are at most 1, so at threshold 5 the band floor (0.6
    * 5) is out of reach: every search grows 12 probes and fails, and
    both searches run all 4 * count attempts."""
    base = _base()
    assert _assert_matches_the_sequential_search(
        base, base.unitary(), 5.0, count, seed=count
    ) == []
    rng = np.random.default_rng(count)
    sphere_variants(base, base.unitary(), 5.0, count=count, rng=rng)
    reference = np.random.default_rng(count)
    reference.normal(size=(4 * count, len(base.params)))
    assert rng.bit_generator.state == reference.bit_generator.state
