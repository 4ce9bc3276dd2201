"""Unit tests for the independent certification layer (`repro.verify`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import heisenberg, qft, tfim
from repro.circuits import Circuit, random_circuit
from repro.core.pool import Candidate, exact_pool
from repro.exceptions import CertificationError, SimulationError, ValidationError
from repro.linalg.embed import apply_gate_to_matrix
from repro.metrics.tolerances import POOL_UNITARY_MATCH_TOL
from repro.partition.blocks import CircuitBlock
from repro.partition.scan import scan_partition
from repro.resilience.validation import validate_pool
from repro.sim import circuit_unitary
from repro.sim import unitary as sim_unitary
from repro.transpile.basis import lower_to_basis
from repro.verify import (
    BlockClaim,
    certify_equivalence,
    circuit_hs_distance,
    claims_from_manifest,
    claims_to_manifest,
    independent_hs_distance,
    stimulus_evidence,
)
from tests import independent_oracle


# ----------------------------------------------------------------------
# Independent primitives
# ----------------------------------------------------------------------
def test_circuit_hs_distance_ignores_measurements(bell_circuit):
    other = random_circuit(2, 3, rng=5)
    measured = bell_circuit.copy()
    measured.measure_all()
    expected = circuit_hs_distance(bell_circuit, other)
    assert circuit_hs_distance(measured, other) == expected
    assert circuit_hs_distance(other, measured) == circuit_hs_distance(
        other, bell_circuit
    )


def _rebuild_cases():
    """Random circuits at 1-4 qubits, plus Trotter/QFT circuits, their
    lowered forms and their 3-qubit partition blocks."""
    cases = [random_circuit(n, 6, rng=seed) for n in (1, 2, 3, 4) for seed in range(3)]
    measured = random_circuit(3, 4, rng=9)
    measured.measure_all()
    cases.append(measured)
    for circuit in (qft(4), tfim(4, steps=2), heisenberg(4, steps=1)):
        lowered = lower_to_basis(circuit)
        cases += [circuit, lowered]
        cases += [block.circuit for block in scan_partition(lowered, 3)]
    return cases


def test_batched_rebuild_matches_per_column_oracle():
    full_width = 0
    for circuit in _rebuild_cases():
        rebuilt = circuit_unitary(circuit.without_measurements())
        expected = independent_oracle.circuit_unitary(circuit)
        assert rebuilt.flags.c_contiguous
        if any(len(op.qubits) == circuit.num_qubits for op in circuit.operations):
            # A gate spanning every qubit meets a single column as a
            # matrix-vector product in the oracle, and as a matrix-matrix
            # product in the builder: BLAS may round the two differently.
            full_width += 1
            assert np.max(np.abs(rebuilt - expected)) <= 1e-14
        else:
            assert np.array_equal(rebuilt, expected)
    assert full_width > 0


def _single_matrix_unitary(circuit):
    """The accumulator without column slabs: every gate contracted into
    the whole ``2^n x 2^n`` matrix at once."""
    num_qubits = circuit.num_qubits
    unitary = np.eye(2**num_qubits, dtype=complex)
    for op in circuit.operations:
        unitary = apply_gate_to_matrix(
            unitary, op.gate.matrix(), op.qubits, num_qubits
        )
    return unitary


@pytest.mark.parametrize("slab_amplitudes", [2**20, 40])
def test_rebuild_is_bit_identical_to_the_accumulator(monkeypatch, slab_amplitudes):
    """``circuit_unitary`` computes the single-matrix products whether
    the identity's columns move in one slab or in several (40
    amplitudes: columns 5 + 3 at three qubits, two-column slabs at
    four)."""
    monkeypatch.setattr(sim_unitary, "_SLAB_AMPLITUDES", slab_amplitudes)
    for circuit in _rebuild_cases():
        stripped = circuit.without_measurements()
        assert np.array_equal(
            circuit_unitary(stripped), _single_matrix_unitary(stripped)
        )


def test_independent_hs_distance_rejects_shape_mismatch():
    with pytest.raises(CertificationError):
        independent_hs_distance(np.eye(2), np.eye(4))


def test_circuit_hs_distance_rejects_width_mismatch():
    with pytest.raises(CertificationError):
        circuit_hs_distance(Circuit(2), Circuit(3))


def test_exact_regime_refuses_circuits_past_the_builder_cap(monkeypatch):
    """The exact regime builds through ``circuit_unitary``, so its width
    cap binds however high ``max_exact_qubits`` is set; the stimulus
    regime builds no unitary."""
    monkeypatch.setattr(sim_unitary, "MAX_UNITARY_QUBITS", 3)
    original = random_circuit(4, 3, rng=1)
    approximate = random_circuit(4, 3, rng=2)
    with pytest.raises(SimulationError, match="refusing"):
        certify_equivalence(original, approximate, budget=1.0, max_exact_qubits=4)
    report = certify_equivalence(
        original, approximate, budget=1.0, max_exact_qubits=3, rng=0
    )
    assert report.regime == "stimulus"


# ----------------------------------------------------------------------
# Claims and manifests
# ----------------------------------------------------------------------
def _sample_claims():
    return [
        BlockClaim(index=0, qubits=(0, 1), op_count=3, epsilon=0.05),
        BlockClaim(index=1, qubits=(1, 2), op_count=2, epsilon=0.0),
    ]


def test_manifest_round_trip():
    claims = _sample_claims()
    manifest = claims_to_manifest(claims, block_qubits=2)
    block_qubits, recovered = claims_from_manifest(manifest)
    assert block_qubits == 2
    assert recovered == claims


def test_manifest_rejects_bad_version():
    manifest = claims_to_manifest(_sample_claims(), block_qubits=2)
    manifest["version"] = 99
    with pytest.raises(CertificationError):
        claims_from_manifest(manifest)


def test_manifest_rejects_tampered_total():
    manifest = claims_to_manifest(_sample_claims(), block_qubits=2)
    manifest["total_epsilon"] = 0.001  # understated sum
    with pytest.raises(CertificationError):
        claims_from_manifest(manifest)


def test_manifest_rejects_missing_fields():
    with pytest.raises(CertificationError):
        claims_from_manifest({"version": 1, "block_qubits": 2})
    with pytest.raises(CertificationError):
        claims_from_manifest([1, 2, 3])


def test_block_claim_validates_itself():
    with pytest.raises(CertificationError):
        BlockClaim(index=0, qubits=(1, 0), op_count=1, epsilon=0.0)
    with pytest.raises(CertificationError):
        BlockClaim(index=0, qubits=(0,), op_count=-1, epsilon=0.0)
    with pytest.raises(CertificationError):
        BlockClaim(index=0, qubits=(0,), op_count=1, epsilon=float("nan"))


# ----------------------------------------------------------------------
# certify_equivalence
# ----------------------------------------------------------------------
def test_identical_circuits_certify_at_zero_budget(ghz3_circuit):
    report = certify_equivalence(ghz3_circuit, ghz3_circuit, budget=0.0)
    assert report.ok
    assert report.regime == "exact"
    # sqrt(1 - |overlap|^2) amplifies float noise to ~1e-8 at zero
    assert report.measured_distance == pytest.approx(0.0, abs=1e-7)
    assert report.first_failed_block is None


def test_distinct_circuits_violate_a_tight_budget(ghz3_circuit):
    other = random_circuit(3, 3, rng=5)
    report = certify_equivalence(ghz3_circuit, other, budget=1e-3)
    assert not report.ok
    assert report.failures


def test_width_mismatch_is_structural(bell_circuit, ghz3_circuit):
    with pytest.raises(CertificationError):
        certify_equivalence(bell_circuit, ghz3_circuit, budget=1.0)


def test_missing_budget_and_claims_is_structural(bell_circuit):
    with pytest.raises(CertificationError):
        certify_equivalence(bell_circuit, bell_circuit)


def test_claims_without_block_qubits_is_structural(bell_circuit):
    with pytest.raises(CertificationError):
        certify_equivalence(
            bell_circuit, bell_circuit, _sample_claims()
        )


def test_claims_that_mismatch_the_partition_are_structural(ghz3_circuit):
    claims = [BlockClaim(index=0, qubits=(0, 1, 2), op_count=3, epsilon=0.5)]
    # GHZ-3 partitions into two 2-qubit blocks at width 2, not one
    # 3-qubit block.
    with pytest.raises(CertificationError):
        certify_equivalence(
            ghz3_circuit, ghz3_circuit, claims, block_qubits=2
        )


def test_stimulus_regime_certifies_honest_pair(ghz3_circuit):
    report = certify_equivalence(
        ghz3_circuit,
        ghz3_circuit,
        budget=0.0,
        max_exact_qubits=1,
        rng=0,
    )
    assert report.ok
    assert report.regime == "stimulus"
    assert report.measured_distance is None
    assert report.stimulus is not None
    assert report.stimulus.distance_bound == pytest.approx(0.0, abs=1e-9)


def test_stimulus_regime_refutes_a_false_claim(ghz3_circuit):
    other = random_circuit(3, 4, rng=11)
    exact = circuit_hs_distance(ghz3_circuit, other)
    assert exact > 0.1  # the pair is far apart
    report = certify_equivalence(
        ghz3_circuit,
        other,
        budget=1e-4,
        max_exact_qubits=1,
        rng=0,
    )
    assert not report.ok


def test_stimulus_bound_is_deterministic(ghz3_circuit):
    other = random_circuit(3, 4, rng=11)
    first = stimulus_evidence(ghz3_circuit, other, rng=42)
    second = stimulus_evidence(ghz3_circuit, other, rng=42)
    assert first == second


def test_report_to_dict_is_json_ready(ghz3_circuit):
    import json

    report = certify_equivalence(
        ghz3_circuit, ghz3_circuit, budget=0.0, max_exact_qubits=1, rng=0
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert payload["regime"] == "stimulus"
    assert payload["stimulus"]["haar_count"] > 0


# ----------------------------------------------------------------------
# Pool validation against the candidates' circuits
# ----------------------------------------------------------------------
def _tampered_pool():
    """A pool whose candidate unitary was replaced by a *different*
    unitary, close enough to pass the unitarity and distance checks."""
    block_circuit = Circuit(2)
    block_circuit.h(0)
    block_circuit.cx(0, 1)
    block_circuit.rz(0.4, 1)
    block = CircuitBlock(index=0, qubits=(0, 1), circuit=block_circuit)
    pool = exact_pool(block)
    honest = pool.candidates[0]
    # A tiny extra rotation: the matrix stays exactly unitary and its
    # distance to the target moves by far less than the health-check
    # tolerance, but it is no longer the unitary of the circuit.
    drift = np.diag(np.exp(1j * np.array([0.0, 5e-8, 5e-8, 1e-7])))
    pool.candidates[0] = Candidate(
        unitary=drift @ honest.unitary,
        distance=honest.distance,
        cnot_count=honest.cnot_count,
        source=honest.source,
    )
    return pool


def test_independent_validation_catches_a_tampered_unitary():
    """Every stored candidate matrix is checked against the unitary
    rebuilt from its circuit."""
    with pytest.raises(ValidationError, match="disagrees with its circuit"):
        validate_pool(_tampered_pool())


def test_independent_validation_accepts_honest_pools():
    block_circuit = Circuit(2)
    block_circuit.h(0)
    block_circuit.cx(0, 1)
    block = CircuitBlock(index=0, qubits=(0, 1), circuit=block_circuit)
    validate_pool(exact_pool(block))


def test_tampering_is_above_the_agreement_tolerance():
    pool = _tampered_pool()
    rebuilt = circuit_unitary(pool.candidates[0].circuit)
    drift = float(np.max(np.abs(rebuilt - pool.candidates[0].unitary)))
    assert drift > POOL_UNITARY_MATCH_TOL
