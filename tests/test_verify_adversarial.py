"""Adversarial certification harness.

Each test plants one deliberate defect in an otherwise-honest QUEST
output — a flipped phase, a nudged rotation angle, a swapped block, a
shifted qubit mapping, an understated error claim — and asserts that
the certifier both *catches* the defect and *localizes* it to the
faulty block.  The honest-run tests close the loop: unmodified pipeline
outputs must certify clean, and enabling certification must not perturb
the selections themselves.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import qft, tfim
from repro.circuits import Circuit, circuit_to_qasm, random_circuit
from repro.core import QuestConfig, run_quest
from repro.metrics.tolerances import CERTIFICATION_SLACK
from repro.verify import (
    BlockClaim,
    certify_equivalence,
    claims_for_choice,
)

def _small_config(**overrides) -> QuestConfig:
    base = dict(
        seed=7,
        max_samples=2,
        max_block_qubits=2,
        threshold_per_block=0.3,
        max_layers_per_block=3,
        solutions_per_layer=2,
        instantiation_starts=1,
        max_optimizer_iterations=80,
        block_time_budget=10.0,
        sphere_variants_per_count=1,
    )
    base.update(overrides)
    return QuestConfig(**base)


@pytest.fixture(scope="module")
def quest_run():
    """One honest TFIM-4 run shared by every adversarial test."""
    result = run_quest(tfim(4, steps=2), _small_config())
    claims = claims_for_choice(result.pools, result.selection.choices[0])
    return result, result.circuits[0], claims


def _spans(claims: list[BlockClaim]) -> list[tuple[int, int]]:
    """(start, stop) op index of each block in the stitched circuit."""
    spans, cursor = [], 0
    for claim in claims:
        spans.append((cursor, cursor + claim.op_count))
        cursor += claim.op_count
    return spans


def _rebuild(circuit: Circuit, ops) -> Circuit:
    rebuilt = Circuit(circuit.num_qubits)
    for op in ops:
        rebuilt.add_gate(op.gate.name, op.qubits, op.gate.params)
    return rebuilt


def _certify(result, stitched, claims):
    return certify_equivalence(
        result.baseline,
        stitched,
        claims,
        block_qubits=2,
    )


def _parameterized_site(ops, spans, *, block: int):
    """Index of the first parameterized op inside the given block."""
    start, stop = spans[block]
    for position in range(start, stop):
        if ops[position].gate.params:
            return position
    raise AssertionError(f"block {block} has no parameterized op")


def _block_with_parameterized_op(ops, spans) -> int:
    for index, (start, stop) in enumerate(spans):
        if any(ops[position].gate.params for position in range(start, stop)):
            return index
    raise AssertionError("no block has a parameterized op")


def _nudge(circuit: Circuit, site: int, delta: float) -> Circuit:
    ops = list(circuit.operations)
    gate = ops[site].gate
    params = (gate.params[0] + delta, *gate.params[1:])
    tampered = _rebuild(circuit, ops[:site])
    tampered.add_gate(gate.name, ops[site].qubits, params)
    for op in ops[site + 1 :]:
        tampered.add_gate(op.gate.name, op.qubits, op.gate.params)
    return tampered


# ----------------------------------------------------------------------
# Defect 1: single-gate phase flip
# ----------------------------------------------------------------------
def test_phase_flip_is_caught_and_localized(quest_run):
    result, stitched, claims = quest_run
    ops = list(stitched.operations)
    spans = _spans(claims)
    block = _block_with_parameterized_op(ops, spans)
    site = _parameterized_site(ops, spans, block=block)

    report = _certify(result, _nudge(stitched, site, math.pi), claims)
    assert not report.ok
    assert report.first_failed_block == block


# ----------------------------------------------------------------------
# Defect 2: perturbed rotation angle
# ----------------------------------------------------------------------
def test_perturbed_angle_is_caught_and_localized(quest_run):
    result, stitched, claims = quest_run
    ops = list(stitched.operations)
    spans = _spans(claims)
    block = _block_with_parameterized_op(ops, spans)
    site = _parameterized_site(ops, spans, block=block)

    # 0.75 rad moves a single-qubit rotation by >= sin(0.375) ~ 0.366 in
    # HS distance — far beyond any claimed epsilon in this run.
    report = _certify(result, _nudge(stitched, site, 0.75), claims)
    assert not report.ok
    assert report.first_failed_block == block
    failed = report.blocks[block]
    assert failed.measured_distance is not None
    assert failed.measured_distance > failed.claimed_epsilon + CERTIFICATION_SLACK


# ----------------------------------------------------------------------
# Defect 3: two adjacent blocks swapped
# ----------------------------------------------------------------------
def test_swapped_blocks_are_caught_and_localized(quest_run):
    result, stitched, claims = quest_run
    ops = list(stitched.operations)
    spans = _spans(claims)
    pair = next(
        index
        for index in range(len(claims) - 1)
        if claims[index].qubits != claims[index + 1].qubits
    )
    (a0, a1), (b0, b1) = spans[pair], spans[pair + 1]
    reordered = ops[:a0] + ops[b0:b1] + ops[a0:a1] + ops[b1:]

    report = _certify(result, _rebuild(stitched, reordered), claims)
    assert not report.ok
    assert report.first_failed_block == pair


# ----------------------------------------------------------------------
# Defect 4: off-by-one qubit mapping
# ----------------------------------------------------------------------
def test_shifted_qubit_mapping_is_caught_and_localized(quest_run):
    result, stitched, claims = quest_run
    ops = list(stitched.operations)
    spans = _spans(claims)
    block = next(
        index
        for index, claim in enumerate(claims)
        if max(claim.qubits) + 1 < stitched.num_qubits
    )
    start, stop = spans[block]
    tampered = _rebuild(stitched, ops[:start])
    for op in ops[start:stop]:
        tampered.add_gate(op.gate.name, tuple(q + 1 for q in op.qubits), op.gate.params)
    for op in ops[stop:]:
        tampered.add_gate(op.gate.name, op.qubits, op.gate.params)

    report = _certify(result, tampered, claims)
    assert not report.ok
    assert report.first_failed_block == block
    # the defect is structural: the block touches a qubit it did not claim
    assert "qubit" in report.blocks[block].reason


# ----------------------------------------------------------------------
# Defect 5: per-block epsilon understated 2x
# ----------------------------------------------------------------------
def test_understated_epsilon_is_caught_and_localized(quest_run):
    result, stitched, claims = quest_run
    block = next(
        index for index, claim in enumerate(claims) if claim.epsilon > 1e-4
    )
    lying = [
        BlockClaim(
            index=claim.index,
            qubits=claim.qubits,
            op_count=claim.op_count,
            epsilon=claim.epsilon / 2 if index == block else claim.epsilon,
        )
        for index, claim in enumerate(claims)
    ]

    report = _certify(result, stitched, lying)
    assert not report.ok
    assert report.first_failed_block == block


# ----------------------------------------------------------------------
# Honest runs certify clean
# ----------------------------------------------------------------------
def test_honest_run_certifies_clean(quest_run):
    result, stitched, claims = quest_run
    report = _certify(result, stitched, claims)
    assert report.ok
    assert report.first_failed_block is None
    assert all(block.ok for block in report.blocks)


@pytest.mark.parametrize(
    "circuit_factory",
    [
        lambda: tfim(4, steps=2),
        lambda: qft(3),
        lambda: random_circuit(4, 4, rng=3),
    ],
    ids=["tfim", "qft", "random"],
)
def test_pipeline_certification_passes_on_honest_outputs(circuit_factory):
    result = run_quest(circuit_factory(), _small_config(certify=True))
    assert result.certified is True
    assert result.certifications
    assert all(report.ok for report in result.certifications)
    assert "CERTIFIED" in result.summary()


def test_certification_does_not_perturb_selections():
    baseline = run_quest(tfim(4, steps=2), _small_config())
    certified = run_quest(tfim(4, steps=2), _small_config(certify=True))
    assert len(baseline.selection.choices) == len(certified.selection.choices)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(baseline.selection.choices, certified.selection.choices)
    )
    assert [circuit_to_qasm(c) for c in baseline.circuits] == [
        circuit_to_qasm(c) for c in certified.circuits
    ]
    assert np.allclose(baseline.selection.bounds, certified.selection.bounds)
    # A run that does not ask for certification does not run it; one
    # that does certifies every kept circuit and times the stage.
    assert baseline.certified is None
    assert baseline.timings.certify_seconds == 0.0
    assert certified.certified is True
    assert len(certified.certifications) == len(certified.circuits)
    assert certified.timings.certify_seconds > 0.0
