"""Tests for synthesis templates and their analytic gradients."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.circuits import random_unitary
from repro.exceptions import SynthesisError
from repro.observability import Record, use_record
from repro.synthesis import Ansatz, LeapConfig, build_leap_ansatz, synthesize
from repro.synthesis.ansatz import AnsatzStack
from repro.synthesis.instantiate import instantiate_multi
from tests.ansatz_oracle import SlotSweep, dense_cost_and_gradient
from tests.instantiate_oracle import cost_and_gradient


def _ordered_pairs(num_qubits: int) -> list[tuple[int, int]]:
    """Every CNOT placement, both orientations."""
    return list(itertools.permutations(range(num_qubits), 2))


def test_build_structure():
    ansatz = build_leap_ansatz(2, [(0, 1)])
    # Initial ZYZ on 2 qubits (6 params) + 1 CNOT + ry, rz on both qubits.
    assert ansatz.num_params == 6 + 4
    assert ansatz.cnot_count == 1
    assert [slot.name for slot in ansatz.slots[6:]] == ["cx", "ry", "rz", "ry", "rz"]


def test_build_circuit_binds_params(rng):
    ansatz = build_leap_ansatz(2, [(0, 1)])
    params = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    circuit = ansatz.build_circuit(params)
    assert circuit.cnot_count() == 1
    rotation_params = [
        op.params[0] for op in circuit.operations if op.params
    ]
    assert rotation_params == pytest.approx(list(params))


def test_build_circuit_checks_length():
    ansatz = build_leap_ansatz(2, [])
    with pytest.raises(SynthesisError):
        ansatz.build_circuit(np.zeros(99))


def test_unitary_matches_circuit(rng):
    # The kernel's template unitary is the bound circuit's: its overlap
    # with that circuit's unitary is the full dimension.
    ansatz = build_leap_ansatz(3, [(0, 1), (1, 2)])
    params = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    via_circuit = ansatz.build_circuit(params).unitary()
    trace, _ = ansatz.trace_and_gradient(params, via_circuit.conj())
    assert trace == pytest.approx(8.0, abs=1e-10)


def test_gradient_matches_finite_differences(rng):
    ansatz = build_leap_ansatz(2, [(0, 1), (1, 0)])
    target = random_unitary(4, rng)
    params = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    _, grad = cost_and_gradient(params, ansatz, target.conj(), 4)
    eps = 1e-6
    for k in range(ansatz.num_params):
        plus, minus = params.copy(), params.copy()
        plus[k] += eps
        minus[k] -= eps
        numeric = (
            cost_and_gradient(plus, ansatz, target.conj(), 4)[0]
            - cost_and_gradient(minus, ansatz, target.conj(), 4)[0]
        ) / (2 * eps)
        assert grad[k] == pytest.approx(numeric, abs=1e-6)


def test_gradient_shapes(rng):
    ansatz = build_leap_ansatz(3, [(0, 2)])
    params = rng.uniform(-1, 1, ansatz.num_params)
    unitary, gradient = SlotSweep(ansatz).unitary_and_gradient(params)
    assert unitary.shape == (8, 8)
    assert gradient.shape == (ansatz.num_params, 8, 8)


def test_trace_and_gradient_matches_full_gradient(rng):
    ansatz = build_leap_ansatz(3, [(0, 1), (1, 2)])
    target = random_unitary(8, rng)
    target_conj = target.conj()
    params = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    unitary, gradient = SlotSweep(ansatz).unitary_and_gradient(params)
    trace, dtraces = ansatz.trace_and_gradient(params, target_conj)
    assert trace == pytest.approx(complex(np.sum(target_conj * unitary)))
    expected = np.sum(target_conj[None, :, :] * gradient, axis=(1, 2))
    assert np.allclose(dtraces, expected, atol=1e-10)


def _rotation_angles(rng, count):
    """Four angle vectors for a template's ``count`` rotations: uniform
    angles, all zero (every rotation the identity, so exact and signed
    zeros reach every product), quarter turns, and uniform angles with
    every other one zero."""
    uniform = rng.uniform(-np.pi, np.pi, count)
    quarter_turns = (np.pi / 2) * rng.integers(-4, 5, count)
    every_other_zero = rng.uniform(-np.pi, np.pi, count)
    every_other_zero[::2] = 0.0
    return [
        tuple(angles.tolist())
        for angles in (uniform, np.zeros(count), quarter_turns, every_other_zero)
    ]


def _oracle_cases():
    rng = np.random.default_rng(2022)
    cases = []
    for num_qubits in (1, 2, 3):
        placements = _ordered_pairs(num_qubits)
        for layers in range(6) if placements else (0,):
            # Stride 5 is coprime to both placement counts (2 and 6), so
            # the layers cycle through every placement.
            structure = [placements[(5 * i) % len(placements)] for i in range(layers)]
            count = 3 * num_qubits + 4 * layers
            for rotations in _rotation_angles(rng, count):
                cases.append((num_qubits, structure, rotations))
    # A chain: every layer on a nearest-neighbour pair.
    chain = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 1)]
    cases.append((3, chain, _rotation_angles(rng, 29)[0]))
    return cases


@pytest.mark.parametrize("num_qubits, structure, rotations", _oracle_cases())
def test_trace_and_gradient_is_bit_identical_to_slot_sweep(
    num_qubits, structure, rotations
):
    ansatz = build_leap_ansatz(num_qubits, structure)
    sweep = SlotSweep(ansatz)
    rng = np.random.default_rng(len(structure))
    for scale in (1e-9, 1.0, 1e3):
        target_conj = random_unitary(2**num_qubits, rng).conj()
        params = scale * np.array(rotations)
        trace, dtraces = ansatz.trace_and_gradient(params, target_conj)
        expected_trace, expected_dtraces = sweep.trace_and_gradient(params, target_conj)
        assert trace == expected_trace
        assert np.array_equal(dtraces, expected_dtraces)
        assert dtraces.tobytes() == expected_dtraces.tobytes()


@pytest.mark.parametrize(
    "num_qubits, structure", [(2, [(0, 1), (1, 0)]), (3, [(0, 1), (1, 2), (0, 2)])]
)
def test_cost_and_gradient_is_bit_identical_to_the_dense_kernel(num_qubits, structure):
    # The first cost path materialized the whole gradient tensor; every
    # L-BFGS step depends on each bit of the cost and gradient, so the
    # optimizer walks the same path on both.
    ansatz = build_leap_ansatz(num_qubits, structure)
    dim = 2**num_qubits
    rng = np.random.default_rng(2022)
    target_conj = random_unitary(dim, rng).conj()
    for _ in range(20):
        params = rng.uniform(-np.pi, np.pi, ansatz.num_params)
        cost, gradient = cost_and_gradient(params, ansatz, target_conj, dim)
        dense_cost, dense_gradient = dense_cost_and_gradient(
            params, ansatz, target_conj, dim
        )
        assert cost == dense_cost
        assert gradient.tobytes() == dense_gradient.tobytes()


def test_stack_rows_are_bit_identical_to_their_members():
    # One LEAP layer: every placement after a shared prefix, each twice.
    rng = np.random.default_rng(9)
    for num_qubits in (2, 3):
        placements = _ordered_pairs(num_qubits)
        prefix = [placements[(5 * i) % len(placements)] for i in range(4)]
        members = [
            build_leap_ansatz(num_qubits, prefix + [placement])
            for placement in placements
            for _ in range(2)
        ]
        stack = AnsatzStack(members)
        target_conj = random_unitary(2**num_qubits, rng).conj()
        params = rng.uniform(-np.pi, np.pi, (len(members), stack.num_params))
        traces, dtraces = stack.trace_and_gradient(params, target_conj)
        assert traces.shape == (len(members),)
        assert dtraces.shape == params.shape
        for member, row, trace, row_dtraces in zip(members, params, traces, dtraces):
            expected_trace, expected_dtraces = SlotSweep(member).trace_and_gradient(
                row, target_conj
            )
            assert complex(trace) == expected_trace
            assert row_dtraces.tobytes() == expected_dtraces.tobytes()
            assert row_dtraces.flags.c_contiguous


def test_instantiate_multi_is_byte_identical_to_slot_sweep(monkeypatch):
    # The lockstep driver looks the kernel up on the class, so the sweep
    # replaces it there and serves every row of every stacked call with
    # the slot-by-slot sweep of that row's own template.
    rng = np.random.default_rng(3)
    ansatze = [build_leap_ansatz(3, [(0, 1), p]) for p in [(0, 1), (0, 2), (1, 2)]]
    angles = rng.uniform(-np.pi, np.pi, ansatze[0].num_params)
    target = ansatze[0].build_circuit(angles).unitary()
    kwargs = dict(rng=11, starts=3, maxiter=150, stop_at_cost=1e-4)
    stacked = instantiate_multi(ansatze, target, **kwargs)
    batch_sizes = []

    def sweep(self, params, target_conj):
        members = getattr(self, "members", (self,))
        batch_sizes.append(len(members))
        rows = [
            SlotSweep(member).trace_and_gradient(row, target_conj)
            for member, row in zip(members, np.atleast_2d(params))
        ]
        traces = np.array([trace for trace, _ in rows])
        dtraces = np.array([row_dtraces for _, row_dtraces in rows])
        if np.ndim(params) == 1:
            return complex(traces[0]), dtraces[0]
        return traces, dtraces

    monkeypatch.setattr(Ansatz, "trace_and_gradient", sweep)
    swept = instantiate_multi(ansatze, target, **kwargs)
    # Not vacuous: the sweep served the stacked calls, nine rows at first.
    assert batch_sizes[0] == 9
    assert [len(fits) for fits in stacked] == [len(fits) for fits in swept] == [3] * 3
    for ours, reference in zip(
        [fit for fits in stacked for fit in fits],
        [fit for fits in swept for fit in fits],
    ):
        assert ours.params.tobytes() == reference.params.tobytes()
        assert ours.cost == reference.cost


def test_instantiate_uses_the_trace_kernel(rng, monkeypatch):
    # The L-BFGS hot loop runs through Ansatz.trace_and_gradient, the
    # only cost/gradient kernel in the package.
    from repro.synthesis.instantiate import instantiate

    assert not hasattr(Ansatz, "unitary_and_gradient")
    calls = []
    kernel = Ansatz.trace_and_gradient

    def counting(self, params, target_conj):
        calls.append(1)
        return kernel(self, params, target_conj)

    monkeypatch.setattr(Ansatz, "trace_and_gradient", counting)
    ansatz = build_leap_ansatz(2, [(0, 1)])
    truth = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    target = ansatz.build_circuit(truth).unitary()
    result = instantiate(ansatz, target, rng=rng, starts=2)
    assert result.cost < 1e-8
    assert calls


def test_bad_placement_rejected():
    with pytest.raises(SynthesisError, match="bad placement"):
        build_leap_ansatz(2, [(1, 1)])
    for placement in [(0, 3), (-1, 0)]:
        with pytest.raises(SynthesisError, match="bad placement"):
            build_leap_ansatz(3, [placement])


@pytest.mark.parametrize(
    "num_qubits, slot",
    [
        (1, (0, 1)),
        (2, (0, 2)),
        (2, (0, 0)),
        (2, (2, 1)),
        (2, (-1, 1)),
        (2, (1, -2)),
    ],
)
def test_bad_slots_rejected(num_qubits, slot):
    """A CNOT slot whose qubits repeat or leave the template is refused,
    whether it comes first or after a good layer."""
    for placements in [(slot,), ((0, 1), slot)]:
        with pytest.raises(SynthesisError, match="bad placement"):
            Ansatz(num_qubits, placements)


def test_bad_leap_config_rejected():
    # A config that cannot run reaches the instantiation it starves.
    target = random_unitary(4, np.random.default_rng(0))
    with pytest.raises(SynthesisError, match="optimization start"):
        synthesize(target, LeapConfig(instantiation_starts=0, max_layers=1))


def test_all_placements_full_connectivity():
    # Each layer tries every qubit pair once: CNOT direction is absorbed
    # by the surrounding rotations.
    target = random_unitary(8, np.random.default_rng(0))
    registry = Record()
    with use_record(registry):
        solutions = synthesize(
            target, LeapConfig(max_layers=1, seed=0, instantiation_starts=1)
        )
    assert {s.placements for s in solutions if s.cnot_count} == {
        ((0, 1),), ((0, 2),), ((1, 2),)
    }
    assert registry.snapshot()["counters"]["leap.instantiations"] == 1 + 3
