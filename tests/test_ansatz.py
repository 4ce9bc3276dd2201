"""Tests for synthesis templates and their analytic gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import random_unitary
from repro.exceptions import SynthesisError
from repro.synthesis import (
    DEFAULT_LAYER_ROTATIONS,
    Ansatz,
    LeapConfig,
    Slot,
    all_placements,
    build_leap_ansatz,
    synthesize,
)
from repro.synthesis.instantiate import _cost_and_gradient, instantiate_multi
from tests.ansatz_oracle import SlotSweep


def test_build_structure():
    ansatz = build_leap_ansatz(2, [(0, 1)], layer_rotations=("ry", "rz"))
    # Initial ZYZ on 2 qubits (6 params) + 1 CNOT + 2x2 rotations.
    assert ansatz.num_params == 6 + 4
    assert ansatz.cnot_count == 1


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
    ansatz = build_leap_ansatz(3, [(0, 1), (1, 2)])
    params = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    direct = ansatz.unitary(params)
    via_circuit = ansatz.build_circuit(params).unitary()
    assert np.allclose(direct, via_circuit, atol=1e-10)


def test_gradient_matches_finite_differences(rng):
    ansatz = build_leap_ansatz(2, [(0, 1), (1, 0)])
    target = random_unitary(4, rng)
    params = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    _, grad = _cost_and_gradient(params, ansatz, target.conj(), 4)
    eps = 1e-6
    for k in range(ansatz.num_params):
        plus, minus = params.copy(), params.copy()
        plus[k] += eps
        minus[k] -= eps
        numeric = (
            _cost_and_gradient(plus, ansatz, target.conj(), 4)[0]
            - _cost_and_gradient(minus, ansatz, target.conj(), 4)[0]
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


def _oracle_cases():
    cases = []
    for num_qubits in (1, 2, 3):
        placements = all_placements(num_qubits)
        for layers in range(6) if placements else (0,):
            # Stride 5 is coprime to both placement counts (2 and 6), so
            # the layers cycle through every placement.
            structure = [placements[(5 * i) % len(placements)] for i in range(layers)]
            for rotations in (("rx",), ("ry",), ("rz",), DEFAULT_LAYER_ROTATIONS):
                cases.append((num_qubits, structure, rotations))
    chain = all_placements(3, coupling=[(0, 1), (1, 2)])
    cases.append((3, [chain[i % len(chain)] for i in range(5)], DEFAULT_LAYER_ROTATIONS))
    return cases


@pytest.mark.parametrize("num_qubits, structure, rotations", _oracle_cases())
def test_trace_and_gradient_is_bit_identical_to_slot_sweep(
    num_qubits, structure, rotations
):
    ansatz = build_leap_ansatz(num_qubits, structure, rotations)
    sweep = SlotSweep(ansatz)
    rng = np.random.default_rng(len(structure))
    for scale in (1e-9, 1.0, 1e3):
        target_conj = random_unitary(2**num_qubits, rng).conj()
        params = scale * rng.uniform(-np.pi, np.pi, ansatz.num_params)
        trace, dtraces = ansatz.trace_and_gradient(params, target_conj)
        expected_trace, expected_dtraces = sweep.trace_and_gradient(params, target_conj)
        assert trace == expected_trace
        assert np.array_equal(dtraces, expected_dtraces)
        assert dtraces.tobytes() == expected_dtraces.tobytes()


def test_trace_and_gradient_handles_any_slot_order(rng):
    # Fixed gates other than CNOT, a fixed first slot (so the suffix
    # chain stops short of slot 0) and parameters out of slot order.
    ansatz = Ansatz(
        2,
        [
            Slot("h", (1,), None),
            Slot("rz", (0,), 1),
            Slot("cz", (0, 1), None),
            Slot("rx", (1,), 0),
            Slot("swap", (1, 0), None),
        ],
    )
    target_conj = random_unitary(4, rng).conj()
    params = rng.uniform(-np.pi, np.pi, 2)
    trace, dtraces = ansatz.trace_and_gradient(params, target_conj)
    expected_trace, expected_dtraces = SlotSweep(ansatz).trace_and_gradient(
        params, target_conj
    )
    assert trace == expected_trace
    assert dtraces.tobytes() == expected_dtraces.tobytes()
    # A template without rotations still yields the trace.
    fixed = Ansatz(2, [Slot("cx", (0, 1), None)])
    trace, dtraces = fixed.trace_and_gradient(np.zeros(0), target_conj)
    assert trace == SlotSweep(fixed).trace_and_gradient(np.zeros(0), target_conj)[0]
    assert dtraces.shape == (0,)


def test_instantiate_multi_is_byte_identical_to_slot_sweep(monkeypatch):
    rng = np.random.default_rng(3)
    ansatz = build_leap_ansatz(3, [(0, 1), (1, 2)])
    target = ansatz.unitary(rng.uniform(-np.pi, np.pi, ansatz.num_params))
    kwargs = dict(rng=11, starts=3, maxiter=150, stop_at_cost=1e-4)
    stacked = instantiate_multi(ansatz, target, **kwargs)
    monkeypatch.setattr(
        ansatz, "trace_and_gradient", SlotSweep(ansatz).trace_and_gradient
    )
    swept = instantiate_multi(ansatz, target, **kwargs)
    assert len(stacked) == len(swept) == 3
    for ours, reference in zip(stacked, swept):
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
    target = ansatz.unitary(truth)
    result = instantiate(ansatz, target, rng=rng, starts=2)
    assert result.cost < 1e-8
    assert calls


def test_bad_placement_rejected():
    with pytest.raises(SynthesisError):
        build_leap_ansatz(2, [(1, 1)])
    for placement in [(0, 3), (-1, 0)]:
        with pytest.raises(SynthesisError, match="slot"):
            build_leap_ansatz(3, [placement])


def test_bad_param_indices_rejected():
    with pytest.raises(SynthesisError):
        Ansatz(1, [Slot("ry", (0,), 5)])


@pytest.mark.parametrize(
    "num_qubits, slot",
    [
        (1, Slot("u3", (0,), 0)),
        (2, Slot("rx", (0, 1), 0)),
        (2, Slot("cx", (0, 0), None)),
        (2, Slot("bogus", (0, 1), None)),
        (2, Slot("rz", (0,), None)),
        (2, Slot("cx", (0,), None)),
    ],
)
def test_bad_slots_rejected(num_qubits, slot):
    with pytest.raises(SynthesisError, match="slot 0"):
        Ansatz(num_qubits, [slot])


def test_bad_leap_config_rejected():
    # Both knobs reach Ansatz through LEAP.
    target = random_unitary(4, np.random.default_rng(0))
    for config in (
        LeapConfig(layer_rotations=("u3",), max_layers=1),
        LeapConfig(coupling=[(0, 5)], max_layers=1),
    ):
        with pytest.raises(SynthesisError, match="slot"):
            synthesize(target, config)


def test_all_placements_full_connectivity():
    placements = all_placements(3)
    assert len(placements) == 6
    assert (0, 1) in placements and (1, 0) in placements


def test_all_placements_with_coupling():
    placements = all_placements(3, coupling=[(0, 1)])
    assert sorted(placements) == [(0, 1), (1, 0)]
