"""Tests for Pauli noise models and noisy simulators."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.noise.trajectories as trajectories_module
from repro.algorithms import tfim
from repro.circuits import Circuit, random_circuit
from repro.exceptions import NoiseModelError, SimulationError
from repro.metrics import tvd
from repro.noise import (
    NoiseModel,
    apply_readout_error,
    noisy_distribution,
    pauli_matrix,
    readout_confusion,
    run_trajectories,
)
from repro.noise.model import (
    ONE_QUBIT_PAULIS,
    TWO_QUBIT_PAULIS,
    PauliChannel,
    noise_schedule,
)
from repro.sim import ideal_distribution
from tests.density_oracle import run_density
from tests.trajectory_oracle import scalar_trajectories


def test_pauli_matrix_labels():
    assert np.allclose(pauli_matrix("X"), [[0, 1], [1, 0]])
    zz = pauli_matrix("ZZ")
    assert np.allclose(zz, np.diag([1, -1, -1, 1]))
    with pytest.raises(NoiseModelError):
        pauli_matrix("Q")
    with pytest.raises(NoiseModelError):
        pauli_matrix("")


def test_two_qubit_pauli_enumeration():
    assert len(TWO_QUBIT_PAULIS) == 15
    assert "II" not in TWO_QUBIT_PAULIS
    assert len(ONE_QUBIT_PAULIS) == 3


def test_noise_model_validation():
    with pytest.raises(NoiseModelError):
        NoiseModel(one_qubit_error=-0.1)
    with pytest.raises(NoiseModelError):
        NoiseModel(two_qubit_error=1.5)


def test_from_noise_level_hierarchy():
    model = NoiseModel.from_noise_level(0.01)
    assert model.two_qubit_error == pytest.approx(0.01)
    assert model.one_qubit_error == pytest.approx(0.001)
    assert model.readout_error == pytest.approx(0.01)


def test_channel_terms_sum_to_rate():
    model = NoiseModel(one_qubit_error=0.03, two_qubit_error=0.12)
    circuit = Circuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    (_, _, (one,)), (_, _, (two,)) = noise_schedule(circuit, model)
    assert sum(p for p, _ in one.terms) == pytest.approx(0.03)
    assert len(two.terms) == 15
    assert sum(p for p, _ in two.terms) == pytest.approx(0.12)
    noiseless = noise_schedule(circuit, NoiseModel(0.0, 0.0, 0.0, 0.0))
    assert [channels for _, _, channels in noiseless] == [(), ()]


def _idle(qubit, rate):
    return PauliChannel((qubit,), rate, ONE_QUBIT_PAULIS)


def test_noise_schedule_contract():
    # Every engine reads this schedule, so it pins which channel follows
    # which gate, in order: the gate's own channel (or one per
    # consecutive pair of a wider gate's qubits), then one channel per
    # idle qubit.  Measurements and barriers get no entry.
    circuit = Circuit(4)
    circuit.h(0)
    circuit.cx(1, 2)
    circuit.ccx(0, 1, 3)
    circuit.measure(2)
    circuit.barrier()
    model = NoiseModel(one_qubit_error=0.01, two_qubit_error=0.02,
                       readout_error=0.03, idle_decoherence=0.004)
    schedule = noise_schedule(circuit, model)
    assert [qubits for _, qubits, _ in schedule] == [(0,), (1, 2), (0, 1, 3)]
    for (matrix, _, _), op in zip(schedule, circuit.operations):
        np.testing.assert_array_equal(matrix, op.gate.matrix())
    expected = [
        [PauliChannel((0,), 0.01, ONE_QUBIT_PAULIS),
         _idle(1, 0.004), _idle(2, 0.004), _idle(3, 0.004)],
        [PauliChannel((1, 2), 0.02, TWO_QUBIT_PAULIS),
         _idle(0, 0.004), _idle(3, 0.004)],
        [PauliChannel((0, 1), 0.02, TWO_QUBIT_PAULIS),
         PauliChannel((1, 3), 0.02, TWO_QUBIT_PAULIS),
         _idle(2, 0.004)],
    ]
    assert [list(channels) for _, _, channels in schedule] == expected
    # The rates differ, so each kind of channel is the set at its rate:
    # a rate of 0 removes exactly that kind (an idle rate of 0, every
    # idle channel).
    for name in ("one_qubit_error", "two_qubit_error", "idle_decoherence"):
        rate = getattr(model, name)
        quieter = noise_schedule(circuit, replace(model, **{name: 0.0}))
        assert [list(channels) for _, _, channels in quieter] == [
            [c for c in channels if c.probability != rate] for channels in expected
        ]


def test_noise_schedule_builds_each_gate_matrix_once():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.rx(0.3, 1)
    circuit.h(1)
    circuit.rx(0.3, 0)
    circuit.rx(0.4, 0)
    matrices = [m for m, _, _ in noise_schedule(circuit, NoiseModel())]
    assert matrices[0] is matrices[2]
    assert matrices[1] is matrices[3]
    assert matrices[4] is not matrices[3]


def test_readout_confusion_stochastic():
    confusion = readout_confusion(0.1)
    assert np.allclose(confusion.sum(axis=0), [1.0, 1.0])


def test_apply_readout_error_single_qubit():
    probs = np.array([1.0, 0.0])
    out = apply_readout_error(probs, 1, 0.1)
    assert np.allclose(out, [0.9, 0.1])


def test_apply_readout_error_preserves_normalization(rng):
    probs = rng.random(8)
    probs /= probs.sum()
    out = apply_readout_error(probs, 3, 0.05)
    assert out.sum() == pytest.approx(1.0)


def test_density_noiseless_matches_ideal(rng):
    circuit = random_circuit(3, 5, rng=rng)
    assert np.allclose(
        run_density(circuit, NoiseModel(0.0, 0.0, 0.0, 0.0)),
        ideal_distribution(circuit),
        atol=1e-10,
    )


def test_density_noise_monotonic(rng):
    circuit = random_circuit(3, 5, rng=rng)
    ideal = ideal_distribution(circuit)
    errors = [
        tvd(ideal, run_density(circuit, NoiseModel.from_noise_level(level)))
        for level in (0.001, 0.01, 0.05)
    ]
    assert errors[0] < errors[1] < errors[2]


def test_heavy_noise_approaches_uniform():
    # Many maximally-noisy CNOTs drive the output towards uniform.
    circuit = Circuit(2)
    for _ in range(40):
        circuit.cx(0, 1)
        circuit.cx(1, 0)
    noisy = run_density(circuit, NoiseModel(two_qubit_error=0.5))
    assert tvd(noisy, np.full(4, 0.25)) < 0.02


def test_trajectories_match_density(rng):
    circuit = random_circuit(3, 4, rng=rng)
    model = NoiseModel(one_qubit_error=0.01, two_qubit_error=0.05,
                       readout_error=0.02)
    exact = run_density(circuit, model)
    sampled = run_trajectories(circuit, model, trajectories=3000, rng=rng)
    assert tvd(exact, sampled) < 0.03


def test_batched_and_scalar_engines_agree_exactly(rng):
    # The oracle consumes the same pre-sampled error outcomes one
    # trajectory at a time, so for a fixed seed the two agree to
    # floating-point associativity — not just statistically.
    circuit = random_circuit(3, 5, rng=rng)
    model = NoiseModel(one_qubit_error=0.02, two_qubit_error=0.08,
                       readout_error=0.03, idle_decoherence=0.01)
    batched = run_trajectories(circuit, model, trajectories=150, rng=99)
    scalar = scalar_trajectories(circuit, model, trajectories=150, rng=99)
    assert np.allclose(batched, scalar, atol=1e-12)


def test_batched_trajectories_match_density(rng):
    circuit = random_circuit(3, 4, rng=rng)
    model = NoiseModel(one_qubit_error=0.01, two_qubit_error=0.05,
                       readout_error=0.02)
    exact = run_density(circuit, model)
    sampled = run_trajectories(circuit, model, trajectories=3000, rng=rng)
    assert tvd(exact, sampled) < 0.03


def test_batched_trajectories_wide_gate(rng):
    # ccx is charged one two-qubit channel per consecutive pair in both
    # the density and trajectory engines.
    circuit = Circuit(3)
    circuit.h(0)
    circuit.ccx(0, 1, 2)
    model = NoiseModel(two_qubit_error=0.08, readout_error=0.0)
    exact = run_density(circuit, model)
    sampled = run_trajectories(circuit, model, trajectories=4000, rng=5)
    assert tvd(exact, sampled) < 0.03
    scalar = scalar_trajectories(circuit, model, trajectories=200, rng=5)
    batched = run_trajectories(circuit, model, trajectories=200, rng=5)
    assert np.allclose(scalar, batched, atol=1e-12)


def _count_contractions(monkeypatch) -> list[int]:
    """Record the row count of every batched contraction the sampler makes."""
    rows: list[int] = []
    real = trajectories_module.apply_gate_to_states

    def counting(states, *args):
        rows.append(len(states))
        return real(states, *args)

    monkeypatch.setattr(trajectories_module, "apply_gate_to_states", counting)
    return rows


def test_trajectory_contractions_do_not_grow_with_trajectories(monkeypatch):
    # All trajectories evolve as one batch: a gate is one contraction
    # over every trajectory, and each distinct error sampled at a site
    # one more over the trajectories that drew it.  Evolving trajectory
    # by trajectory would take at least T contractions per gate.
    circuit = tfim(4, steps=1)
    model = NoiseModel(one_qubit_error=0.02, two_qubit_error=0.08,
                       readout_error=0.03, idle_decoherence=0.01)
    schedule = noise_schedule(circuit, model)
    rows = _count_contractions(monkeypatch)
    for trajectories in (10, 1000):
        rows.clear()
        run_trajectories(circuit, NoiseModel(0.0, 0.0, 0.0, 0.0), trajectories, rng=7)
        assert rows == [trajectories] * len(schedule)

    ceiling = len(schedule) + sum(
        len(channel.labels) for _, _, channels in schedule for channel in channels
    )
    for trajectories in (ceiling + 1, 4 * ceiling):
        rows.clear()
        run_trajectories(circuit, model, trajectories, rng=7)
        assert rows[0] == trajectories
        assert len(schedule) < len(rows) <= ceiling < trajectories


def test_trajectories_past_the_batch_cap_evolve_in_slabs(monkeypatch):
    # Past the state cap the pre-sampled outcomes evolve slab by slab:
    # the distribution moves only by float summation order, against one
    # slab and against the one-trajectory-at-a-time oracle.  A cap below
    # one state still evolves one trajectory per slab.
    circuit = random_circuit(4, 4, rng=3)
    model = NoiseModel(one_qubit_error=0.002, two_qubit_error=0.02,
                       readout_error=0.015, idle_decoherence=0.004)
    one_slab = run_trajectories(circuit, model, trajectories=500, rng=11)
    rows = _count_contractions(monkeypatch)
    for cap_rows in (0, 7, 64):
        rows.clear()
        monkeypatch.setattr(
            trajectories_module, "MAX_BATCHED_STATE_BYTES", cap_rows * 16 * 2**4
        )
        slabbed = run_trajectories(circuit, model, trajectories=500, rng=11)
        assert max(rows) == max(cap_rows, 1)
        np.testing.assert_allclose(slabbed, one_slab, atol=1e-12, rtol=0.0)
    oracle = scalar_trajectories(circuit, model, trajectories=500, rng=11)
    np.testing.assert_allclose(slabbed, oracle, atol=1e-12, rtol=0.0)


def test_trajectories_noiseless_exact(rng):
    circuit = random_circuit(3, 4, rng=rng)
    out = run_trajectories(circuit, NoiseModel(0.0, 0.0, 0.0, 0.0), trajectories=3, rng=rng)
    assert np.allclose(out, ideal_distribution(circuit), atol=1e-10)


def test_trajectories_need_positive_count(bell_circuit):
    with pytest.raises(SimulationError):
        run_trajectories(bell_circuit, NoiseModel(), trajectories=0)


def test_noisy_distribution_dispatches(bell_circuit):
    out = noisy_distribution(bell_circuit, NoiseModel.from_noise_level(0.01))
    assert out.shape == (4,)
    assert out.sum() == pytest.approx(1.0)


def test_ccx_charged_as_pairs():
    # A 3-qubit gate under noise should not crash and should add error.
    circuit = Circuit(3)
    circuit.ccx(0, 1, 2)
    out = run_density(circuit, NoiseModel(two_qubit_error=0.05, readout_error=0.0))
    ideal = ideal_distribution(circuit)
    assert tvd(out, ideal) > 0.0


def test_idle_decoherence_adds_error(rng):
    circuit = random_circuit(3, 4, rng=rng)
    quiet = NoiseModel(0.0, 0.0, 0.0, 0.0)
    idle = NoiseModel(0.0, 0.0, 0.0, idle_decoherence=0.01)
    ideal = run_density(circuit, quiet)
    decohered = run_density(circuit, idle)
    assert tvd(ideal, decohered) > 0.0


def test_idle_decoherence_grows_with_depth(rng):
    idle = NoiseModel(0.0, 0.0, 0.0, idle_decoherence=0.02)
    short = Circuit(3)
    short.cx(0, 1)
    long = Circuit(3)
    for _ in range(10):
        long.cx(0, 1)
        long.cx(0, 1)  # identity overall, but idling qubit 2 decoheres
    short_out = run_density(short, idle)
    long_out = run_density(long, idle)
    ideal_short = ideal_distribution(short)
    ideal_long = ideal_distribution(long)
    assert tvd(ideal_long, long_out) > tvd(ideal_short, short_out)


def test_idle_decoherence_in_trajectories(rng):
    circuit = random_circuit(3, 3, rng=rng)
    model = NoiseModel(0.0, 0.0, 0.0, idle_decoherence=0.05)
    exact = run_density(circuit, model)
    sampled = run_trajectories(circuit, model, trajectories=3000, rng=rng)
    assert tvd(exact, sampled) < 0.03
