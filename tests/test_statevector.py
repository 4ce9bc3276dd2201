"""Tests for the ideal statevector simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, random_circuit
from repro.exceptions import SimulationError
from repro.sim import (
    ideal_distribution,
    probabilities,
    run_statevector,
    zero_state,
)


def test_zero_state():
    state = zero_state(3)
    assert state[0] == 1.0
    assert np.linalg.norm(state) == pytest.approx(1.0)


def test_bell_state(bell_circuit):
    state = run_statevector(bell_circuit)
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1.0 / np.sqrt(2.0)
    assert np.allclose(state, expected)


def test_ghz_distribution(ghz3_circuit):
    probs = ideal_distribution(ghz3_circuit)
    assert probs[0] == pytest.approx(0.5)
    assert probs[7] == pytest.approx(0.5)
    assert probs[1:7].sum() == pytest.approx(0.0, abs=1e-12)


def test_custom_initial_state(bell_circuit):
    # Starting from |11> the Bell circuit produces (|10> - |01>)/sqrt(2)
    # up to signs; just check norm preservation and support.
    initial = np.zeros(4, dtype=complex)
    initial[3] = 1.0
    state = run_statevector(bell_circuit, initial_state=initial)
    assert np.linalg.norm(state) == pytest.approx(1.0)


def test_initial_state_shape_check(bell_circuit):
    with pytest.raises(SimulationError):
        run_statevector(bell_circuit, initial_state=np.zeros(8))


def test_measurements_ignored_in_evolution(bell_circuit):
    bell_circuit.measure_all()
    state = run_statevector(bell_circuit)
    assert np.linalg.norm(state) == pytest.approx(1.0)


def test_probabilities_requires_normalization():
    with pytest.raises(SimulationError):
        probabilities(np.array([1.0, 1.0], dtype=complex))


def test_evolution_preserves_norm(rng):
    circuit = random_circuit(4, 6, rng=rng)
    state = run_statevector(circuit)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def test_superposition_uniform():
    circuit = Circuit(3)
    for q in range(3):
        circuit.h(q)
    probs = ideal_distribution(circuit)
    assert np.allclose(probs, np.full(8, 1.0 / 8.0))
