"""Tests for observable expectations and the shot protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import average_magnetization
from repro.exceptions import SimulationError
from repro.metrics import tvd
from repro.sim import ideal_distribution
from repro.sim.expectation import (
    DEFAULT_SHOTS,
    diagonal_expectation,
    sampled_distribution,
    z_string_expectation,
)


def test_z_expectation_on_basis_states():
    probs = np.zeros(4)
    probs[0b01] = 1.0  # qubit 0 down
    assert z_string_expectation(probs, (0,)) == pytest.approx(-1.0)
    assert z_string_expectation(probs, (1,)) == pytest.approx(1.0)
    assert z_string_expectation(probs, (0, 1)) == pytest.approx(-1.0)


def test_z_expectation_empty_string_is_one():
    probs = np.full(4, 0.25)
    assert z_string_expectation(probs, ()) == pytest.approx(1.0)


def test_z_expectation_validation():
    with pytest.raises(SimulationError):
        z_string_expectation(np.full(3, 1 / 3), (0,))
    with pytest.raises(SimulationError):
        z_string_expectation(np.full(4, 0.25), (7,))


def test_magnetization_consistency():
    # average_magnetization is the mean of single-qubit Z expectations.
    gen = np.random.default_rng(0)
    probs = gen.random(8)
    probs /= probs.sum()
    mean_z = np.mean([z_string_expectation(probs, (q,)) for q in range(3)])
    assert average_magnetization(probs, 3) == pytest.approx(mean_z)


def test_diagonal_expectation():
    probs = np.array([0.25, 0.75])
    diag = np.array([2.0, -2.0])
    assert diagonal_expectation(probs, diag) == pytest.approx(-1.0)
    with pytest.raises(SimulationError):
        diagonal_expectation(probs, np.zeros(3))


def test_sampled_distribution_converges(bell_circuit):
    exact = ideal_distribution(bell_circuit)
    estimate = sampled_distribution(bell_circuit, shots=DEFAULT_SHOTS, rng=0)
    assert tvd(exact, estimate) < 0.03


def test_sampled_distribution_shot_scaling(ghz3_circuit):
    exact = ideal_distribution(ghz3_circuit)
    coarse = np.mean([
        tvd(exact, sampled_distribution(ghz3_circuit, shots=64, rng=s))
        for s in range(10)
    ])
    fine = np.mean([
        tvd(exact, sampled_distribution(ghz3_circuit, shots=4096, rng=s))
        for s in range(10)
    ])
    assert fine < coarse
