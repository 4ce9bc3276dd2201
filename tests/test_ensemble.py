"""Tests for ensemble output averaging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core import ensemble_distribution
from repro.exceptions import SelectionError
from repro.noise import NoiseModel
from repro.sim import ideal_distribution
from tests.density_oracle import run_density


def _rx_circuit(angle: float) -> Circuit:
    circuit = Circuit(1)
    circuit.rx(angle, 0)
    return circuit


def test_empty_ensemble_rejected():
    with pytest.raises(SelectionError):
        ensemble_distribution([])


def test_single_circuit_is_its_distribution(bell_circuit):
    assert np.allclose(
        ensemble_distribution([bell_circuit]),
        ideal_distribution(bell_circuit),
    )


def test_symmetric_over_under_rotation_averages_out():
    # RX(t +/- d) outputs average close to RX(t)'s output: the Fig. 6
    # mechanism in one dimension.
    target = _rx_circuit(1.0)
    truth = ideal_distribution(target)
    over = _rx_circuit(1.3)
    under = _rx_circuit(0.7)
    averaged = ensemble_distribution([over, under])
    single_error = np.abs(ideal_distribution(over) - truth).sum()
    averaged_error = np.abs(averaged - truth).sum()
    assert averaged_error < single_error


def test_custom_runner_used(bell_circuit):
    noise = NoiseModel.from_noise_level(0.02)
    noisy = ensemble_distribution(
        [bell_circuit], runner=lambda c: run_density(c, noise)
    )
    assert not np.allclose(noisy, ideal_distribution(bell_circuit))
    assert noisy.sum() == pytest.approx(1.0)


def test_normalization(rng):
    from repro.circuits import random_circuit

    circuits = [random_circuit(3, 3, rng=rng) for _ in range(4)]
    out = ensemble_distribution(circuits)
    assert out.sum() == pytest.approx(1.0)
    assert np.all(out >= 0.0)
