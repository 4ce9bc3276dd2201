"""Tests for fake backend descriptors."""

from __future__ import annotations

import pytest

from repro.exceptions import NoiseModelError
from repro.noise import (
    Backend,
    NoiseModel,
    all_to_all_coupling,
    fake_manila,
    ideal_backend,
    linear_backend,
    linear_coupling,
)


def test_linear_coupling_chain():
    assert linear_coupling(4) == ((0, 1), (1, 2), (2, 3))


def test_all_to_all_coupling_complete():
    edges = all_to_all_coupling(4)
    assert len(edges) == 6


def test_fake_manila_shape():
    manila = fake_manila()
    assert manila.num_qubits == 5
    assert manila.coupling_map == linear_coupling(5)
    assert not manila.is_fully_connected
    # Calibration hierarchy: CX error an order of magnitude above 1q.
    assert manila.noise.two_qubit_error > 10 * manila.noise.one_qubit_error


def test_neighbors():
    manila = fake_manila()
    assert manila.neighbors(0) == (1,)
    assert manila.neighbors(2) == (1, 3)


def test_ideal_backend_fully_connected():
    backend = ideal_backend(4)
    assert backend.is_fully_connected
    assert backend.noise == NoiseModel.noiseless()


def test_linear_backend_custom_noise():
    model = NoiseModel.from_noise_level(0.005)
    backend = linear_backend(6, model)
    assert backend.num_qubits == 6
    assert backend.noise is model


def test_bad_coupling_rejected():
    with pytest.raises(NoiseModelError):
        Backend(name="bad", num_qubits=2, coupling_map=((0, 0),))
    with pytest.raises(NoiseModelError):
        Backend(name="bad", num_qubits=2, coupling_map=((0, 5),))
