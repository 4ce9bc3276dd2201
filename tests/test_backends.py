"""Tests for fake backend descriptors."""

from __future__ import annotations

import itertools

import pytest

from repro.exceptions import NoiseModelError
from repro.noise import (
    Backend,
    fake_manila,
    linear_coupling,
)


def test_linear_coupling_chain():
    assert linear_coupling(4) == ((0, 1), (1, 2), (2, 3))


def test_fake_manila_shape():
    manila = fake_manila()
    assert manila.num_qubits == 5
    assert manila.coupling_map == linear_coupling(5)
    assert not manila.is_fully_connected
    # Calibration hierarchy: CX error an order of magnitude above 1q.
    assert manila.noise.two_qubit_error > 10 * manila.noise.one_qubit_error


def test_ideal_backend_fully_connected():
    backend = Backend("ideal", 4, tuple(itertools.combinations(range(4), 2)))
    assert backend.is_fully_connected


def test_bad_coupling_rejected():
    with pytest.raises(NoiseModelError):
        Backend(name="bad", num_qubits=2, coupling_map=((0, 0),))
    with pytest.raises(NoiseModelError):
        Backend(name="bad", num_qubits=2, coupling_map=((0, 5),))
