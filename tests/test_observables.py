"""Tests for magnetization observables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import average_magnetization
from repro.circuits import Circuit
from repro.exceptions import ReproError
from repro.sim import ideal_distribution


def test_all_up_state():
    probs = np.zeros(8)
    probs[0] = 1.0  # |000>: all spins up.
    assert average_magnetization(probs, 3) == pytest.approx(1.0)


def test_all_down_state():
    probs = np.zeros(8)
    probs[7] = 1.0
    assert average_magnetization(probs, 3) == pytest.approx(-1.0)


def test_single_flip():
    probs = np.zeros(4)
    probs[1] = 1.0  # qubit 0 down, qubit 1 up.
    assert average_magnetization(probs, 2) == pytest.approx(0.0)


def test_uniform_distribution_zero_magnetization():
    probs = np.full(16, 1.0 / 16.0)
    assert average_magnetization(probs, 4) == pytest.approx(0.0)


def test_neel_state():
    # |0101> (little-endian: qubits 0,2 down? index 5 = bits 101 -> q0=1,q2=1).
    probs = np.zeros(16)
    probs[0b0101] = 1.0  # qubits 0 and 2 down, 1 and 3 up.
    assert average_magnetization(probs, 4) == pytest.approx(0.0)


def test_shape_validation():
    with pytest.raises(ReproError):
        average_magnetization(np.zeros(5), 3)


def test_superposition_magnetization():
    circuit = Circuit(2)
    circuit.h(0)
    probs = ideal_distribution(circuit)
    # Qubit 0 contributes 0, qubit 1 contributes +1.
    assert average_magnetization(probs, 2) == pytest.approx(0.5)
