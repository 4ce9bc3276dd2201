"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.observability import Record, use_record


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def counters():
    """Install a fresh ambient metrics registry for the test.

    The registry is the only record of counts; calling the fixture's
    value returns its counters so far.  Threads a test starts do not
    inherit it: they must install a registry of their own.
    """
    registry = Record()
    with use_record(registry):
        yield lambda: registry.snapshot()["counters"]


@pytest.fixture
def bell_circuit() -> Circuit:
    """The 2-qubit Bell-pair preparation circuit."""
    circuit = Circuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def ghz3_circuit() -> Circuit:
    """The 3-qubit GHZ preparation circuit."""
    circuit = Circuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    return circuit


@pytest.fixture
def small_entangled_circuit() -> Circuit:
    """A 3-qubit circuit with rotations and several CNOTs."""
    circuit = Circuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(0.4, 1)
    circuit.cx(1, 2)
    circuit.ry(0.9, 2)
    circuit.cx(0, 1)
    circuit.rx(0.3, 0)
    return circuit
