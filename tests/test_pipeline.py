"""Tests for the end-to-end transpiler pipeline."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.circuits import Circuit, random_circuit
from repro.exceptions import TranspilerError
from repro.noise import Backend, fake_manila
from repro.sim import circuit_unitary, ideal_distribution
from repro.sim.readout import logical_distribution
from repro.transpile import transpile
from tests.helpers import equal_up_to_global_phase


def test_bad_level_rejected(bell_circuit):
    with pytest.raises(TranspilerError):
        transpile(bell_circuit, optimization_level=7)


def test_level_zero_is_basis_translation(bell_circuit):
    result = transpile(bell_circuit, optimization_level=0)
    assert equal_up_to_global_phase(
        circuit_unitary(result.circuit), circuit_unitary(bell_circuit)
    )


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_semantics_preserved_all_levels(rng, level):
    circuit = random_circuit(3, 5, rng=rng)
    result = transpile(circuit, optimization_level=level, rng=0)
    assert equal_up_to_global_phase(
        circuit_unitary(result.circuit), circuit_unitary(circuit), atol=1e-6
    )


def test_optimization_never_increases_cnots(rng):
    for seed in range(5):
        circuit = random_circuit(4, 5, rng=rng)
        low = transpile(circuit, optimization_level=0).cnot_count
        high = transpile(circuit, optimization_level=3, rng=seed).cnot_count
        assert high <= low


def test_cancellation_example():
    circuit = Circuit(2)
    circuit.cx(0, 1)
    circuit.rz(0.4, 0)
    circuit.cx(0, 1)
    result = transpile(circuit, optimization_level=2)
    assert result.cnot_count == 0


def test_backend_too_small_rejected():
    circuit = Circuit(6)
    circuit.cx(0, 5)
    with pytest.raises(TranspilerError):
        transpile(circuit, backend=fake_manila())


def test_fully_connected_backend_skips_routing(rng):
    circuit = random_circuit(4, 4, rng=rng)
    result = transpile(circuit, backend=Backend("ideal", 4, tuple(itertools.combinations(range(4), 2))))
    assert result.swaps_inserted == 0


def test_routed_distribution_matches(rng):
    manila = fake_manila()
    for seed in range(4):
        circuit = random_circuit(5, 4, rng=rng)
        circuit.measure_all()
        result = transpile(circuit, backend=manila, optimization_level=3, rng=seed)
        physical = ideal_distribution(result.circuit.without_measurements())
        logical = logical_distribution(result.circuit, physical)
        original = ideal_distribution(circuit.without_measurements())
        assert np.allclose(logical, original, atol=1e-6)


def test_routed_respects_coupling(rng):
    manila = fake_manila()
    circuit = random_circuit(5, 4, rng=rng)
    result = transpile(circuit, backend=manila, rng=1)
    allowed = set(manila.coupling_map) | {
        (b, a) for a, b in manila.coupling_map
    }
    for op in result.circuit.operations:
        if len(op.qubits) == 2:
            assert op.qubits in allowed


def test_widening_to_backend_size():
    circuit = Circuit(2)
    circuit.cx(0, 1)
    result = transpile(circuit, backend=Backend("ideal", 5, tuple(itertools.combinations(range(5), 2))))
    assert result.circuit.num_qubits == 5
