"""File-level QASM I/O: the artifact-exchange path of the original repo."""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    adder,
    heisenberg,
    multiplier,
    qft,
    random_hlf,
    random_qaoa,
    tfim,
    vqe_ansatz,
    xy_model,
)
from repro.circuits import circuit_from_qasm, circuit_to_qasm
from repro.sim import circuit_unitary
from repro.transpile import lower_to_basis
from tests.helpers import equal_up_to_global_phase


def _table1_suite() -> dict:
    """One small instance of every Table-1 algorithm, by label."""
    rng = np.random.default_rng(3)
    return {
        "adder_4": adder(1),
        "heisenberg_4": heisenberg(4, steps=2),
        "hlf_4": random_hlf(4, rng=rng),
        "qft_4": qft(4),
        "qaoa_4": random_qaoa(4, rounds=1, rng=rng),
        "multiplier_6": multiplier(1),
        "tfim_4": tfim(4, steps=2),
        "vqe_4": vqe_ansatz(4, layers=2, rng=rng),
        "xy_4": xy_model(4, steps=2),
    }


def test_suite_roundtrips_through_files(tmp_path):
    # Every Table-1 benchmark serializes to disk and parses back intact,
    # mirroring the original artifact's input_qasm_files directory.
    for name, circuit in _table1_suite().items():
        path = tmp_path / f"{name}.qasm"
        path.write_text(circuit_to_qasm(circuit))
        parsed = circuit_from_qasm(path.read_text())
        assert parsed == circuit, name


def test_lowered_suite_roundtrips(tmp_path):
    for name, circuit in _table1_suite().items():
        if circuit.num_qubits > 6:
            continue
        lowered = lower_to_basis(circuit)
        path = tmp_path / f"{name}_lowered.qasm"
        path.write_text(circuit_to_qasm(lowered))
        parsed = circuit_from_qasm(path.read_text())
        assert equal_up_to_global_phase(
            circuit_unitary(parsed), circuit_unitary(circuit), atol=1e-7
        ), name


def test_qasm_float_parameters_exact(tmp_path):
    from repro.circuits import Circuit

    circuit = Circuit(1)
    angle = float(np.nextafter(0.1, 1.0))
    circuit.rz(angle, 0)
    parsed = circuit_from_qasm(circuit_to_qasm(circuit))
    # repr-based emission preserves the parameter bit-exactly.
    assert parsed.operations[0].params[0] == angle
