"""Tests for the Table-1 benchmark algorithm generators."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.algorithms import (
    adder,
    heisenberg,
    hlf,
    multiplier,
    qaoa_maxcut,
    qft,
    random_hlf,
    random_qaoa,
    spin_evolution,
    SpinModelParams,
    tfim,
    vqe_ansatz,
    xy_model,
)
from repro.circuits import Circuit
from repro.exceptions import CircuitError
from repro.sim import circuit_unitary, ideal_distribution, run_statevector
from tests.helpers import equal_up_to_global_phase


def _dominant_state(circuit: Circuit) -> int:
    state = run_statevector(circuit)
    index = int(np.argmax(np.abs(state) ** 2))
    assert abs(state[index]) ** 2 > 0.999
    return index


def _read_register(index: int, qubits: list[int]) -> int:
    return sum(((index >> q) & 1) << i for i, q in enumerate(qubits))


class TestAdder:
    @pytest.mark.parametrize("nbits", [1, 2])
    def test_classical_addition(self, nbits):
        # adder's qubit roles, LSB first: [cin, a0, b0, a1, b1, ..., cout].
        layout = {
            "a": [1 + 2 * i for i in range(nbits)],
            "b": [2 + 2 * i for i in range(nbits)],
            "cout": [2 * nbits + 1],
        }
        base = adder(nbits)
        for a in range(2**nbits):
            for b in range(2**nbits):
                circuit = Circuit(base.num_qubits)
                for i, q in enumerate(layout["a"]):
                    if (a >> i) & 1:
                        circuit.x(q)
                for i, q in enumerate(layout["b"]):
                    if (b >> i) & 1:
                        circuit.x(q)
                circuit.extend(base.operations)
                index = _dominant_state(circuit)
                total = _read_register(index, layout["b"]) + (
                    _read_register(index, layout["cout"]) << nbits
                )
                assert total == a + b
                assert _read_register(index, layout["a"]) == a

    def test_smallest_adder_is_four_qubits(self):
        assert adder(1).num_qubits == 4

    def test_rejects_zero_bits(self):
        with pytest.raises(CircuitError):
            adder(0)


class TestMultiplier:
    @pytest.mark.parametrize("nbits", [1, 2])
    def test_classical_multiplication(self, nbits):
        # multiplier's registers: a, b, out (2 nbits), then temp.
        layout = {
            "a": list(range(0, nbits)),
            "b": list(range(nbits, 2 * nbits)),
            "out": list(range(2 * nbits, 4 * nbits)),
            "temp": list(range(4 * nbits, 5 * nbits)),
        }
        base = multiplier(nbits)
        for a in range(2**nbits):
            for b in range(2**nbits):
                circuit = Circuit(base.num_qubits)
                for i, q in enumerate(layout["a"]):
                    if (a >> i) & 1:
                        circuit.x(q)
                for i, q in enumerate(layout["b"]):
                    if (b >> i) & 1:
                        circuit.x(q)
                circuit.extend(base.operations)
                index = _dominant_state(circuit)
                assert _read_register(index, layout["out"]) == a * b
                # The temporary register is uncomputed.
                assert _read_register(index, layout["temp"]) == 0

    def test_rejects_zero_bits(self):
        with pytest.raises(CircuitError):
            multiplier(0)


class TestQft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dft_matrix(self, n):
        unitary = circuit_unitary(qft(n))
        dim = 2**n
        omega = np.exp(2j * np.pi / dim)
        dft = np.array(
            [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
        ) / np.sqrt(dim)
        assert np.allclose(unitary, dft, atol=1e-9)

    def test_inverse_qft(self):
        product = circuit_unitary(qft(3)) @ circuit_unitary(qft(3).inverse())
        assert equal_up_to_global_phase(product, np.eye(8), atol=1e-8)

    def test_rejects_zero_qubits(self):
        with pytest.raises(CircuitError):
            qft(0)


class TestHlf:
    def test_rejects_asymmetric(self):
        with pytest.raises(CircuitError):
            hlf(np.array([[0, 1], [0, 0]]))

    def test_rejects_non_binary(self):
        with pytest.raises(CircuitError):
            hlf(np.array([[2]]))

    def test_structure(self):
        adjacency = np.array([[1, 1], [1, 0]])
        circuit = hlf(adjacency)
        names = [op.name for op in circuit.operations]
        assert names.count("h") == 4
        assert names.count("cz") == 1
        assert names.count("s") == 1

    def test_random_instance_runs(self, rng):
        circuit = random_hlf(4, rng=rng)
        probs = ideal_distribution(circuit)
        assert probs.sum() == pytest.approx(1.0)


class TestVariational:
    def test_qaoa_needs_angles(self):
        import networkx as nx

        graph = nx.path_graph(3)
        with pytest.raises(CircuitError):
            qaoa_maxcut(graph, [], [])

    def test_qaoa_structure(self):
        import networkx as nx

        graph = nx.path_graph(3)
        circuit = qaoa_maxcut(graph, [0.4], [0.3])
        counts = Counter(op.name for op in circuit)
        assert counts["h"] == 3
        assert counts["rzz"] == 2
        assert counts["rx"] == 3

    def test_random_qaoa_nonzero_entanglement(self, rng):
        circuit = random_qaoa(4, rounds=2, rng=rng)
        assert circuit.cnot_count() > 0

    def test_vqe_param_shape_checked(self):
        with pytest.raises(CircuitError):
            vqe_ansatz(3, layers=2, params=np.zeros((1, 3)))

    def test_vqe_deterministic_with_params(self):
        params = np.zeros((3, 4))
        a = vqe_ansatz(4, layers=2, params=params)
        b = vqe_ansatz(4, layers=2, params=params)
        assert a == b

    def test_vqe_circular_entangler(self):
        circuit = vqe_ansatz(4, layers=1, entangler="circular", rng=0)
        assert circuit.cnot_count() == 4
        with pytest.raises(CircuitError):
            vqe_ansatz(4, entangler="ring-of-fire")


class TestSpinModels:
    def test_zero_steps_is_empty(self):
        assert len(tfim(4, steps=0)) == 0

    def test_tfim_gate_structure(self):
        circuit = tfim(4, steps=1)
        counts = Counter(op.name for op in circuit)
        assert counts["rzz"] == 3
        assert counts["rx"] == 4

    def test_heisenberg_gate_structure(self):
        circuit = heisenberg(3, steps=1)
        counts = Counter(op.name for op in circuit)
        assert counts["rxx"] == 2
        assert counts["ryy"] == 2
        assert counts["rzz"] == 2
        assert counts["rz"] == 3

    def test_xy_gate_structure(self):
        circuit = xy_model(3, steps=2)
        counts = Counter(op.name for op in circuit)
        assert counts["rxx"] == 4
        assert counts["ryy"] == 4
        assert "rzz" not in counts

    def test_trotter_convergence(self):
        # Finer Trotter steps converge to the exact propagator.
        from scipy.linalg import expm

        n, total_time = 3, 0.4
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1, -1]).astype(complex)
        identity = np.eye(2, dtype=complex)

        def kron_chain(ops):
            out = ops[-1]
            for op in reversed(ops[:-1]):
                out = np.kron(op, out)
            return out  # little-endian: first op is lowest qubit

        ham = np.zeros((8, 8), dtype=complex)
        for q in range(n - 1):
            ops = [identity] * n
            ops[q] = z
            ops[q + 1] = z
            ham -= kron_chain(ops)
        for q in range(n):
            ops = [identity] * n
            ops[q] = x
            ham -= kron_chain(ops)
        exact = expm(-1j * ham * total_time)
        errors = []
        for steps in (2, 8, 32):
            circuit = tfim(n, steps=steps, dt=total_time / steps)
            diff = np.linalg.norm(circuit_unitary(circuit) - exact)
            errors.append(diff)
        assert errors[2] < errors[1] < errors[0]

    def test_params_validation(self):
        with pytest.raises(CircuitError):
            SpinModelParams(num_spins=1)
        with pytest.raises(CircuitError):
            SpinModelParams(num_spins=3, dt=0.0)
        with pytest.raises(CircuitError):
            spin_evolution(SpinModelParams(num_spins=3), steps=-1)

