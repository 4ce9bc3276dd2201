"""Tests for instantiation, the LEAP compiler, and 2-qubit decomposition."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.circuits import Circuit, gate_matrix, random_unitary
from repro.exceptions import SynthesisError
from repro.linalg import hs_distance
from repro.observability import MetricsRegistry, use_metrics
from repro.resilience.validation import validate_solutions
from repro.sim import circuit_unitary
from repro.synthesis import (
    LeapConfig,
    SynthesisSolution,
    build_leap_ansatz,
    decompose_two_qubit,
    instantiate,
    synthesize,
)
from repro.synthesis.instantiate import instantiate_multi


class TestInstantiate:
    def test_recovers_own_circuit(self, rng):
        ansatz = build_leap_ansatz(2, [(0, 1)])
        truth = rng.uniform(-np.pi, np.pi, ansatz.num_params)
        target = ansatz.build_circuit(truth).unitary()
        result = instantiate(ansatz, target, rng=rng, starts=4)
        assert result.cost < 1e-9

    def test_distance_property(self, rng):
        ansatz = build_leap_ansatz(2, [])
        target = random_unitary(4, rng)
        result = instantiate(ansatz, target, rng=rng, starts=2)
        overlap = 1.0 - result.cost
        assert result.distance == pytest.approx(
            np.sqrt(1.0 - overlap**2), abs=1e-12
        )

    def test_warm_start_used(self, rng):
        ansatz = build_leap_ansatz(2, [(0, 1)])
        truth = rng.uniform(-np.pi, np.pi, ansatz.num_params)
        target = ansatz.build_circuit(truth).unitary()
        (result,) = instantiate_multi(
            ansatz, target, rng=rng, starts=1, initial_params=truth
        )
        assert result.cost < 1e-10

    def test_shape_validation(self, rng):
        ansatz = build_leap_ansatz(2, [])
        with pytest.raises(SynthesisError):
            instantiate(ansatz, np.eye(8), rng=rng)
        with pytest.raises(SynthesisError):
            instantiate(ansatz, np.eye(4), rng=rng, starts=0)
        with pytest.raises(SynthesisError):
            instantiate_multi(
                ansatz, np.eye(4, dtype=complex), rng=rng,
                initial_params=np.zeros(ansatz.num_params + 1),
            )


class TestLeap:
    def test_one_qubit_exact(self, rng):
        target = random_unitary(2, rng)
        (solution,) = synthesize(target)
        assert solution.cnot_count == 0
        built = solution.circuit.unitary()
        assert hs_distance(built, target) < 1e-7

    def test_one_qubit_solution_is_the_zyz_template(self, rng):
        target = random_unitary(2, rng)
        (solution,) = synthesize(target)
        assert (solution.num_qubits, solution.placements) == (1, ())
        assert [op.name for op in solution.circuit] == ["rz", "ry", "rz"]
        assert solution.circuit == build_leap_ansatz(1, []).build_circuit(
            solution.params
        )

    def test_solutions_are_lossless_data(self, rng):
        """A solution is its LEAP template and angles: the circuit is the
        template's, and the matrix built from the structure in the stack
        validation returns is that circuit's, bit for bit."""
        target = random_unitary(8, rng)
        config = LeapConfig(
            max_layers=2, seed=2, instantiation_starts=2,
            max_optimizer_iterations=40,
        )
        solutions = synthesize(target, config)
        built = validate_solutions(target, solutions)
        for solution, unitary in zip(solutions, built, strict=True):
            assert all(type(angle) is float for angle in solution.params)
            assert solution.cnot_count == len(solution.placements)
            circuit = build_leap_ansatz(3, solution.placements).build_circuit(
                solution.params
            )
            assert solution.circuit == circuit
            assert circuit.cnot_count() == solution.cnot_count
            assert unitary.tobytes() == circuit_unitary(circuit).tobytes()

    def test_collects_solutions_per_layer(self, rng):
        target = random_unitary(4, rng)
        config = LeapConfig(max_layers=3, seed=1, solutions_per_layer=2)
        cnot_counts = {s.cnot_count for s in synthesize(target, config)}
        assert cnot_counts == {0, 1, 2, 3}

    def test_exact_on_structured_circuit(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        target = circuit_unitary(circuit)
        config = LeapConfig(max_layers=2, seed=0, instantiation_starts=4)
        best = min(synthesize(target, config), key=lambda s: s.distance)
        assert best.distance < 1e-6
        assert best.cnot_count <= 2

    def test_distances_decrease_with_depth(self, rng):
        target = random_unitary(8, rng)
        config = LeapConfig(max_layers=4, seed=2, solutions_per_layer=1)
        registry = MetricsRegistry()
        with use_metrics(registry):
            solutions = synthesize(target, config)
        best_by_layer = {}
        for solution in solutions:
            best_by_layer[solution.cnot_count] = min(
                best_by_layer.get(solution.cnot_count, 1.0), solution.distance
            )
        layers = sorted(best_by_layer)
        # Non-strictly decreasing overall trend: last depth beats depth 0.
        assert best_by_layer[layers[-1]] <= best_by_layer[0] + 1e-9
        counters = registry.snapshot()["counters"]
        assert counters["leap.layers"] == 4
        assert counters["leap.instantiations"] == 1 + 4 * 3

    def test_dimension_must_be_power_of_two(self):
        with pytest.raises(SynthesisError):
            synthesize(np.eye(3))
        with pytest.raises(SynthesisError):
            synthesize(np.eye(1))

    def test_a_structure_is_its_placements(self):
        """The template is fixed, so the search-budget knobs are the whole
        config and (qubits, placements) the whole structure."""
        assert [f.name for f in fields(LeapConfig)] == [
            "max_layers",
            "solutions_per_layer",
            "instantiation_starts",
            "max_optimizer_iterations",
            "seed",
            "target_distance",
        ]
        assert [f.name for f in fields(SynthesisSolution)] == [
            "num_qubits",
            "placements",
            "params",
            "distance",
        ]


class TestTwoQubitDecomposition:
    def test_random_unitaries(self, rng):
        for seed in range(5):
            target = random_unitary(4, rng)
            circuit = decompose_two_qubit(target, rng=seed)
            assert circuit.cnot_count() <= 3
            assert hs_distance(circuit_unitary(circuit), target) < 1e-6

    def test_tensor_product_needs_no_cnots(self, rng):
        target = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        circuit = decompose_two_qubit(target)
        assert circuit.cnot_count() == 0
        assert hs_distance(circuit_unitary(circuit), target) < 1e-7

    @pytest.mark.parametrize(
        "name,expected", [("cx", 1), ("cz", 1), ("swap", 3)]
    )
    def test_named_gates_minimal(self, name, expected):
        circuit = decompose_two_qubit(gate_matrix(name), rng=0)
        assert circuit.cnot_count() == expected

    def test_shape_validation(self):
        with pytest.raises(SynthesisError):
            decompose_two_qubit(np.eye(8))
