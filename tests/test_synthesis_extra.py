"""Additional synthesis-engine behaviors: multi-start results, threshold
stopping, and LEAP stopping rules."""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit, random_unitary
from repro.sim import circuit_unitary
from repro.synthesis import (
    LeapConfig,
    build_leap_ansatz,
    synthesize,
)
from repro.synthesis.instantiate import instantiate_multi


def test_multi_returns_one_result_per_start(rng):
    ansatz = build_leap_ansatz(2, [(0, 1)])
    target = random_unitary(4, rng)
    results = instantiate_multi(ansatz, target, rng=rng, starts=3)
    assert len(results) == 3
    costs = [r.cost for r in results]
    assert costs == sorted(costs)


def test_multi_early_exit_on_success(rng):
    # A reachable target lets the first start hit success_cost and stop.
    ansatz = build_leap_ansatz(2, [(0, 1)])
    truth = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    target = ansatz.unitary(truth)
    results = instantiate_multi(
        ansatz,
        target,
        rng=rng,
        starts=5,
        initial_params=truth,
        success_cost=1e-10,
    )
    assert len(results) < 5
    assert results[0].cost <= 1e-10


def test_threshold_stopping_scatters_solutions(rng):
    # With stop_at_cost, secondary starts halt near the threshold instead
    # of converging to the shared minimum.
    ansatz = build_leap_ansatz(2, [(0, 1), (1, 0), (0, 1)])
    target = random_unitary(4, rng)
    stop_cost = 0.02
    results = instantiate_multi(
        ansatz, target, rng=1, starts=4, stop_at_cost=stop_cost
    )
    # The first (full) start should beat the threshold-stopped ones.
    stopped = [r for r in results[1:] if r.cost <= stop_cost * 1.5]
    assert results[0].cost < stop_cost
    assert stopped, "no start stopped near the threshold"


def test_leap_stop_when_exact_ends_early():
    circuit = Circuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    target = circuit_unitary(circuit)
    config = LeapConfig(
        max_layers=6,
        seed=0,
        stop_when_exact=True,
        success_threshold=1e-6,
        instantiation_starts=4,
    )
    report = synthesize(target, config)
    assert report.best.distance < 1e-6
    assert report.layers_explored < 6


def test_leap_solutions_sorted(rng):
    target = random_unitary(4, rng)
    report = synthesize(target, LeapConfig(max_layers=2, seed=0))
    keys = [(s.cnot_count, s.distance) for s in report.solutions]
    assert keys == sorted(keys)


def test_leap_pool_never_empty(rng):
    target = random_unitary(4, rng)
    report = synthesize(target, LeapConfig(max_layers=1, seed=0))
    assert report.solutions
    assert report.best is report.solutions[0] or report.best in report.solutions
