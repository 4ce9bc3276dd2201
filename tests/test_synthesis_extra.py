"""Additional synthesis-engine behaviors: multi-start results, threshold
stopping, and the order of LEAP's pool."""

from __future__ import annotations

import numpy as np

from repro.circuits import random_unitary
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
    target = ansatz.build_circuit(truth).unitary()
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


def test_leap_solutions_sorted(rng):
    target = random_unitary(4, rng)
    solutions = synthesize(target, LeapConfig(max_layers=2, seed=0))
    keys = [(s.cnot_count, s.distance) for s in solutions]
    assert keys == sorted(keys)


def test_leap_pool_never_empty(rng):
    target = random_unitary(4, rng)
    solutions = synthesize(target, LeapConfig(max_layers=1, seed=0))
    # One solution at depth 0, then the layer's best three.
    assert [s.cnot_count for s in solutions] == [0, 1, 1, 1]
