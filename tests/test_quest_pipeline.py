"""End-to-end tests of the QUEST pipeline (kept small for speed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import QuestConfig, ensemble_distribution, run_quest, tvd
from repro.algorithms import tfim
from repro.circuits import Circuit
from repro.core.bounds import total_bound
from repro.exceptions import SelectionError
from repro.linalg import hs_distance
from repro.sim import circuit_unitary, ideal_distribution

#: A deliberately small configuration so the pipeline runs in seconds.
FAST = QuestConfig(
    seed=7,
    max_samples=4,
    max_layers_per_block=3,
    solutions_per_layer=2,
    instantiation_starts=2,
    max_optimizer_iterations=120,
    block_time_budget=10.0,
    threshold_per_block=0.3,
)


@pytest.fixture(scope="module")
def tfim_result():
    return run_quest(tfim(3, steps=2), FAST)


def test_rejects_cnot_free_circuits():
    circuit = Circuit(2)
    circuit.h(0)
    with pytest.raises(SelectionError):
        run_quest(circuit)


def test_produces_approximations(tfim_result):
    assert len(tfim_result.circuits) >= 1
    assert tfim_result.selection.num_selected == len(tfim_result.circuits)


def test_never_worse_than_baseline(tfim_result):
    original = tfim_result.original_cnot_count
    for count in tfim_result.cnot_counts:
        assert count <= original


def test_reduces_cnots(tfim_result):
    assert tfim_result.best_cnot_count < tfim_result.original_cnot_count
    assert tfim_result.cnot_reduction > 0.0


def test_bound_respected_by_selection(tfim_result):
    for choice, reported in zip(
        tfim_result.selection.choices, tfim_result.selection.bounds
    ):
        recomputed = total_bound(
            [
                pool.candidates[int(i)].distance
                for pool, i in zip(tfim_result.pools, choice)
            ]
        )
        assert reported == pytest.approx(recomputed)
        assert reported <= tfim_result.threshold + 1e-9


def test_actual_distance_within_bound(tfim_result):
    baseline_unitary = circuit_unitary(tfim_result.baseline)
    for circuit, bound in zip(
        tfim_result.circuits, tfim_result.selection.bounds
    ):
        actual = hs_distance(circuit_unitary(circuit), baseline_unitary)
        assert actual <= bound + 1e-6


def test_ensemble_output_close_to_ground_truth(tfim_result):
    ground_truth = ideal_distribution(tfim_result.baseline)
    ensemble = ensemble_distribution(tfim_result.circuits)
    assert tvd(ground_truth, ensemble) < 0.15


def test_timings_populated(tfim_result):
    timings = tfim_result.timings
    assert timings.synthesis_seconds > 0.0
    assert timings.total_seconds >= timings.synthesis_seconds


def test_noisy_ensemble_records_timing(tfim_result):
    from repro.noise import NoiseModel

    assert tfim_result.timings.noisy_eval_seconds == 0.0
    noisy = tfim_result.noisy_ensemble(NoiseModel.from_noise_level(0.01))
    assert noisy.shape == (2**tfim_result.baseline.num_qubits,)
    assert noisy.sum() == pytest.approx(1.0)
    first = tfim_result.timings.noisy_eval_seconds
    assert first > 0.0
    # A second evaluation accumulates rather than overwrites.
    tfim_result.noisy_ensemble(NoiseModel.from_noise_level(0.001))
    assert tfim_result.timings.noisy_eval_seconds > first
    # Noisy-eval time is post-pipeline work, not part of the Fig. 12 total.
    assert tfim_result.timings.total_seconds == pytest.approx(
        tfim_result.timings.partition_seconds
        + tfim_result.timings.synthesis_seconds
        + tfim_result.timings.selection_seconds
    )


def test_pools_always_contain_original(tfim_result):
    for pool in tfim_result.pools:
        assert pool.candidates[0].distance == 0.0
        assert np.allclose(
            pool.candidates[0].unitary, pool.original_unitary
        )


def test_measurements_are_stripped():
    circuit = tfim(3, steps=1)
    circuit.measure_all()
    result = run_quest(circuit, FAST)
    for approx in result.circuits:
        assert not approx.has_measurements()


def test_summary_format(tfim_result):
    text = tfim_result.summary()
    assert "approximations" in text
    assert "%" in text


def test_empty_selection_raises_selection_error():
    """Satellite of the resilience PR: an empty ensemble is a typed,

    catchable failure — not a bare ValueError (min of empty list) or a
    silent NaN reduction.
    """
    from repro.core.quest import QuestResult

    empty = QuestResult(original=tfim(3, steps=1), baseline=tfim(3, steps=1))
    with pytest.raises(SelectionError, match="no circuits"):
        empty.best_cnot_count
    with pytest.raises(SelectionError, match="no circuits"):
        empty.cnot_reduction
