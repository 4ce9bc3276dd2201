"""Cross-module integration tests: QUEST + transpiler + noisy simulation.

These exercise the full evaluation path of the paper: approximate with
QUEST, compile to a constrained noisy device, simulate with Pauli noise,
and compare output distributions.
"""

from __future__ import annotations

import pytest

from repro import QuestConfig, run_quest, transpile, tvd
from repro.algorithms import tfim, average_magnetization
from repro.core import ensemble_distribution
from repro.metrics import average_distributions
from repro.noise import NoiseModel, fake_manila
from repro.sim import ideal_distribution
from repro.sim.readout import logical_distribution
from tests.density_oracle import run_density

FAST = QuestConfig(
    seed=3,
    max_samples=3,
    max_layers_per_block=3,
    solutions_per_layer=2,
    instantiation_starts=2,
    max_optimizer_iterations=120,
    block_time_budget=10.0,
    threshold_per_block=0.3,
)


@pytest.fixture(scope="module")
def pipeline_outputs():
    circuit = tfim(3, steps=2)
    ground_truth = ideal_distribution(circuit)
    manila = fake_manila()

    def run_on_manila(circ):
        circ = circ.copy()
        circ.measure_all()
        compiled = transpile(circ, backend=manila, optimization_level=2, rng=0)
        physical = run_density(compiled.circuit, manila.noise)
        return logical_distribution(compiled.circuit, physical)[
            : 2**circuit.num_qubits
        ]

    baseline_noisy = run_on_manila(circuit)
    quest_result = run_quest(circuit, FAST)
    quest_noisy = average_distributions(
        [run_on_manila(c) for c in quest_result.circuits]
    )
    return ground_truth, baseline_noisy, quest_noisy, quest_result


def test_noisy_baseline_has_error(pipeline_outputs):
    ground_truth, baseline_noisy, _, _ = pipeline_outputs
    assert tvd(ground_truth, baseline_noisy) > 0.01


def test_quest_reduces_noisy_error(pipeline_outputs):
    ground_truth, baseline_noisy, quest_noisy, _ = pipeline_outputs
    baseline_error = tvd(ground_truth, baseline_noisy)
    quest_error = tvd(ground_truth, quest_noisy)
    # The headline claim: fewer CNOTs -> less accumulated noise.
    assert quest_error < baseline_error


def test_quest_reduces_cnots_after_transpile(pipeline_outputs):
    _, _, _, quest_result = pipeline_outputs
    manila = fake_manila()
    baseline_cnots = transpile(
        quest_result.baseline, backend=manila, optimization_level=2, rng=0
    ).cnot_count
    quest_cnots = min(
        transpile(c, backend=manila, optimization_level=2, rng=0).cnot_count
        for c in quest_result.circuits
    )
    assert quest_cnots < baseline_cnots


def test_magnetization_tracks_ground_truth(pipeline_outputs):
    ground_truth, baseline_noisy, quest_noisy, _ = pipeline_outputs
    n = 3
    truth_mag = average_magnetization(ground_truth, n)
    quest_mag = average_magnetization(quest_noisy, n)
    baseline_mag = average_magnetization(baseline_noisy, n)
    assert abs(quest_mag - truth_mag) <= abs(baseline_mag - truth_mag) + 0.05


def test_quest_ensemble_ideal_output(pipeline_outputs):
    ground_truth, _, _, quest_result = pipeline_outputs
    ideal_ensemble = ensemble_distribution(quest_result.circuits)
    assert tvd(ground_truth, ideal_ensemble) < 0.15


def test_noise_level_projection():
    # TVD improves monotonically as hardware noise decreases (Fig. 11/14).
    circuit = tfim(3, steps=2)
    ground_truth = ideal_distribution(circuit)
    errors = []
    for level in (0.01, 0.005, 0.001):
        noisy = run_density(circuit, NoiseModel.from_noise_level(level))
        errors.append(tvd(ground_truth, noisy))
    assert errors[0] > errors[1] > errors[2]
