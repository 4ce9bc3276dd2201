"""Full-pipeline selection regression against pinned seed behavior.

The choice vectors below were recorded by running the pre-vectorization
selection engine (scalar objective, Python-loop similarity tables,
odometer exhaustive search) on these exact circuits and configs; the
vectorized engine was then verified byte-identical against that build.
All three instances resolve on the exhaustive path in both builds, so
the selections are fully deterministic — any drift in the padded gather
tables, the einsum similarity construction, the batched scorer, or the
chunked enumeration order shows up here as a changed vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import QuestConfig, run_quest
from repro.algorithms import qft, tfim
from repro.circuits.random_circuits import random_circuit

_FAST = dict(
    seed=7,
    max_samples=4,
    max_block_qubits=2,
    max_layers_per_block=3,
    solutions_per_layer=2,
    instantiation_starts=2,
    max_optimizer_iterations=120,
    block_time_budget=10.0,
    threshold_per_block=0.3,
)

#: (circuit factory, config, expected choices, expected per-choice CNOTs)
_CASES = {
    "tfim": (
        lambda: tfim(4, steps=2),
        QuestConfig(**_FAST, sphere_variants_per_count=0),
        [[1, 1, 1, 1, 1, 1]],
        [0],
    ),
    "qft": (
        lambda: qft(4),
        QuestConfig(**_FAST),
        [[0, 1, 1, 0, 1, 0, 0, 0]],
        [12],
    ),
    "random": (
        lambda: random_circuit(4, depth=10, rng=np.random.default_rng(5)),
        QuestConfig(**_FAST),
        [
            [0, 0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 2, 0, 0, 0, 0, 0, 0],
            [0, 0, 4, 0, 0, 0, 0, 0, 0],
        ],
        [7, 7, 7],
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_selected_choices_unchanged_from_seed(name):
    factory, config, expected_choices, expected_cnots = _CASES[name]
    result = run_quest(factory(), config)
    got = [list(map(int, choice)) for choice in result.selection.choices]
    assert got == expected_choices
    assert list(result.selection.cnot_counts) == expected_cnots


@pytest.mark.parametrize("name", sorted(_CASES))
def test_selection_counters_populated(name):
    factory, config, expected_choices, _ = _CASES[name]
    result = run_quest(factory(), config)
    # All three cases take the exhaustive path: every enumerated point is
    # a batched evaluation, plus one scalar call per selection round to
    # record the chosen point's objective value.
    assert result.batch_evals > 0
    assert result.scalar_evals >= len(expected_choices)
    assert result.objective_evaluations == (
        result.scalar_evals + result.batch_evals
    )
    summary = result.summary()
    assert "selection scored" in summary
    assert str(result.objective_evaluations) in summary
