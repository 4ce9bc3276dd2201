"""Fig. 14: the TFIM/Heisenberg case study across simulated noise levels
(1 %, 0.5 %, 0.1 %).

Paper shape: QUEST's output distance shrinks as hardware noise drops
(TFIM), and for Heisenberg QUEST stays close to ground truth even at the
1 % level thanks to its huge CNOT reduction.
"""

from __future__ import annotations

from conftest import BENCH_CONFIG, print_table

from repro import run_quest
from repro.algorithms import average_magnetization, heisenberg, tfim
from repro.metrics import average_distributions
from repro.noise import NoiseModel, run_ptm
from repro.sim import ideal_distribution
from repro.transpile import transpile

LEVELS = [0.01, 0.005, 0.001]
STEPS = 3


def _magnetization_vs_noise(builder):
    circuit = builder(4, steps=STEPS)
    truth = average_magnetization(ideal_distribution(circuit), 4)
    result = run_quest(circuit, BENCH_CONFIG)
    quest_circuits = [
        transpile(c, optimization_level=3, rng=0).circuit
        for c in result.circuits
    ]
    rows = []
    for level in LEVELS:
        model = NoiseModel.from_noise_level(level)
        qiskit_mag = average_magnetization(
            run_ptm(
                transpile(result.baseline, optimization_level=3, rng=0).circuit,
                model,
            ),
            4,
        )
        quest_mag = average_magnetization(
            average_distributions(
                [run_ptm(c, model) for c in quest_circuits]
            ),
            4,
        )
        rows.append((level, truth, qiskit_mag, quest_mag))
    return rows


def test_fig14_tfim_noise_levels(benchmark):
    rows = benchmark.pedantic(
        lambda: _magnetization_vs_noise(tfim), rounds=1, iterations=1
    )
    print_table(
        "Fig. 14(a): TFIM-4 magnetization vs noise level",
        ["noise", "ground_truth", "qiskit", "quest+qiskit"],
        [
            [f"{lv:.3f}", f"{t:+.3f}", f"{q:+.3f}", f"{u:+.3f}"]
            for lv, t, q, u in rows
        ],
    )
    errors = [abs(t - u) for _, t, _, u in rows]
    # QUEST's error shrinks (weakly) as the hardware noise decreases.
    assert errors[-1] <= errors[0] + 1e-6
    # And QUEST beats Qiskit wherever noise dominates (>= 0.5%); at the
    # 0.1% projection the residual approximation error of these small
    # circuits can exceed the tiny noise error (see EXPERIMENTS.md).
    for level, t, q, u in rows:
        if level >= 0.005:
            assert abs(t - u) <= abs(t - q) + 1e-9
        else:
            assert abs(t - u) <= abs(t - q) + 0.05


def test_fig14_heisenberg_high_noise(benchmark):
    rows = benchmark.pedantic(
        lambda: _magnetization_vs_noise(heisenberg), rounds=1, iterations=1
    )
    print_table(
        "Fig. 14(b): Heisenberg-4 magnetization vs noise level",
        ["noise", "ground_truth", "qiskit", "quest+qiskit"],
        [
            [f"{lv:.3f}", f"{t:+.3f}", f"{q:+.3f}", f"{u:+.3f}"]
            for lv, t, q, u in rows
        ],
    )
    # Paper: QUEST is close to ground truth even at 1% noise.
    level_1pct = rows[0]
    assert abs(level_1pct[1] - level_1pct[3]) < 0.15
    for level, t, q, u in rows:
        if level >= 0.005:
            assert abs(t - u) <= abs(t - q) + 1e-9
        else:
            assert abs(t - u) <= abs(t - q) + 0.05
