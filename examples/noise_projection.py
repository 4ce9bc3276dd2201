"""Noise projection (Figs. 11/14): how QUEST's advantage evolves as
hardware error rates fall from today's ~1% to a projected 0.1%.

Compares the noisy-output TVD of the Baseline, the Qiskit-like
transpiler, and the QUEST ensemble at three Pauli noise levels.

Run with: ``python examples/noise_projection.py``
"""

from __future__ import annotations

from repro import QuestConfig, run_quest, transpile, tvd
from repro.algorithms import heisenberg
from repro.metrics import average_distributions
from repro.noise import NoiseModel, run_ptm
from repro.sim import ideal_distribution

LEVELS = [0.01, 0.005, 0.001]


def main() -> None:
    circuit = heisenberg(num_spins=4, steps=2)
    truth = ideal_distribution(circuit)
    result = run_quest(
        circuit,
        QuestConfig(seed=5, threshold_per_block=0.2, block_time_budget=15.0),
    )
    print(f"circuit: {circuit.summary()}")
    print(f"QUEST  : {result.summary()}\n")

    # Compare at the same gate granularity: the baseline is the circuit
    # lowered to the {rotation, CX} basis (a raw RZZ counts as one noisy
    # two-qubit event but costs two CNOTs on hardware).
    baseline_circuit = transpile(circuit, optimization_level=0).circuit
    # Level 3 restarts its two-qubit resynthesis from random angles; a
    # fixed rng keeps the table the same from run to run.
    qiskit_circuit = transpile(circuit, optimization_level=3, rng=0).circuit
    quest_circuits = [
        transpile(c, optimization_level=3, rng=0).circuit for c in result.circuits
    ]

    print(f"{'noise':>7} {'baseline':>9} {'qiskit':>9} {'quest':>9}")
    for level in LEVELS:
        model = NoiseModel.from_noise_level(level)
        baseline_tvd = tvd(truth, run_ptm(baseline_circuit, model))
        qiskit_tvd = tvd(truth, run_ptm(qiskit_circuit, model))
        quest_tvd = tvd(
            truth,
            average_distributions(
                [run_ptm(c, model) for c in quest_circuits]
            ),
        )
        print(
            f"{level:>7.3f} {baseline_tvd:>9.4f} {qiskit_tvd:>9.4f} "
            f"{quest_tvd:>9.4f}"
        )


if __name__ == "__main__":
    main()
