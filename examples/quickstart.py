"""Quickstart: approximate a TFIM evolution circuit with QUEST.

Runs the full pipeline — scan partitioning, LEAP approximate synthesis,
dual-annealing selection — on a 4-spin transverse-field Ising circuit,
then compares the ensemble's ideal output to the ground truth.

Run with: ``python examples/quickstart.py``
"""

from __future__ import annotations

from repro import QuestConfig, ensemble_distribution, run_quest, tvd
from repro.algorithms import tfim
from repro.sim import ideal_distribution


def main() -> None:
    circuit = tfim(num_spins=4, steps=2)
    print(f"input circuit : {circuit.summary()}")

    config = QuestConfig(
        seed=0,
        max_samples=8,
        threshold_per_block=0.15,
        max_layers_per_block=5,
        block_time_budget=20.0,
    )
    result = run_quest(circuit, config)

    print(f"QUEST result  : {result.summary()}")
    print(
        "timings       : partition %.2fs, synthesis %.2fs, annealing %.2fs"
        % (
            result.timings.partition_seconds,
            result.timings.synthesis_seconds,
            result.timings.selection_seconds,
        )
    )
    for index, (circ, bound) in enumerate(
        zip(result.circuits, result.selection.bounds)
    ):
        print(
            f"  approximation {index}: {circ.cnot_count()} CNOTs, "
            f"process-distance bound {bound:.3f}"
        )

    ground_truth = ideal_distribution(result.baseline)
    ensemble = ensemble_distribution(result.circuits)
    print(f"ideal-output TVD vs ground truth: {tvd(ground_truth, ensemble):.4f}")


if __name__ == "__main__":
    main()
