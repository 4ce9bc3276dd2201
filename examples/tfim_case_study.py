"""The paper's case study (Figs. 1/13): TFIM magnetization time evolution
on a noisy 5-qubit linear device, comparing

* the ground truth (ideal simulation),
* the Baseline compiled with the Qiskit-like transpiler, and
* QUEST + transpiler, averaging the selected approximations.

Each timestep is a separate circuit put through the full QUEST pipeline.

Run with: ``python examples/tfim_case_study.py``
"""

from __future__ import annotations

from repro import QuestConfig, run_quest, transpile
from repro.algorithms import average_magnetization, tfim
from repro.metrics import average_distributions
from repro.noise import fake_manila, run_ptm
from repro.sim import ideal_distribution
from repro.sim.readout import logical_distribution

CONFIG = QuestConfig(
    seed=1,
    max_samples=6,
    threshold_per_block=0.15,
    max_layers_per_block=5,
    block_time_budget=15.0,
)
TIMESTEPS = range(1, 5)
NUM_SPINS = 4


def run_on_device(circuit, backend):
    """Compile to the device and return the noisy logical distribution."""
    prepared = circuit.copy()
    prepared.measure_all()
    compiled = transpile(prepared, backend=backend, optimization_level=2)
    physical = run_ptm(compiled.circuit, backend.noise)
    return logical_distribution(compiled.circuit, physical)[
        : 2**circuit.num_qubits
    ]


def main() -> None:
    backend = fake_manila()
    print(f"device: {backend.name} (CX error {backend.noise.two_qubit_error:.1%})")
    print(f"{'step':>4} {'truth':>8} {'qiskit':>8} {'quest':>8} {'cnots':>12}")
    for steps in TIMESTEPS:
        circuit = tfim(NUM_SPINS, steps=steps)
        truth = average_magnetization(ideal_distribution(circuit), NUM_SPINS)
        qiskit_mag = average_magnetization(
            run_on_device(circuit, backend), NUM_SPINS
        )
        result = run_quest(circuit, CONFIG)
        quest_dist = average_distributions(
            [run_on_device(c, backend) for c in result.circuits]
        )
        quest_mag = average_magnetization(quest_dist, NUM_SPINS)
        cnots = f"{result.original_cnot_count}->{sorted(result.cnot_counts)}"
        print(
            f"{steps:>4} {truth:>+8.3f} {qiskit_mag:>+8.3f} "
            f"{quest_mag:>+8.3f} {cnots:>12}"
        )


if __name__ == "__main__":
    main()
