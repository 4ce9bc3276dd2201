"""Noise substrate: Pauli models, fake backends, noisy simulators.

Three noisy-evaluation engines share one channel structure:

* ``density`` — exact density matrix, practical to ~9 qubits;
* ``ptm`` — exact superoperator (Pauli-transfer-matrix) contraction,
  batched over the ensemble axis, practical to ~12 qubits and an order
  of magnitude faster than both alternatives at evaluation scale;
* ``trajectories`` — Monte-Carlo Pauli trajectories, for anything wider.
"""

from repro.exceptions import SimulationError
from repro.noise.backends import (
    Backend,
    all_to_all_coupling,
    fake_manila,
    ideal_backend,
    linear_backend,
    linear_coupling,
)
from repro.noise.density import MAX_DENSITY_QUBITS, run_density
from repro.noise.model import (
    ONE_QUBIT_PAULIS,
    TWO_QUBIT_PAULIS,
    NoiseModel,
    apply_readout_error,
    pauli_matrix,
    readout_confusion,
)
from repro.noise.ptm import (
    MAX_PTM_QUBITS,
    PtmCache,
    run_ptm,
    run_ptm_ensemble,
)
from repro.noise.trajectories import run_trajectories

#: Engine names accepted by :func:`noisy_distribution` and
#: :meth:`repro.core.quest.QuestResult.noisy_ensemble`.  ``auto``
#: preserves the historical dispatch (density below its cap,
#: trajectories above), so existing results stay bit-identical unless
#: an engine is chosen explicitly.
NOISE_ENGINES: tuple[str, ...] = ("auto", "ptm", "density", "trajectories")


def noisy_distribution(
    circuit,
    noise,
    trajectories=1000,
    rng=None,
    batched=True,
    engine="auto",
):
    """Noisy output distribution via the selected engine.

    ``engine`` is one of :data:`NOISE_ENGINES`.  ``auto`` uses the exact
    density-matrix simulator up to its qubit cap and falls back to
    Monte-Carlo Pauli trajectories beyond it (batched by default;
    ``batched=False`` selects the scalar reference engine).  ``ptm``
    runs the exact superoperator engine; ``trajectories`` and
    ``density`` force those engines regardless of size.
    """
    if engine not in NOISE_ENGINES:
        raise SimulationError(
            f"unknown noise engine {engine!r}; choose from "
            f"{', '.join(NOISE_ENGINES)}"
        )
    if engine == "auto":
        engine = (
            "density"
            if circuit.num_qubits <= MAX_DENSITY_QUBITS
            else "trajectories"
        )
    if engine == "density":
        return run_density(circuit, noise)
    if engine == "ptm":
        return run_ptm(circuit, noise)
    return run_trajectories(
        circuit, noise, trajectories=trajectories, rng=rng, batched=batched
    )


__all__ = [
    "NoiseModel",
    "pauli_matrix",
    "readout_confusion",
    "apply_readout_error",
    "ONE_QUBIT_PAULIS",
    "TWO_QUBIT_PAULIS",
    "run_density",
    "run_trajectories",
    "run_ptm",
    "run_ptm_ensemble",
    "PtmCache",
    "noisy_distribution",
    "NOISE_ENGINES",
    "MAX_DENSITY_QUBITS",
    "MAX_PTM_QUBITS",
    "Backend",
    "fake_manila",
    "linear_backend",
    "ideal_backend",
    "linear_coupling",
    "all_to_all_coupling",
]
