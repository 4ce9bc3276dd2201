"""Noise substrate: Pauli models, fake backends, noisy simulators.

Two noisy-evaluation engines read one channel schedule,
:func:`repro.noise.model.noise_schedule`:

* ``ptm`` — exact superoperator (Pauli-transfer-matrix) contraction,
  batched over the ensemble axis, practical to ~12 qubits;
* ``trajectories`` — Monte-Carlo Pauli trajectories, for anything wider.

The tests hold the PTM engine to an exact density-matrix simulation
(``tests/density_oracle.py``) that reads the same schedule.
"""

from repro.exceptions import SimulationError
from repro.noise.backends import (
    Backend,
    fake_manila,
    linear_coupling,
)
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
#: :meth:`repro.core.quest.QuestResult.noisy_ensemble`.
NOISE_ENGINES: tuple[str, ...] = ("auto", "ptm", "trajectories")


def resolve_engine(engine: str, num_qubits: int) -> str:
    """The concrete engine ``engine`` names for a ``num_qubits`` circuit.

    ``auto`` resolves by width: ``ptm`` up to :data:`MAX_PTM_QUBITS`,
    ``trajectories`` above.  A name outside :data:`NOISE_ENGINES`
    raises :class:`SimulationError`.
    """
    if engine not in NOISE_ENGINES:
        raise SimulationError(
            f"unknown noise engine {engine!r}; choose from "
            f"{', '.join(NOISE_ENGINES)}"
        )
    if engine != "auto":
        return engine
    return "ptm" if num_qubits <= MAX_PTM_QUBITS else "trajectories"


def noisy_distribution(
    circuit,
    noise,
    trajectories=1000,
    rng=None,
    engine="auto",
):
    """Noisy output distribution via the selected engine.

    ``engine`` is one of :data:`NOISE_ENGINES`, resolved by
    :func:`resolve_engine`: ``auto`` runs the exact superoperator engine
    up to its qubit cap and Monte-Carlo Pauli trajectories beyond it.
    ``ptm`` and ``trajectories`` force those engines regardless of size.
    """
    if resolve_engine(engine, circuit.num_qubits) == "ptm":
        return run_ptm(circuit, noise)
    return run_trajectories(circuit, noise, trajectories=trajectories, rng=rng)


__all__ = [
    "NoiseModel",
    "pauli_matrix",
    "readout_confusion",
    "apply_readout_error",
    "ONE_QUBIT_PAULIS",
    "TWO_QUBIT_PAULIS",
    "run_trajectories",
    "run_ptm",
    "run_ptm_ensemble",
    "PtmCache",
    "noisy_distribution",
    "resolve_engine",
    "NOISE_ENGINES",
    "MAX_PTM_QUBITS",
    "Backend",
    "fake_manila",
    "linear_coupling",
]
