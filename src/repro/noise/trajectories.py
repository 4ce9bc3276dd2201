"""Monte-Carlo Pauli-trajectory noisy simulation.

Scales past the PTM engine's cap: each trajectory evolves a statevector
and stochastically injects a Pauli error at each channel that
:func:`repro.noise.model.noise_schedule` puts after a gate, with that
channel's probability.  Averaging many trajectories converges to the
density-matrix result (a unit test checks this agreement on small
circuits).

The Pauli-error outcome of every (channel, trajectory) pair is
sampled *before* evolution.  The trajectories then evolve together, as
``(rows, 2^n)`` slabs of at most :data:`MAX_BATCHED_STATE_BYTES`: every
gate is one :func:`~repro.linalg.embed.apply_gate_to_states` contraction
per slab, and each *distinct* sampled Pauli error is applied to its
trajectory sub-batch, so a slab costs ``ops x (#distinct errors + 1)``
batched contractions instead of ``rows x ops`` one-state applications.
A run whose states fit under the cap is a single slab.

``tests/trajectory_oracle.py`` keeps the one-trajectory-at-a-time loop
over the same pre-sampled outcomes as the reference the tests hold this
engine to.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SimulationCapacityError, SimulationError
from repro.linalg.embed import apply_gate_to_states
from repro.noise.model import (
    PAULI_MATRICES,
    NoiseModel,
    PauliChannel,
    apply_readout_error,
    noise_schedule,
)

#: Hard qubit ceiling for the trajectory sampler: one statevector is
#: ``2^n`` complexes (256 MiB at n=24); past this even a single
#: trajectory thrashes, so refuse with structure instead of hanging.
MAX_TRAJECTORY_QUBITS = 24

#: Max bytes of one ``(rows, 2^n)`` slab of trajectory states; a run
#: with more trajectories evolves them in successive slabs.
MAX_BATCHED_STATE_BYTES = 4 * 2**30

#: Trajectories sampled per run.
TRAJECTORIES = 1000

_COMPLEX_BYTES = 16


def _check_capacity(num_qubits: int) -> None:
    """Refuse widths that would hang or OOM, naming the way out."""
    if num_qubits > MAX_TRAJECTORY_QUBITS:
        raise SimulationCapacityError(
            "trajectories",
            num_qubits,
            MAX_TRAJECTORY_QUBITS,
            suggested_engine=None,
            detail=(
                f"one statevector is 2^{num_qubits} complexes; partition "
                "the circuit (see repro.partition) instead"
            ),
        )


def _pauli_application(
    label: str, qubits: tuple[int, ...]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Resolve a sampled label to the (matrix, target qubits) actually applied.

    Two-qubit labels with an identity factor reduce to a one-qubit
    application (labels are little-endian: the last character acts on the
    first listed qubit).
    """
    if len(label) == 2 and label[0] == "I":
        return PAULI_MATRICES[label[1]], (qubits[0],)
    if len(label) == 2 and label[1] == "I":
        return PAULI_MATRICES[label[0]], (qubits[1],)
    return PAULI_MATRICES[label], qubits


def _sample_outcomes(
    channels: list[PauliChannel], trajectories: int, rng: np.random.Generator
) -> np.ndarray:
    """Pre-sample every (channel, trajectory) error outcome.

    Returns an ``(num_channels, T)`` int array: ``-1`` means no error, a
    non-negative entry indexes into that channel's labels.  Sampling is
    vectorized per channel and draws every outcome of the run up front,
    so the RNG stream does not depend on how the trajectories are slabbed.
    """
    outcomes = np.full((len(channels), trajectories), -1, dtype=np.int64)
    for row, channel in enumerate(channels):
        hits = rng.random(trajectories) < channel.probability
        count = int(np.count_nonzero(hits))
        if count:
            outcomes[row, hits] = rng.integers(len(channel.labels), size=count)
    return outcomes


def _evolve_slab(
    schedule: list, outcomes: np.ndarray, num_qubits: int
) -> np.ndarray:
    """Evolve one slab, the trajectories of ``outcomes``' columns, as one
    batch; returns their summed distribution."""
    dim = 2**num_qubits
    states = np.zeros((outcomes.shape[1], dim), dtype=complex)
    states[:, 0] = 1.0
    row = 0
    for gate, qubits, channels in schedule:
        states = apply_gate_to_states(states, gate, qubits, num_qubits)
        for channel in channels:
            sampled = outcomes[row]
            row += 1
            hit = sampled >= 0
            if not hit.any():
                continue
            for label_index in np.unique(sampled[hit]):
                mask = sampled == label_index
                matrix, targets = _pauli_application(
                    channel.labels[int(label_index)], channel.qubits
                )
                states[mask] = apply_gate_to_states(
                    states[mask], matrix, targets, num_qubits
                )
    probs = np.abs(states) ** 2
    totals = probs.sum(axis=1)
    if not np.allclose(totals, 1.0, atol=1e-6):
        raise SimulationError("trajectory states lost normalization")
    return (probs / totals[:, None]).sum(axis=0)


def run_trajectories(
    circuit: Circuit,
    noise: NoiseModel,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Estimate the noisy output distribution from :data:`TRAJECTORIES`
    Pauli trajectories.

    Each trajectory contributes its full analytic Born distribution (not a
    single shot), which sharply reduces the sampling variance for a given
    trajectory budget.  All trajectories evolve as one ``(T, 2^n)`` block
    when it fits in :data:`MAX_BATCHED_STATE_BYTES`, and in successive
    slabs of at most that size when it does not; the slabs consume the
    same pre-sampled error outcomes, so slabbing changes the result only
    by the order of a float sum.
    """
    _check_capacity(circuit.num_qubits)
    rng = np.random.default_rng(rng)
    num_qubits = circuit.num_qubits
    schedule = noise_schedule(circuit, noise)
    outcomes = _sample_outcomes(
        [channel for _, _, channels in schedule for channel in channels],
        TRAJECTORIES,
        rng,
    )
    rows = max(1, MAX_BATCHED_STATE_BYTES // (2**num_qubits * _COMPLEX_BYTES))
    accumulated = np.zeros(2**num_qubits)
    for start in range(0, TRAJECTORIES, rows):
        accumulated += _evolve_slab(
            schedule, outcomes[:, start : start + rows], num_qubits
        )
    probs = accumulated / TRAJECTORIES
    return apply_readout_error(probs, num_qubits, noise.readout_error)
