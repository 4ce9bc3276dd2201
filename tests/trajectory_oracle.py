"""Frozen one-trajectory-at-a-time reference for the trajectory sampler.

:func:`repro.noise.trajectories.run_trajectories` evolves its
trajectories together, as ``(rows, 2^n)`` slabs of states.  This module
keeps the loop that engine replaced — one statevector per trajectory,
one ``apply_gate_to_state`` per gate and per sampled Pauli error — as
the oracle the tests hold it to.  It reads the same channel schedule
(:func:`repro.noise.model.noise_schedule`) and draws the error outcomes
through the sampler's own routine, in the same RNG order, so for a
fixed seed both see the same errors and differ only in float summation
order.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.embed import apply_gate_to_state
from repro.noise.model import apply_readout_error, noise_schedule
from repro.noise.trajectories import _pauli_application, _sample_outcomes
from repro.sim.statevector import probabilities, zero_state


def scalar_trajectories(circuit, noise, trajectories: int, rng) -> np.ndarray:
    """The noisy distribution of ``trajectories`` runs, one at a time."""
    rng = np.random.default_rng(rng)
    num_qubits = circuit.num_qubits
    schedule = noise_schedule(circuit, noise)
    outcomes = _sample_outcomes(
        [channel for _, _, channels in schedule for channel in channels],
        trajectories,
        rng,
    )
    accumulated = np.zeros(2**num_qubits)
    for trajectory in range(trajectories):
        state = zero_state(num_qubits)
        row = 0
        for gate, qubits, channels in schedule:
            state = apply_gate_to_state(state, gate, qubits, num_qubits)
            for channel in channels:
                label_index = outcomes[row, trajectory]
                row += 1
                if label_index < 0:
                    continue
                matrix, targets = _pauli_application(
                    channel.labels[int(label_index)], channel.qubits
                )
                state = apply_gate_to_state(state, matrix, targets, num_qubits)
        accumulated += probabilities(state)
    return apply_readout_error(
        accumulated / trajectories, num_qubits, noise.readout_error
    )
