"""Frozen one-trajectory-at-a-time reference for the trajectory sampler.

:func:`repro.noise.trajectories.run_trajectories` evolves its
trajectories together, as ``(rows, 2^n)`` slabs of states.  This module
keeps the loop that engine replaced — one statevector per trajectory,
one ``apply_gate_to_state`` per gate and per sampled Pauli error — as
the oracle the tests hold it to.  It draws the error outcomes through
the sampler's own routine, in the same RNG order, so for a fixed seed
both see the same errors and differ only in float summation order.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.embed import apply_gate_to_state
from repro.noise.model import apply_readout_error
from repro.noise.trajectories import (
    _error_sites,
    _pauli_application,
    _sample_outcomes,
)
from repro.sim.statevector import probabilities, zero_state


def scalar_trajectories(circuit, noise, trajectories: int, rng) -> np.ndarray:
    """The noisy distribution of ``trajectories`` runs, one at a time."""
    rng = np.random.default_rng(rng)
    num_qubits = circuit.num_qubits
    ops = [op for op in circuit.operations if op.name not in ("measure", "barrier")]
    gate_matrices = [op.gate.matrix() for op in ops]
    sites_per_op = _error_sites(ops, num_qubits, noise)
    flat_sites = [site for sites in sites_per_op for site in sites]
    outcomes = _sample_outcomes(flat_sites, trajectories, rng)
    accumulated = np.zeros(2**num_qubits)
    for trajectory in range(trajectories):
        state = zero_state(num_qubits)
        row = 0
        for op, gate, sites in zip(ops, gate_matrices, sites_per_op):
            state = apply_gate_to_state(state, gate, op.qubits, num_qubits)
            for site in sites:
                label_index = outcomes[row, trajectory]
                row += 1
                if label_index < 0:
                    continue
                matrix, qubits = _pauli_application(
                    site.labels[int(label_index)], site.qubits
                )
                state = apply_gate_to_state(state, matrix, qubits, num_qubits)
        accumulated += probabilities(state)
    return apply_readout_error(
        accumulated / trajectories, num_qubits, noise.readout_error
    )
