"""Ideal simulators: statevector evolution and dense circuit unitaries."""

from repro.sim.readout import (
    distribution_over_cbits,
    logical_distribution,
    measurement_map,
)
from repro.sim.statevector import (
    ideal_distribution,
    probabilities,
    run_statevector,
    zero_state,
)
from repro.sim.unitary import MAX_UNITARY_QUBITS, circuit_unitary

__all__ = [
    "logical_distribution",
    "distribution_over_cbits",
    "measurement_map",
    "zero_state",
    "run_statevector",
    "probabilities",
    "ideal_distribution",
    "circuit_unitary",
    "MAX_UNITARY_QUBITS",
]
