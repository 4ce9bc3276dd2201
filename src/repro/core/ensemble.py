"""Ensemble evaluation: averaging the outputs of selected approximations.

QUEST's output for an algorithm is the pointwise mean of the output
distributions of its selected dissimilar approximations (paper Sec. 4.1,
"the output probability distributions of all of its approximate circuits
are averaged").
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SelectionError
from repro.metrics.distances import average_distributions
from repro.sim.statevector import ideal_distribution


def ensemble_distribution(circuits: list[Circuit]) -> np.ndarray:
    """Average the ideal output distributions of ``circuits``."""
    if not circuits:
        raise SelectionError("cannot evaluate an empty ensemble")
    return average_distributions([ideal_distribution(c) for c in circuits])
