"""Ensemble evaluation: averaging the outputs of selected approximations.

QUEST's output for an algorithm is the pointwise mean of the output
distributions of its selected dissimilar approximations (paper Sec. 4.1,
"the output probability distributions of all of its approximate circuits
are averaged").
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SelectionError
from repro.metrics.distances import average_distributions
from repro.sim.statevector import ideal_distribution


def ensemble_distribution(
    circuits: list[Circuit],
    runner: Callable[[Circuit], np.ndarray] | None = None,
) -> np.ndarray:
    """Average the output distributions of ``circuits``.

    ``runner`` maps a circuit to its output distribution; the default is
    the ideal statevector simulator.  Pass a noisy runner (e.g. a
    ``run_ptm`` closure) to evaluate the ensemble under hardware noise.
    """
    if not circuits:
        raise SelectionError("cannot evaluate an empty ensemble")
    runner = runner or ideal_distribution
    return average_distributions([runner(c) for c in circuits])
