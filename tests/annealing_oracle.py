"""Scipy's annealer over the continuous box: the reference selection.

:func:`repro.core.annealing.dual_annealing` writes scipy's generalized
simulated annealing out over integer choices.  This module keeps the
annealed selection it replaced as the oracle the tests hold it to with
``==``: ``scipy.optimize.dual_annealing(no_local_search=True)`` over a
scalar score of continuous points, on the box ``[0, size_b - 1e-9)``
per block, each run's result floored by :func:`decode`.  The score
defaults to the objective's ``__call__`` of :func:`decode`'s choice;
pass ``tests.objective_oracle.FrozenObjective(objective)`` to keep the
new scorer out of the reference altogether.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import dual_annealing

from repro.exceptions import SelectionError
from repro.observability import Record, use_record


def decode(objective, x: np.ndarray) -> np.ndarray:
    """Floor a continuous annealer point to an in-pool choice vector
    (NaN and infinities floor to 0)."""
    max_choice = np.array([pool.size for pool in objective.pools]) - 1
    choice = np.floor(np.asarray(x)).astype(int)
    np.maximum(choice, 0, out=choice)
    return np.minimum(choice, max_choice, out=choice)


def point_score(objective):
    """The objective as a function of continuous points: scipy's ``f``."""
    return lambda x: objective(decode(objective, x))


def box_bounds(objective) -> list[tuple[float, float]]:
    """Continuous box bounds encoding the integer choice per block."""
    return [(0.0, pool.size - 1e-9) for pool in objective.pools]


def anneal(objective, maxiter, rng, score=None, maxfun=1e7):
    """One scipy run from the all-original choice: (choice, value, nfev)."""
    annealed = dual_annealing(
        point_score(objective) if score is None else score,
        bounds=box_bounds(objective),
        maxiter=maxiter,
        maxfun=maxfun,
        seed=rng,
        no_local_search=True,
        x0=np.full(objective.num_blocks, 0.5),
    )
    return decode(objective, annealed.x), annealed.fun, annealed.nfev


def select(objective, max_samples, maxiter, seed, score=None):
    """``select_approximations`` on its annealed path, as it was.

    Returns the choices, their objective values and the scalar
    evaluation count (``selection.scalar_evals`` of a record of its
    own), all scored by ``score``.
    """
    score = point_score(objective) if score is None else score
    objective.selected.clear()
    choices, values = [], []
    with use_record(Record()) as record:
        for run_seed in np.random.SeedSequence(seed).spawn(max_samples):
            choice, _, _ = anneal(
                objective, maxiter, np.random.default_rng(run_seed), score
            )
            if objective.choice_bound(choice) > objective.threshold:
                if choices:
                    break
                choice = np.zeros(objective.num_blocks, dtype=int)
                if objective.choice_bound(choice) > objective.threshold:
                    raise SelectionError("no feasible approximation")
            value = score(choice.astype(float))
            if any(np.array_equal(choice, prior) for prior in choices):
                break
            choices.append(choice)
            values.append(value)
            objective.selected.append(choice)
    return choices, values, record.snapshot()["counters"]["selection.scalar_evals"]
