"""Frozen per-call reference for ``SelectionObjective.__call__``.

:class:`repro.core.objective.SelectionObjective` scores a point from
tables compiled ahead of the call: flat CNOT and distance rows, and the
selected priors compiled once per change of ``selected``.  This module
keeps the scorer it replaced as the oracle the tests hold it to, bit for
bit: ``np.clip`` decoding, gathers from ``(num_blocks, max_pool_size)``
padded matrices, and the priors stacked and validated on every call.
It reads only an objective's public fields and its ``tables``.
"""

from __future__ import annotations

import numpy as np

from repro.core.objective import SIMILARITY_WEIGHT
from repro.exceptions import SelectionError


class FrozenObjective:
    """The per-call scorer over one objective's pools and tables.

    The pools and tables are read once, at construction; ``selected``,
    ``threshold`` and ``original_cnot_count`` are read on every call, and every call counts in ``scalar_evaluations``, as the
    objective's own ``__call__`` does.
    """

    def __init__(self, objective) -> None:
        self.objective = objective
        pools = objective.pools
        self._sizes = np.array([pool.size for pool in pools])
        max_size = int(self._sizes.max())
        self._cnot_matrix = np.zeros((len(pools), max_size), dtype=np.int64)
        self._distance_matrix = np.full((len(pools), max_size), np.inf)
        self._similar = np.zeros((len(pools), max_size, max_size), dtype=bool)
        # Prior j picks candidate min(j, size_b - 1) in block b, so column
        # j of its compiled rows holds similar[b, i, j] for every j < size_b.
        priors = np.minimum(np.arange(max_size)[:, None], self._sizes - 1)
        hits = objective.tables.prior_hits(priors)
        start = 0
        for b, pool in enumerate(pools):
            self._cnot_matrix[b, : pool.size] = pool.cnot_counts()
            self._distance_matrix[b, : pool.size] = pool.distances()
            rows = hits[start : start + pool.size, : pool.size]
            self._similar[b, : pool.size, : pool.size] = rows
            start += pool.size
        self._block_index = np.arange(len(pools))

    def decode(self, x: np.ndarray) -> np.ndarray:
        choice = np.floor(np.asarray(x)).astype(int)
        return np.clip(choice, 0, self._sizes - 1)

    def choice_cnot_count(self, choice: np.ndarray) -> int:
        return int(self._cnot_matrix[self._block_index, choice].sum())

    def choice_bound(self, choice: np.ndarray) -> float:
        return float(self._distance_matrix[self._block_index, choice].sum())

    def similarity_fractions(
        self, choice: np.ndarray, priors: np.ndarray
    ) -> np.ndarray:
        """Fraction of blocks similar to ``choice``, per stacked prior."""
        priors = np.asarray(priors, dtype=np.intp)
        if np.any(priors < 0) or np.any(priors >= self._sizes):
            raise SelectionError("choice index outside its block's pool")
        hits = self._similar[self._block_index, choice, priors]
        return hits.sum(axis=1) / len(self._sizes)

    def __call__(self, x: np.ndarray) -> float:
        objective = self.objective
        choice = self.decode(x)
        objective.scalar_evaluations += 1
        if self.choice_bound(choice) > objective.threshold:
            return 1.0
        c_norm = self.choice_cnot_count(choice) / objective.original_cnot_count
        if not objective.selected:
            return c_norm
        fractions = self.similarity_fractions(
            choice, np.stack(objective.selected)
        )
        m = float(fractions.sum()) / len(objective.selected)
        return SIMILARITY_WEIGHT * m + (1.0 - SIMILARITY_WEIGHT) * c_norm
