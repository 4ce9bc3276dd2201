"""Algorithm 1: the dual-annealing objective function.

Scores a full-circuit approximation (one candidate chosen per block):

* reject (score 1.0) if the summed block distances breach the process-
  distance threshold — the Sec. 3.8 upper bound standing in for the
  infeasible full-circuit distance;
* with no prior selections, score by normalized CNOT count alone;
* otherwise mix the fraction of already-selected samples this choice is
  similar to with the normalized CNOT count, weighted ``weight`` /
  ``1 - weight`` (0.5 each in the paper).

The annealer scores thousands of points one at a time, so everything a
call reads is compiled ahead of it.  Per-block CNOT counts and distances
are flattened into one row each at construction, with per-block offsets,
and the selected priors are stacked, validated and compiled into one row
of similarity hits per candidate once per change of ``selected``.  A
call then decodes its point, does one gather per table and one against
the compiled priors, and reduces each with ``np.add.reduce`` over the
same elements in the same order as the batched ``evaluate_batch`` entry
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pool import BlockPool
from repro.core.similarity import BlockSimilarityTables, validate_choices
from repro.exceptions import SelectionError


@dataclass
class SelectionObjective:
    """Callable objective over integer choice vectors.

    ``selected`` holds the priors the similarity term scores against.
    Append to it, clear it, replace its elements or reassign it freely;
    the compiled priors follow on the next call.  An element is read as
    a value when it joins: replace it rather than write into it.
    """

    pools: list[BlockPool]
    threshold: float
    original_cnot_count: int
    weight: float = 0.5
    selected: list[np.ndarray] = field(default_factory=list)
    tables: BlockSimilarityTables = None  # type: ignore[assignment]
    #: Points scored one at a time through ``__call__`` (the annealer's
    #: path) vs. points scored through ``evaluate_batch``.
    scalar_evaluations: int = 0
    batched_evaluations: int = 0

    def __post_init__(self) -> None:
        if not self.pools:
            raise SelectionError("no block pools")
        if not 0.0 <= self.weight <= 1.0:
            raise SelectionError(f"weight {self.weight} outside [0, 1]")
        if self.original_cnot_count <= 0:
            raise SelectionError("original circuit has no CNOTs to reduce")
        if self.tables is None:
            self.tables = BlockSimilarityTables(
                [pool.unitary_stack() for pool in self.pools],
                [pool.original_unitary for pool in self.pools],
            )
        self._sizes = np.array([pool.size for pool in self.pools])
        self._max_choice = self._sizes - 1
        # Flat per-block rows: pool b's values sit at
        # _offsets[b] : _offsets[b] + size_b, so choice vector c reads
        # table[_offsets + c], one entry per block in block order.
        self._offsets = np.concatenate(([0], np.cumsum(self._sizes)[:-1]))
        self._cnots = np.concatenate(
            [pool.cnot_counts() for pool in self.pools]
        ).astype(np.int64)
        self._distances = np.concatenate(
            [pool.distances() for pool in self.pools]
        ).astype(float)
        # Every in-pool choice must also index the similarity tables.
        self.tables.prior_hits(self._max_choice)
        # The priors as compiled by the tables, keyed on the ids of the
        # held references to ``selected``'s elements: held, those ids
        # cannot be reused by new arrays while the key is live.
        self._prior_refs: list[np.ndarray] = []
        self._prior_key: tuple[int, ...] = ()
        self._prior_hits: np.ndarray | None = None

    @property
    def num_blocks(self) -> int:
        """Number of blocks (dimension of the search space)."""
        return len(self.pools)

    def bounds(self) -> list[tuple[float, float]]:
        """Continuous box bounds encoding the integer choice per block."""
        return [(0.0, size - 1e-9) for size in self._sizes]

    def decode(self, x: np.ndarray) -> np.ndarray:
        """Floor a continuous annealer point to an integer choice vector."""
        choice = np.floor(np.asarray(x)).astype(int)
        np.maximum(choice, 0, out=choice)
        return np.minimum(choice, self._max_choice, out=choice)

    def _sum_chosen(self, table: np.ndarray, choices: np.ndarray):
        """Sum of ``table``'s entries at each choice vector, in block order."""
        return np.add.reduce(table[self._offsets + choices], axis=-1)

    def choice_cnot_count(self, choice: np.ndarray) -> int:
        """Total CNOTs of the stitched approximation."""
        choice = validate_choices(choice, self._sizes)
        return int(self._sum_chosen(self._cnots, choice))

    def choice_bound(self, choice: np.ndarray) -> float:
        """Sec. 3.8 upper bound: sum of chosen block distances."""
        choice = validate_choices(choice, self._sizes)
        return float(self._sum_chosen(self._distances, choice))

    def _compiled_priors(self) -> np.ndarray | None:
        """Similarity rows of ``selected``, recompiled when it changes."""
        if tuple(map(id, self.selected)) != self._prior_key:
            refs = list(self.selected)
            hits = self.tables.prior_hits(np.stack(refs)) if refs else None
            self._prior_refs, self._prior_key = refs, tuple(map(id, refs))
            self._prior_hits = hits
        return self._prior_hits

    def __call__(self, x: np.ndarray) -> float:
        # ``decode`` clips into every pool, so the choice needs no check.
        choice = self.decode(x)
        self.scalar_evaluations += 1
        if float(self._sum_chosen(self._distances, choice)) > self.threshold:
            return 1.0
        cnots = int(self._sum_chosen(self._cnots, choice))
        c_norm = cnots / self.original_cnot_count
        prior_hits = self._compiled_priors()
        if prior_hits is None:
            return c_norm
        fractions = self.tables.fractions_at(choice, prior_hits)
        m = float(np.add.reduce(fractions)) / len(fractions)
        return self.weight * m + (1.0 - self.weight) * c_norm

    def evaluate_batch(self, choices: np.ndarray) -> np.ndarray:
        """Score a ``(B, num_blocks)`` matrix of integer choice vectors.

        Returns the length-``B`` vector of objective values; every row
        matches ``__call__`` on that row exactly (same gathers, same
        per-row reduction), so the exhaustive path and the annealed path
        share one scoring implementation.
        """
        choices = validate_choices(np.atleast_2d(choices), self._sizes)
        self.batched_evaluations += choices.shape[0]
        bounds = self._sum_chosen(self._distances, choices)
        cnots = self._sum_chosen(self._cnots, choices)
        values = cnots / self.original_cnot_count
        prior_hits = self._compiled_priors()
        if prior_hits is not None:
            fractions = self.tables.fractions_at(choices, prior_hits)
            m = fractions.sum(axis=1) / fractions.shape[1]
            values = self.weight * m + (1.0 - self.weight) * values
        values[bounds > self.threshold] = 1.0
        return values
