"""Algorithm 1: the dual-annealing objective function.

Scores a full-circuit approximation (one candidate chosen per block):

* reject (score 1.0) if the summed block distances breach the process-
  distance threshold — the Sec. 3.8 upper bound standing in for the
  infeasible full-circuit distance;
* with no prior selections, score by normalized CNOT count alone;
* otherwise mix the fraction of already-selected samples this choice is
  similar to with the normalized CNOT count, weighted
  :data:`SIMILARITY_WEIGHT` / ``1 - SIMILARITY_WEIGHT`` (0.5 each).

The annealer scores thousands of choices one at a time, so everything a
score reads is compiled ahead of it.  Per-block CNOT counts and
distances are flattened into one row each at construction, with
per-block offsets, and the selected priors are stacked, validated and
compiled once per change of ``selected``: into one row of similarity
hits per candidate for the batched ``evaluate_batch``, and into a
:class:`ChoiceScorer` for one choice at a time.  Apart from its
feasibility, a choice's score is a function of integers — its CNOT sum
and, per prior, how many of its blocks are similar to that prior's — so
the scorer keeps those integers, updates them in O(1) when one
coordinate moves, and turns them into the float score once per distinct
value, with the same elements reduced in the same order as
``evaluate_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pool import BlockPool
from repro.core.similarity import BlockSimilarityTables, validate_choices
from repro.exceptions import SelectionError
from repro.observability import get_record

#: Algorithm 1's weight of the similarity term; the normalized CNOT
#: count gets the rest (Sec. 3.6: 0.5 each).
SIMILARITY_WEIGHT = 0.5


class ChoiceScorer:
    """Algorithm 1's score of one choice vector, for one set of priors.

    A choice's CNOT sum and its per-prior similarity hit counts are
    packed into one Python int, its *key*: each prior owns a
    ``width``-bit field holding that prior's hit count, and the CNOT
    sum sits above the fields.  Candidate ``c`` of block ``b``
    contributes ``codes[b][c]`` — its CNOT count above a 1 in the field
    of every prior it is similar to — and a count never exceeds the
    number of blocks, so fields never carry: a choice's key is the sum
    of its candidates' codes, and moving block ``b`` from ``c`` to
    ``c'`` adds ``codes[b][c'] - codes[b][c]``.  :meth:`value` scores a
    key, once per distinct key.

    Feasibility is not in the key: :meth:`feasible` sums the chosen
    distances exactly as ``SelectionObjective.choice_bound`` does, unless
    ``always_feasible`` holds.  That flag sums each block's largest
    distance through the same reduction; every rounded addition is
    monotone in its operands, so when that sum is within the threshold,
    so is every choice's.
    """

    def __init__(
        self, objective: SelectionObjective, prior_hits: np.ndarray | None
    ) -> None:
        self._distances = objective._distances
        self._offsets = objective._offsets
        self._threshold = objective.threshold
        self._original = objective.original_cnot_count
        self._num_blocks = objective.num_blocks
        self._num_priors = 0 if prior_hits is None else prior_hits.shape[1]
        self._width = self._num_blocks.bit_length()
        self._field_shifts = [self._width * p for p in range(self._num_priors)]
        self._cnot_shift = self._width * self._num_priors
        self._fields_mask = (1 << self._cnot_shift) - 1
        cnots = objective._cnots.tolist()
        if prior_hits is None:
            flat = cnots
        else:
            flat = [
                (cnot << self._cnot_shift)
                + sum(1 << shift for shift, hit in zip(self._field_shifts, row) if hit)
                for cnot, row in zip(cnots, prior_hits.tolist())
            ]
        self.codes = [
            flat[offset : offset + size]
            for offset, size in zip(objective._offsets, objective._sizes)
        ]
        largest = [
            int(np.argmax(objective._distances[offset : offset + size]))
            for offset, size in zip(objective._offsets, objective._sizes)
        ]
        self.always_feasible = not self._bound(largest) > self._threshold
        self._values: dict[int, float] = {}
        self._similarities: dict[int, float] = {}

    def _bound(self, choice) -> float:
        return float(np.add.reduce(self._distances[self._offsets + choice]))

    def key(self, choice) -> int:
        """The packed CNOT sum and hit counts of ``choice``."""
        return sum(map(list.__getitem__, self.codes, choice))

    def feasible(self, choice) -> bool:
        """Whether ``choice``'s summed distances are within the threshold."""
        return self.always_feasible or not self._bound(choice) > self._threshold

    def value(self, key: int) -> float:
        """The score of a feasible choice with this key."""
        value = self._values.get(key)
        if value is None:
            c_norm = (key >> self._cnot_shift) / self._original
            if self._num_priors:
                m = self._similarity(key & self._fields_mask)
                value = SIMILARITY_WEIGHT * m + (1.0 - SIMILARITY_WEIGHT) * c_norm
            else:
                value = c_norm
            self._values[key] = value
        return value

    def _similarity(self, fields: int) -> float:
        """Mean similarity fraction over the priors, once per hit counts."""
        m = self._similarities.get(fields)
        if m is None:
            mask = (1 << self._width) - 1
            hits = np.array(
                [(fields >> shift) & mask for shift in self._field_shifts]
            )
            fractions = hits / self._num_blocks
            m = float(np.add.reduce(fractions)) / len(fractions)
            self._similarities[fields] = m
        return m

    def __call__(self, choice) -> float:
        """Algorithm 1's score of the in-pool choice vector ``choice``."""
        if not self.feasible(choice):
            return 1.0
        return self.value(self.key(choice))


@dataclass
class SelectionObjective:
    """Callable objective over integer choice vectors.

    ``selected`` holds the priors the similarity term scores against.
    Append to it, clear it, replace its elements or reassign it freely;
    the compiled priors and :meth:`scorer` follow on the next call, as
    they do a change of ``threshold`` or ``original_cnot_count``.  An
    element is read as a value when it joins: replace it rather than
    write into it.  The ambient record counts the points scored:
    ``selection.scalar_evals`` per ``__call__``,
    ``selection.batch_evals`` per ``evaluate_batch`` row.
    """

    pools: list[BlockPool]
    threshold: float
    original_cnot_count: int
    selected: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.pools:
            raise SelectionError("no block pools")
        if self.original_cnot_count <= 0:
            raise SelectionError("original circuit has no CNOTs to reduce")
        self.tables = BlockSimilarityTables(
            [pool.unitary_stack() for pool in self.pools],
            [pool.original_unitary for pool in self.pools],
        )
        self._sizes = np.array([pool.size for pool in self.pools])
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
        # Compiled from ``selected`` and the scalar fields, keyed on the
        # fields and the ids of the held references to ``selected``'s
        # elements: held, those ids cannot be reused by new arrays while
        # the key is live.
        self._compiled_refs: list[np.ndarray] = []
        self._compiled_key: tuple | None = None
        self._prior_hits: np.ndarray | None = None
        self._scorer: ChoiceScorer | None = None

    @property
    def num_blocks(self) -> int:
        """Number of blocks (dimension of the search space)."""
        return len(self.pools)

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

    def _compile(self) -> None:
        """Recompile the priors and the scorer if their inputs changed."""
        key = (
            tuple(map(id, self.selected)),
            self.threshold,
            self.original_cnot_count,
        )
        if key != self._compiled_key:
            refs = list(self.selected)
            hits = self.tables.prior_hits(np.stack(refs)) if refs else None
            self._scorer = ChoiceScorer(self, hits)
            self._compiled_refs, self._compiled_key = refs, key
            self._prior_hits = hits

    def scorer(self) -> ChoiceScorer:
        """The :class:`ChoiceScorer` of the current priors and fields."""
        self._compile()
        return self._scorer

    def __call__(self, choice: np.ndarray) -> float:
        """Algorithm 1's score of the integer choice vector ``choice``."""
        choice = validate_choices(choice, self._sizes)
        get_record().inc("selection.scalar_evals")
        return self.scorer()(choice)

    def evaluate_batch(self, choices: np.ndarray) -> np.ndarray:
        """Score a ``(B, num_blocks)`` matrix of integer choice vectors.

        Returns the length-``B`` vector of objective values; every row
        equals ``__call__`` on that row (the same sums and the same
        per-row reduction of the same fractions).
        """
        choices = validate_choices(np.atleast_2d(choices), self._sizes)
        get_record().inc("selection.batch_evals", choices.shape[0])
        bounds = self._sum_chosen(self._distances, choices)
        cnots = self._sum_chosen(self._cnots, choices)
        values = cnots / self.original_cnot_count
        self._compile()
        if self._prior_hits is not None:
            fractions = self.tables.fractions_at(choices, self._prior_hits)
            m = fractions.sum(axis=1) / fractions.shape[1]
            values = SIMILARITY_WEIGHT * m + (1.0 - SIMILARITY_WEIGHT) * values
        values[bounds > self.threshold] = 1.0
        return values
