"""QUEST's dissimilarity criterion (paper Sec. 3.6).

Two approximations ``S1, S2`` of an original ``O`` are *similar* when
their mutual HS distance is at most the larger of their distances to the
original::

    <S1, S2>_HS <= max(<S1, O>_HS, <S2, O>_HS)

geometrically: both sit in the same region of the approximation ball, so
averaging their outputs cannot cancel their errors.  For partitioned
circuits the full-unitary test is infeasible, so similarity of two full
approximations is the *fraction of blocks* whose chosen candidates are
similar.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SelectionError
from repro.linalg.unitary import hs_distance


def are_similar(
    mutual_distance: float, distance_a: float, distance_b: float
) -> bool:
    """The paper's similarity predicate on precomputed distances."""
    return mutual_distance <= max(distance_a, distance_b)


#: Pairs whose |mutual - max(d_i, d_j)| falls below this are re-resolved
#: with the historical scalar arithmetic (see ``_block_table``).
_BOUNDARY_MARGIN = 1e-7


def _block_table(candidates: np.ndarray, original: np.ndarray) -> np.ndarray:
    """Boolean similarity table of one block's candidate stack.

    The O(count^2) pairwise HS distances are one stacked Gram-matrix
    computation: the original joins the ``(count, dim, dim)`` candidate
    stack as the last row, a single ``einsum`` yields every pairwise
    ``|Tr(Ci^dag Cj)|``, and the distance matrix follows elementwise.

    The ``<=`` predicate is then decided by margins far above float
    noise for every generic pair, but pairs that sit *on* the boundary
    (a candidate equal to the original, near-duplicates) would resolve
    on reduction-order/FMA noise, which differs between this einsum and
    the historical per-pair ``hs_distance`` loop.  Those near-boundary
    pairs are re-resolved with the exact historical scalar arithmetic
    (same calls, same argument order), so the table is bitwise identical
    to the pre-vectorization construction.
    """
    count, dim = candidates.shape[0], candidates.shape[1]
    stack = np.concatenate([candidates, original[None, :, :]], axis=0)
    overlaps = (
        np.abs(np.einsum("aij,bij->ab", stack.conj(), stack)) / dim
    )
    distances = np.sqrt(np.maximum(0.0, 1.0 - overlaps * overlaps))
    to_original = distances[:count, count]
    mutual = distances[:count, :count]
    larger = np.maximum(to_original[:, None], to_original[None, :])
    table = mutual <= larger
    near = np.abs(mutual - larger) <= _BOUNDARY_MARGIN
    np.fill_diagonal(near, False)
    for i, j in zip(*np.nonzero(np.triu(near, k=1))):
        similar = are_similar(
            hs_distance(candidates[i], candidates[j]),
            hs_distance(candidates[i], original),
            hs_distance(candidates[j], original),
        )
        table[i, j] = table[j, i] = similar
    np.fill_diagonal(table, True)
    return table


def validate_choices(choices: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``choices`` as an index array, or ``SelectionError`` if any is invalid.

    ``choices`` is one choice vector or a stack of them; entry ``b`` of
    each must index block ``b``'s ``counts[b]`` candidates.
    """
    choices = np.asarray(choices, dtype=np.intp)
    if choices.shape[-1] != len(counts):
        raise SelectionError("choice vector length != number of blocks")
    if np.any(choices < 0) or np.any(choices >= counts):
        raise SelectionError("choice index outside its block's pool")
    return choices


class BlockSimilarityTables:
    """Precomputed per-block similarity lookups for the annealing objective.

    For every block, stores a boolean matrix ``similar[i, j]`` over its
    candidate approximations; the per-block tables are additionally
    packed into one flat array with per-block offsets.  A stack of prior
    selections compiles once into one row of hits per candidate
    (:meth:`prior_hits`), so scoring a choice vector, or a batch of
    them, against every prior is a single fancy-indexed gather (the
    annealer calls the objective thousands of times, and the batched
    exhaustive path scores thousands of choices per call).
    """

    def __init__(
        self,
        candidate_unitaries: list[list[np.ndarray]] | list[np.ndarray],
        original_unitaries: list[np.ndarray],
    ) -> None:
        if len(candidate_unitaries) != len(original_unitaries):
            raise SelectionError("one original unitary needed per block")
        self.num_blocks = len(original_unitaries)
        self._tables: list[np.ndarray] = []
        for candidates, original in zip(candidate_unitaries, original_unitaries):
            if len(candidates) == 0:
                raise SelectionError("block with no candidate approximations")
            stack = np.asarray(candidates, dtype=complex)
            self._tables.append(_block_table(stack, np.asarray(original)))
        # Flat packed layout: block b's (count_b, count_b) table lives at
        # _flat[_offsets[b] : _offsets[b] + count_b**2], row-major, so
        # entry (i, j) is _flat[_offsets[b] + i * count_b + j].
        self._counts = np.array(
            [table.shape[0] for table in self._tables], dtype=np.intp
        )
        self._offsets = np.concatenate(
            ([0], np.cumsum(self._counts * self._counts)[:-1])
        ).astype(np.intp)
        self._flat = np.concatenate(
            [table.ravel() for table in self._tables]
        )
        # Candidates in block order: candidate i of block b is number
        # _starts[b] + i.  Per candidate, _row_blocks holds its block and
        # _row_cells the flat index where its table row starts,
        # _offsets[b] + i * count_b (see ``prior_hits``).
        self._starts = np.concatenate(
            ([0], np.cumsum(self._counts)[:-1])
        ).astype(np.intp)
        self._row_blocks = np.repeat(np.arange(self.num_blocks), self._counts)
        self._row_cells = np.concatenate(
            [
                offset + count * np.arange(count)
                for offset, count in zip(self._offsets, self._counts)
            ]
        )

    def prior_hits(self, priors: np.ndarray) -> np.ndarray:
        """Validate stacked priors once, as one similarity row per candidate.

        ``priors`` is an ``(S, num_blocks)`` matrix of selected choice
        vectors.  Returns the ``(sum(counts), S)`` boolean matrix whose
        row ``starts[b] + i`` says, per prior, whether candidate ``i`` of
        block ``b`` is similar to that prior's candidate there.  Scoring
        choices against the priors is then one gather of their rows
        (:meth:`fractions_at`).
        """
        priors = validate_choices(np.atleast_2d(priors), self._counts)
        return self._flat[
            self._row_cells[:, None] + priors[:, self._row_blocks].T
        ]

    def fractions_at(
        self, choices: np.ndarray, prior_hits: np.ndarray
    ) -> np.ndarray:
        """Fractions of ``choices`` against priors compiled by :meth:`prior_hits`.

        ``choices`` is one choice vector or a ``(B, num_blocks)`` matrix,
        and is not validated: the caller passes in-range indices.
        Returns the ``(S,)`` or ``(B, S)`` fractions.
        """
        hits = prior_hits[self._starts + choices]
        return np.add.reduce(hits, axis=-2) / self.num_blocks
