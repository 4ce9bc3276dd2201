"""Tests for QUEST's dissimilarity criterion and lookup tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import random_unitary
from repro.core.similarity import BlockSimilarityTables, are_similar
from repro.exceptions import SelectionError
from repro.linalg import hs_distance


def unitaries_similar(a, b, original) -> bool:
    """The paper's predicate on the three HS distances of two unitaries."""
    return are_similar(
        hs_distance(a, b), hs_distance(a, original), hs_distance(b, original)
    )


def candidates_similar(tables, block, i, j) -> bool:
    """Whether candidates ``i`` and ``j`` of ``block`` are similar, read
    through the tables' compiled rows: choice ``j`` in every block is
    the one prior (every pool in these tests holds 3 candidates)."""
    rows = tables.prior_hits(np.full(tables.num_blocks, j))
    return bool(rows[3 * block + i, 0])


def similarity_fraction(tables, choice_a, choice_b) -> float:
    """Fraction of blocks whose chosen candidates are similar."""
    return float(tables.fractions_at(choice_a, tables.prior_hits(choice_b))[0])


def test_are_similar_predicate():
    assert are_similar(0.1, 0.2, 0.3)
    assert are_similar(0.3, 0.2, 0.3)
    assert not are_similar(0.31, 0.2, 0.3)


def test_identical_unitaries_similar(rng):
    original = random_unitary(4, rng)
    approx = random_unitary(4, rng)
    assert unitaries_similar(approx, approx, original)


def test_original_similar_to_everything(rng):
    # d(S, O) <= max(d(S, O), d(O, O)) always holds with equality.
    original = random_unitary(4, rng)
    for _ in range(5):
        other = random_unitary(4, rng)
        assert unitaries_similar(other, original, original)


def test_opposite_phases_dissimilar():
    # Diagonal unitaries on "opposite sides" of the identity.
    eps = 0.4
    original = np.eye(2, dtype=complex)
    plus = np.diag([1.0, np.exp(1j * eps)])
    minus = np.diag([1.0, np.exp(-1j * eps)])
    assert not unitaries_similar(plus, minus, original)


def test_same_side_similar():
    original = np.eye(2, dtype=complex)
    a = np.diag([1.0, np.exp(1j * 0.4)])
    b = np.diag([1.0, np.exp(1j * 0.38)])
    assert unitaries_similar(a, b, original)


class TestTables:
    def _tables(self, rng):
        originals = [random_unitary(2, rng) for _ in range(3)]
        candidates = [
            [original] + [random_unitary(2, rng) for _ in range(2)]
            for original in originals
        ]
        return BlockSimilarityTables(candidates, originals)

    def test_diagonal_true(self, rng):
        tables = self._tables(rng)
        for block in range(3):
            assert candidates_similar(tables, block, 1, 1)

    def test_symmetry(self, rng):
        tables = self._tables(rng)
        for block in range(3):
            for i in range(3):
                for j in range(3):
                    assert candidates_similar(
                        tables, block, i, j
                    ) == candidates_similar(tables, block, j, i)

    def test_similarity_fraction_identical_choice(self, rng):
        tables = self._tables(rng)
        choice = np.array([0, 1, 2])
        assert similarity_fraction(tables, choice, choice) == pytest.approx(1.0)

    def test_similarity_fraction_range(self, rng):
        tables = self._tables(rng)
        a = np.array([0, 0, 0])
        b = np.array([1, 2, 1])
        fraction = similarity_fraction(tables, a, b)
        assert 0.0 <= fraction <= 1.0

    def test_length_validation(self, rng):
        tables = self._tables(rng)
        with pytest.raises(SelectionError):
            tables.prior_hits(np.array([0]))

    def test_construction_validation(self, rng):
        with pytest.raises(SelectionError):
            BlockSimilarityTables([[np.eye(2)]], [])
        with pytest.raises(SelectionError):
            BlockSimilarityTables([[]], [np.eye(2)])

    def test_batch_fractions_match_pairwise_fractions(self, rng):
        # Unequal pool sizes, so every block's rows sit at their own
        # offsets in the compiled prior hits.
        sizes = [3, 1, 5, 2]
        originals = [random_unitary(2, rng) for _ in sizes]
        candidates = [
            [original] + [random_unitary(2, rng) for _ in range(size - 1)]
            for original, size in zip(originals, sizes)
        ]
        tables = BlockSimilarityTables(candidates, originals)
        choices = np.column_stack([rng.integers(0, s, 9) for s in sizes])
        priors = np.column_stack([rng.integers(0, s, 4) for s in sizes])
        batch = tables.fractions_at(choices, tables.prior_hits(priors))
        assert batch.shape == (9, 4)
        for r, choice in enumerate(choices):
            for s, prior in enumerate(priors):
                hits = [
                    unitaries_similar(
                        candidates[b][choice[b]], candidates[b][prior[b]], originals[b]
                    )
                    for b in range(len(sizes))
                ]
                assert batch[r, s] == sum(hits) / len(sizes)
        with pytest.raises(SelectionError):
            tables.prior_hits([[0, 1, 0, 0]])
