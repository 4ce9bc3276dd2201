"""Property tests: batched selection objective vs. the frozen seed scalar.

The vectorized selection layer (padded gather tables, einsum similarity
construction, ``evaluate_batch``) must reproduce the pre-vectorization
implementation *exactly*.  This module freezes that seed implementation —
per-block Python loops, ``hs_distance`` pair loops, per-prior similarity
loops, left-to-right Python sums — and asserts elementwise equality on
randomized pools.

Exactness note: the generators draw distances as multiples of 1/64 and
thresholds as multiples of 1/128, and keep ``num_blocks`` and the
selected-set size below 8.  Sums of such values are exact in float64 and
numpy's reduction is bitwise identical to a left-to-right Python sum for
fewer than 8 addends, so every comparison below is ``==``, not
``approx`` — reduction-order is genuinely preserved at these sizes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, random_unitary
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.core.similarity import are_similar
from repro.linalg import hs_distance
from repro.partition.blocks import CircuitBlock


# ----------------------------------------------------------------------
# Frozen seed implementation (pre-vectorization)
# ----------------------------------------------------------------------

def seed_tables(
    candidate_unitaries: list[list[np.ndarray]],
    original_unitaries: list[np.ndarray],
) -> list[np.ndarray]:
    """The seed's O(count^2) scalar similarity-table construction."""
    tables = []
    for candidates, original in zip(candidate_unitaries, original_unitaries):
        count = len(candidates)
        to_original = np.array(
            [hs_distance(c, original) for c in candidates]
        )
        table = np.zeros((count, count), dtype=bool)
        for i in range(count):
            table[i, i] = True
            for j in range(i + 1, count):
                mutual = hs_distance(candidates[i], candidates[j])
                similar = are_similar(mutual, to_original[i], to_original[j])
                table[i, j] = table[j, i] = similar
        tables.append(table)
    return tables


def seed_objective_value(
    objective: SelectionObjective,
    tables: list[np.ndarray],
    choice: np.ndarray,
) -> float:
    """The seed's scalar objective: Python loops and left-to-right sums."""
    num_blocks = objective.num_blocks
    distances = [pool.distances() for pool in objective.pools]
    cnots = [pool.cnot_counts() for pool in objective.pools]
    bound = float(
        sum(distances[b][choice[b]] for b in range(num_blocks))
    )
    if bound > objective.threshold:
        return 1.0
    c_norm = (
        int(sum(cnots[b][choice[b]] for b in range(num_blocks)))
        / objective.original_cnot_count
    )
    if not objective.selected:
        return c_norm
    total = sum(
        sum(
            1
            for b in range(num_blocks)
            if tables[b][int(choice[b]), int(prior[b])]
        )
        / num_blocks
        for prior in objective.selected
    )
    m = total / len(objective.selected)
    return objective.weight * m + (1.0 - objective.weight) * c_norm


# ----------------------------------------------------------------------
# Randomized instances
# ----------------------------------------------------------------------

def _build_pools(
    rng: np.random.Generator, pool_sizes: list[int]
) -> list[BlockPool]:
    """Pools with random 1-qubit candidate unitaries and grid distances."""
    pools = []
    for index, size in enumerate(pool_sizes):
        dummy = Circuit(1)
        block = CircuitBlock(index=index, qubits=(index,), circuit=dummy)
        original = random_unitary(2, rng)
        pool = BlockPool(block=block, original_unitary=original)
        pool.candidates.append(
            Candidate(source=dummy, unitary=original, distance=0.0,
                      cnot_count=int(rng.integers(1, 9)))
        )
        for _ in range(size - 1):
            pool.candidates.append(
                Candidate(
                    source=dummy,
                    unitary=random_unitary(2, rng),
                    distance=int(rng.integers(0, 129)) / 64.0,
                    cnot_count=int(rng.integers(0, 9)),
                )
            )
        pools.append(pool)
    return pools


@st.composite
def selection_instances(draw):
    num_blocks = draw(st.integers(min_value=1, max_value=7))
    pool_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=5),
                 min_size=num_blocks, max_size=num_blocks)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    threshold = draw(st.integers(min_value=0, max_value=512)) / 128.0
    weight = draw(st.integers(min_value=0, max_value=16)) / 16.0
    original_cnots = draw(st.integers(min_value=1, max_value=40))
    num_selected = draw(st.integers(min_value=0, max_value=7))
    batch = draw(st.integers(min_value=1, max_value=24))
    return (pool_sizes, seed, threshold, weight, original_cnots,
            num_selected, batch)


def _random_choices(
    rng: np.random.Generator, pool_sizes: list[int], rows: int
) -> np.ndarray:
    return np.column_stack(
        [rng.integers(0, size, rows) for size in pool_sizes]
    )


@settings(max_examples=80, deadline=None)
@given(selection_instances())
def test_evaluate_batch_matches_frozen_seed_objective(instance):
    (pool_sizes, seed, threshold, weight, original_cnots,
     num_selected, batch) = instance
    rng = np.random.default_rng(seed)
    pools = _build_pools(rng, pool_sizes)
    objective = SelectionObjective(
        pools=pools, threshold=threshold,
        original_cnot_count=original_cnots, weight=weight,
    )
    frozen = seed_tables(
        [[c.unitary for c in pool.candidates] for pool in pools],
        [pool.original_unitary for pool in pools],
    )
    # The einsum Gram-matrix tables equal the scalar pair-loop tables.
    for block in range(len(pools)):
        assert np.array_equal(objective.tables._tables[block], frozen[block])

    for prior in _random_choices(rng, pool_sizes, num_selected):
        objective.selected.append(prior.astype(int))
    choices = _random_choices(rng, pool_sizes, batch)

    batched = objective.evaluate_batch(choices)
    assert batched.shape == (batch,)
    for row, choice in enumerate(choices):
        reference = seed_objective_value(objective, frozen, choice)
        # Exact equality: see the module docstring for why no tolerance
        # is needed at these sizes.
        assert batched[row] == reference
        # The scalar path is routed through the same gathers; it must
        # agree bitwise with both the batch row and the seed value.
        assert objective(choice.astype(float)) == reference


@settings(max_examples=30, deadline=None)
@given(selection_instances())
def test_single_point_accessors_match_seed_loops(instance):
    pool_sizes, seed, threshold, weight, original_cnots, _, _ = instance
    rng = np.random.default_rng(seed)
    pools = _build_pools(rng, pool_sizes)
    objective = SelectionObjective(
        pools=pools, threshold=threshold,
        original_cnot_count=original_cnots, weight=weight,
    )
    distances = [pool.distances() for pool in pools]
    cnots = [pool.cnot_counts() for pool in pools]
    for choice in _random_choices(rng, pool_sizes, 8):
        n = len(pools)
        assert objective.choice_cnot_count(choice) == int(
            sum(cnots[b][choice[b]] for b in range(n))
        )
        assert objective.choice_bound(choice) == float(
            sum(distances[b][choice[b]] for b in range(n))
        )


def test_evaluation_counters_track_both_entry_points():
    rng = np.random.default_rng(3)
    pools = _build_pools(rng, [3, 3])
    objective = SelectionObjective(
        pools=pools, threshold=4.0, original_cnot_count=8
    )
    objective(np.array([0.0, 0.0]))
    objective(np.array([1.0, 2.0]))
    assert objective.scalar_evaluations == 2
    assert objective.batched_evaluations == 0
    objective.evaluate_batch(np.array([[0, 0], [1, 1], [2, 2]]))
    assert objective.batched_evaluations == 3
    assert objective.scalar_evaluations == 2
