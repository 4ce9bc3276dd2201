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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import tfim
from repro.circuits import Circuit, random_unitary
from repro.core.annealing import EXHAUSTIVE_CUTOFF, select_approximations
from repro.core.objective import SIMILARITY_WEIGHT, SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.core.similarity import are_similar
from repro.linalg import hs_distance
from repro.partition.blocks import CircuitBlock
from repro.partition.scan import scan_partition
from repro.transpile.basis import lower_to_basis


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
    return SIMILARITY_WEIGHT * m + (1.0 - SIMILARITY_WEIGHT) * c_norm


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
    original_cnots = draw(st.integers(min_value=1, max_value=40))
    num_selected = draw(st.integers(min_value=0, max_value=7))
    batch = draw(st.integers(min_value=1, max_value=24))
    return (pool_sizes, seed, threshold, original_cnots, num_selected, batch)


def _random_choices(
    rng: np.random.Generator, pool_sizes: list[int], rows: int
) -> np.ndarray:
    return np.column_stack(
        [rng.integers(0, size, rows) for size in pool_sizes]
    )


@settings(max_examples=80, deadline=None)
@given(selection_instances())
def test_evaluate_batch_matches_frozen_seed_objective(instance):
    pool_sizes, seed, threshold, original_cnots, num_selected, batch = instance
    rng = np.random.default_rng(seed)
    pools = _build_pools(rng, pool_sizes)
    objective = SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
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
        assert objective(choice) == reference


@settings(max_examples=30, deadline=None)
@given(selection_instances())
def test_single_point_accessors_match_seed_loops(instance):
    pool_sizes, seed, threshold, original_cnots, _, _ = instance
    rng = np.random.default_rng(seed)
    pools = _build_pools(rng, pool_sizes)
    objective = SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
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


def test_evaluation_counters_track_both_entry_points(counters):
    rng = np.random.default_rng(3)
    pools = _build_pools(rng, [3, 3])
    objective = SelectionObjective(
        pools=pools, threshold=4.0, original_cnot_count=8
    )
    objective(np.array([0, 0]))
    objective(np.array([1, 2]))
    assert counters() == {"selection.scalar_evals": 2}
    objective.evaluate_batch(np.array([[0, 0], [1, 1], [2, 2]]))
    assert counters() == {"selection.scalar_evals": 2, "selection.batch_evals": 3}


# ----------------------------------------------------------------------
# A real partition: TFIM-8 at 2-qubit blocks
# ----------------------------------------------------------------------

def _truncated(circuit: Circuit, dropped: int) -> Circuit:
    """Prefix of ``circuit`` ending before its ``dropped``-th last CNOT."""
    kept = []
    cnots_seen = 0
    total = circuit.cnot_count()
    for op in circuit.operations:
        if op.name == "cx":
            cnots_seen += 1
            if cnots_seen > total - dropped:
                break
        kept.append(op)
    return Circuit(circuit.num_qubits, kept)


def _tfim8_objective() -> SelectionObjective:
    """14 blocks, each pooling its exact circuit and a one-CNOT
    truncation of it: 2^14 points, inside the exhaustive cutoff."""
    baseline = lower_to_basis(tfim(8, steps=2).without_measurements())
    pools = []
    for block in scan_partition(baseline, 2):
        original = block.unitary()
        pool = BlockPool(block=block, original_unitary=original)
        for circuit in (block.circuit, _truncated(block.circuit, 1)):
            unitary = circuit.unitary()
            pool.candidates.append(
                Candidate(
                    unitary=unitary,
                    distance=hs_distance(unitary, original),
                    cnot_count=circuit.cnot_count(),
                    source=circuit,
                )
            )
        pools.append(pool)
    return SelectionObjective(
        pools=pools,
        threshold=0.2 * len(pools),
        original_cnot_count=baseline.cnot_count(),
    )


def _every_choice(sizes: list[int]) -> np.ndarray:
    """The whole search space in odometer order (block 0 fastest)."""
    strides = np.concatenate(([1], np.cumprod(sizes[:-1])))
    points = np.arange(int(np.prod(sizes)))
    return (points[:, None] // strides[None, :]) % np.array(sizes)[None, :]


def test_exhaustive_rounds_score_the_whole_space_in_one_batch(counters):
    # Every exhaustive round scores its whole space through
    # evaluate_batch and makes one scalar call, for the winner's value.
    objective = _tfim8_objective()
    space = int(np.prod([pool.size for pool in objective.pools]))
    assert objective.num_blocks == 14 and space <= EXHAUSTIVE_CUTOFF
    select_approximations(objective, max_samples=4, seed=0)
    rounds = counters()["selection.rounds"]
    assert rounds >= 1
    assert counters()["selection.scalar_evals"] == rounds
    assert counters()["selection.batch_evals"] == rounds * space


@pytest.mark.slow
def test_exhaustive_selection_matches_the_seed_engine_at_fourteen_blocks():
    # The seed engine: an odometer over every point, each scored by the
    # seed scalar, keeping the first minimum; rounds stop on a repeat.
    # Fourteen blocks sum more addends than the exactness note above
    # covers, and this instance still matches bit for bit.
    objective = _tfim8_objective()
    tables = seed_tables(
        [[c.unitary for c in pool.candidates] for pool in objective.pools],
        [pool.original_unitary for pool in objective.pools],
    )
    points = _every_choice([pool.size for pool in objective.pools])
    seed = SelectionObjective(
        pools=objective.pools,
        threshold=objective.threshold,
        original_cnot_count=objective.original_cnot_count,
    )
    seed_choices: list[np.ndarray] = []
    for _ in range(4):
        seed.selected = list(seed_choices)
        values = np.array([seed_objective_value(seed, tables, p) for p in points])
        objective.selected = list(seed_choices)
        assert np.array_equal(objective.evaluate_batch(points), values)
        assert values.min() < 1.0  # a feasible minimum: no fallback round
        choice = points[int(np.argmin(values))]
        if any(np.array_equal(choice, prior) for prior in seed_choices):
            break
        seed_choices.append(choice)

    objective.selected = []
    result = select_approximations(objective, max_samples=4, seed=0)
    assert len(result.choices) == len(seed_choices)
    for ours, reference in zip(result.choices, seed_choices):
        assert np.array_equal(ours, reference)
