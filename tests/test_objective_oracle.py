"""The compiled objective against its frozen per-call oracle, bit for bit.

``SelectionObjective`` scores annealer points from tables compiled ahead
of the call (flat CNOT and distance rows at construction, the selected
priors once per change of ``selected``).  ``tests/objective_oracle.py``
keeps the per-call scorer it replaced.  Every value here is compared
with ``==``: the compiled path reduces the same elements in the same
order, so no tolerance is needed at any size.  Instances span 1-16
blocks, which covers both numpy's short-sum regime (fewer than 8
addends, where it equals left-to-right addition) and its pairwise one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit, random_unitary
from repro.core import annealing
from repro.core.annealing import EXHAUSTIVE_CUTOFF, select_approximations
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.exceptions import SelectionError
from repro.partition.blocks import CircuitBlock
from tests import annealing_oracle
from tests.annealing_oracle import decode
from tests.helpers import counted
from tests.objective_oracle import FrozenObjective


def _pools(rng: np.random.Generator, sizes) -> list[BlockPool]:
    """Pools of random 1-qubit candidates with generic float distances."""
    pools = []
    for index, size in enumerate(sizes):
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
                    distance=float(rng.uniform(0.0, 0.4)),
                    cnot_count=int(rng.integers(0, 9)),
                )
            )
        pools.append(pool)
    return pools


def _choices(rng: np.random.Generator, sizes, rows: int) -> np.ndarray:
    return np.column_stack([rng.integers(0, size, rows) for size in sizes])


def _points(rng: np.random.Generator, sizes, count: int) -> list[np.ndarray]:
    """Annealer points inside, on and outside the box bounds."""
    sizes = np.asarray(sizes, dtype=float)
    points = [
        rng.uniform(0.0, sizes),  # inside, non-integer
        rng.uniform(-4.0, sizes + 4.0),  # partly outside
        -rng.uniform(0.0, 3.0, len(sizes)),  # negative
        sizes - 1e-9,  # the upper box bound
        np.floor(rng.uniform(0.0, sizes)),  # exact integers
        np.full(len(sizes), np.nan),
        np.full(len(sizes), np.inf),
    ]
    points += [rng.uniform(-1.0, sizes + 1.0) for _ in range(count)]
    return points


def _assert_matches(objective, oracle, points) -> None:
    with np.errstate(invalid="ignore"):  # NaN and inf decode to index 0
        for x in points:
            assert objective(decode(objective, x)) == oracle(x)


def _instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        num_blocks = int(rng.integers(1, 17))
        sizes = rng.integers(1, 25, num_blocks)
        pools = _pools(rng, sizes)
        yield rng, sizes, pools


def _objective(pools, threshold, original_cnots=40):
    return SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
    )


def test_compiled_call_equals_the_oracle_on_random_instances():
    for rng, sizes, pools in _instances(40, seed=11):
        probe = _objective(pools, threshold=0.0)
        # Thresholds sit exactly at a choice's bound, between bounds, or
        # above every bound.
        at_bound = probe.choice_bound(_choices(rng, sizes, 1)[0])
        for threshold in (at_bound, float(rng.uniform(0, 0.2 * len(sizes))), 1e9):
            objective = _objective(
                pools, threshold, original_cnots=int(rng.integers(1, 60))
            )
            oracle = FrozenObjective(objective)
            num_priors = int(rng.integers(0, 17))
            for prior in _choices(rng, sizes, num_priors):
                _assert_matches(objective, oracle, _points(rng, sizes, 6))
                objective.selected.append(prior)
            _assert_matches(objective, oracle, _points(rng, sizes, 12))
            # Every batched row equals the per-call value of that row.
            choices = _choices(rng, sizes, 32)
            batched = objective.evaluate_batch(choices)
            for row, choice in enumerate(choices):
                assert batched[row] == oracle(choice.astype(float))


def test_threshold_at_a_choices_bound_is_feasible():
    rng = np.random.default_rng(5)
    sizes = [24] * 12
    pools = _pools(rng, sizes)
    for choice in _choices(rng, sizes, 20):
        probe = _objective(pools, threshold=0.0)
        objective = _objective(pools, threshold=probe.choice_bound(choice))
        oracle = FrozenObjective(objective)
        value = objective(choice)
        assert value == oracle(choice.astype(float))
        # Not rejected: the score is the normalized CNOT count.
        assert value == objective.choice_cnot_count(choice) / 40


def test_prior_cache_never_serves_stale_priors():
    rng = np.random.default_rng(23)
    sizes = [3, 7, 5, 9, 4, 6, 8, 2, 7, 5]
    pools = _pools(rng, sizes)
    objective = _objective(pools, threshold=2.0)
    oracle = FrozenObjective(objective)
    points = _points(rng, sizes, 16)
    choices = _choices(rng, sizes, 8)

    def check():
        _assert_matches(objective, oracle, points)
        expected = [oracle(choice.astype(float)) for choice in choices]
        assert list(objective.evaluate_batch(choices)) == expected

    check()
    for prior in _choices(rng, sizes, 4):  # append
        objective.selected.append(prior)
        check()
    objective.selected.clear()  # clear
    check()
    objective.selected.extend(_choices(rng, sizes, 3))
    check()
    for position in range(3):  # replace one element, equal length
        objective.selected[position] = _choices(rng, sizes, 1)[0]
        check()
    objective.selected = list(_choices(rng, sizes, 3))  # reassign
    check()
    objective.selected = list(objective.selected)  # same elements, new list
    check()
    # Replace-and-drop churn: a dropped prior's id must not be able to
    # come back as a new prior's while the cache still holds it.
    for _ in range(50):
        objective.selected[-1] = _choices(rng, sizes, 1)[0].copy()
        _assert_matches(objective, oracle, points[:4])
    objective.selected = []
    check()


def test_out_of_range_prior_raises_from_both_entry_points():
    rng = np.random.default_rng(2)
    sizes = [3, 4, 5]
    pools = _pools(rng, sizes)
    for bad in ([0, 4, 0], [-1, 0, 0], [0, 0, 5]):
        objective = _objective(pools, threshold=10.0)
        objective.selected.append(np.array(bad))
        with pytest.raises(SelectionError):
            objective(np.zeros(3, dtype=int))
        with pytest.raises(SelectionError):
            objective.evaluate_batch(np.zeros((2, 3), dtype=int))
        # Replacing the bad prior recovers: the failed compile left
        # nothing behind.
        objective.selected[0] = np.array([2, 3, 4])
        assert objective(np.zeros(3, dtype=int)) == FrozenObjective(objective)(
            np.zeros(3)
        )


def test_annealed_selection_is_identical_with_the_oracle(monkeypatch):
    # The compiled scorer inside the in-repo annealer against scipy's
    # annealer over the frozen per-call scorer.
    rng = np.random.default_rng(17)
    sizes = [5, 6, 5, 4, 6, 5, 4]
    assert int(np.prod(sizes)) > EXHAUSTIVE_CUTOFF  # so it anneals
    pools = _pools(rng, sizes)
    objective = _objective(pools, threshold=0.6)
    monkeypatch.setattr(annealing, "ANNEALING_MAXITER", 120)
    compiled, counts = counted(
        select_approximations, objective, max_samples=6, seed=4
    )
    choices, values, evaluations = annealing_oracle.select(
        objective, 6, 120, 4, score=FrozenObjective(objective)
    )
    assert counts["selection.scalar_evals"] > 0
    assert compiled.num_selected > 1  # the similarity term was scored
    assert counts["selection.scalar_evals"] == evaluations
    assert compiled.objective_values == values
    assert len(compiled.choices) == len(choices)
    for a, b in zip(compiled.choices, choices):
        assert np.array_equal(a, b)
