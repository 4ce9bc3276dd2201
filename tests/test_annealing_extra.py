"""Selection-engine behaviors around the feasibility fallback."""

from __future__ import annotations

from repro.circuits import Circuit
from repro.core import annealing
from repro.core.annealing import select_approximations
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.linalg import hs_distance
from repro.partition.blocks import CircuitBlock


def _pool_with_only_coarse(index: int) -> BlockPool:
    """A pool whose only non-original candidate is very coarse."""
    original = Circuit(2)
    original.cx(0, 1)
    original.rz(0.5, 1)
    original.cx(0, 1)
    block = CircuitBlock(
        index=index, qubits=(2 * index, 2 * index + 1), circuit=original
    )
    original_unitary = original.unitary()
    pool = BlockPool(block=block, original_unitary=original_unitary)
    pool.candidates.append(
        Candidate(
            source=original,
            unitary=original_unitary,
            distance=0.0,
            cnot_count=original.cnot_count(),
        )
    )
    coarse = Circuit(2)
    coarse.rz(3.0, 1)  # Wildly wrong phase, zero CNOTs.
    unitary = coarse.unitary()
    pool.candidates.append(
        Candidate(
            source=coarse,
            unitary=unitary,
            distance=hs_distance(unitary, original_unitary),
            cnot_count=0,
        )
    )
    return pool


def test_falls_back_to_baseline_when_only_coarse_candidates():
    # With a tiny threshold, the coarse candidates are infeasible; the
    # engine must select the all-original choice (QUEST degrades to the
    # Baseline rather than failing or going coarse).
    pools = [_pool_with_only_coarse(i) for i in range(2)]
    objective = SelectionObjective(
        pools=pools, threshold=0.01, original_cnot_count=4
    )
    result = select_approximations(objective, max_samples=4, seed=0)
    assert result.num_selected == 1
    assert list(result.choices[0]) == [0, 0]
    assert result.cnot_counts[0] == 4
    assert result.bounds[0] <= 0.01


def test_fallback_also_taken_on_annealer_path(monkeypatch):
    pools = [_pool_with_only_coarse(i) for i in range(2)]
    objective = SelectionObjective(
        pools=pools, threshold=0.01, original_cnot_count=4
    )
    # Force the dual-annealing branch by disabling exhaustive search.
    monkeypatch.setattr(annealing, "EXHAUSTIVE_CUTOFF", 0)
    monkeypatch.setattr(annealing, "ANNEALING_MAXITER", 50)
    result = select_approximations(objective, max_samples=2, seed=0)
    assert result.num_selected >= 1
    assert result.bounds[0] <= 0.01


def test_selected_set_cleared_between_runs():
    pools = [_pool_with_only_coarse(0)]
    objective = SelectionObjective(
        pools=pools, threshold=1.0, original_cnot_count=2
    )
    first = select_approximations(objective, max_samples=2, seed=0)
    second = select_approximations(objective, max_samples=2, seed=0)
    assert [list(c) for c in first.choices] == [
        list(c) for c in second.choices
    ]
    assert len(objective.selected) == second.num_selected


def test_choice_arrays_are_copies():
    pools = [_pool_with_only_coarse(0)]
    objective = SelectionObjective(
        pools=pools, threshold=1.0, original_cnot_count=2
    )
    result = select_approximations(objective, max_samples=2, seed=0)
    snapshot = [c.copy() for c in result.choices]
    for choice in result.choices:
        choice += 100  # Mutating the returned arrays...
    fresh = select_approximations(objective, max_samples=2, seed=0)
    # ...must not corrupt later selections.
    assert [list(c) for c in fresh.choices] == [list(c) for c in snapshot]


def test_raises_when_pool_has_no_feasible_candidate():
    import pytest

    from repro.exceptions import SelectionError

    original = Circuit(2)
    original.cx(0, 1)
    block = CircuitBlock(index=0, qubits=(0, 1), circuit=original)
    pool = BlockPool(block=block, original_unitary=original.unitary())
    coarse = Circuit(2)
    coarse.rz(3.0, 1)
    pool.candidates.append(
        Candidate(
            source=coarse,
            unitary=coarse.unitary(),
            distance=hs_distance(coarse.unitary(), original.unitary()),
            cnot_count=0,
        )
    )
    objective = SelectionObjective(
        pools=[pool], threshold=0.01, original_cnot_count=1
    )
    with pytest.raises(SelectionError):
        select_approximations(objective, max_samples=2, seed=0)
