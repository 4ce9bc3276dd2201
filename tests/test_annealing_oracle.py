"""The in-repo annealer against scipy's, bit for bit.

:func:`repro.core.annealing.dual_annealing` is scipy's
``dual_annealing(no_local_search=True)`` written out over integer
choices.  ``tests/annealing_oracle.py`` runs scipy's own annealer over
the continuous box the selection used to search; every choice, value
and evaluation count here is compared with ``==``.  Instances span 1-16
blocks, thresholds that reject some choices, and priors.  A ``maxiter``
of 1,247 is where scipy first re-anneals at its default temperatures.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import _dual_annealing

from repro.core import annealing
from repro.core.annealing import dual_annealing, select_approximations
from tests import annealing_oracle
from tests.helpers import counted
from tests.objective_oracle import FrozenObjective
from tests.test_objective_oracle import _choices, _objective, _pools

#: The first ``maxiter`` at which scipy's default schedule re-anneals.
FIRST_RESTART = 1247


def _rejecting_objective(rng, num_blocks):
    """A random objective whose threshold rejects some choices."""
    sizes = rng.integers(1, 13, num_blocks)
    sizes[0] = max(sizes[0], 3)  # at least one choice is rejected
    pools = _pools(rng, sizes)
    largest = sum(pool.distances().max() for pool in pools)
    objective = _objective(
        pools,
        threshold=float(rng.uniform(0.2, 0.8)) * largest,
        original_cnots=int(rng.integers(1, 60)),
    )
    assert not objective.scorer().always_feasible
    return objective


def _assert_same_selection(objective, max_samples, maxiter, seed, score=None):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annealing, "EXHAUSTIVE_CUTOFF", 0)
        patch.setattr(annealing, "ANNEALING_MAXITER", maxiter)
        result, counts = counted(select_approximations, objective, max_samples, seed)
    choices, values, evaluations = annealing_oracle.select(
        objective, max_samples, maxiter, seed, score
    )
    assert [c.tolist() for c in result.choices] == [c.tolist() for c in choices]
    assert result.objective_values == values
    assert counts["selection.scalar_evals"] == evaluations
    return result


def _assert_same_run(objective, maxiter, seed, maxfun=annealing._MAXFUN):
    ours = dual_annealing(objective.scorer(), maxiter, np.random.default_rng(seed))
    choice, value, nfev = annealing_oracle.anneal(
        objective, maxiter, np.random.default_rng(seed), maxfun=maxfun
    )
    assert ours.choice.tolist() == choice.tolist()
    assert ours.value == value
    assert ours.evaluations == nfev
    return ours


def test_selection_equals_scipy_on_random_instances():
    rng = np.random.default_rng(31)
    for num_blocks in (1, 2, 3, 4, 6, 9, 12, 16):
        objective = _rejecting_objective(rng, num_blocks)
        # Re-annealing is cheap to reach on few blocks only.
        maxiter = FIRST_RESTART + 3 if num_blocks <= 3 else 60
        result = _assert_same_selection(
            objective, 4, maxiter, int(rng.integers(2**32))
        )
        assert result.num_selected >= 1


def test_runs_equal_scipy_against_many_priors():
    rng = np.random.default_rng(7)
    for num_blocks in range(1, 17):
        objective = _rejecting_objective(rng, num_blocks)
        sizes = [pool.size for pool in objective.pools]
        objective.selected.extend(_choices(rng, sizes, int(rng.integers(0, 17))))
        _assert_same_run(objective, int(rng.integers(1, 40)), int(rng.integers(2**32)))


def test_re_annealing_equals_scipy():
    rng = np.random.default_rng(5)
    for num_blocks in (1, 2, 3):
        objective = _rejecting_objective(rng, num_blocks)
        objective.selected.append(np.zeros(num_blocks, dtype=int))
        maxiter = 2 * FIRST_RESTART + 10
        run = _assert_same_run(objective, maxiter, int(rng.integers(2**32)))
        # One evaluation per visit, plus the start and each restart.
        restarts = run.evaluations - 1 - maxiter * 2 * num_blocks
        assert restarts == 2


def test_a_feasible_box_skips_no_visit():
    # Thresholds above every choice's bound take the loop's shortcut.
    rng = np.random.default_rng(9)
    for num_blocks in (2, 7):
        pools = _pools(rng, rng.integers(2, 9, num_blocks))
        objective = _objective(pools, threshold=1e9)
        assert objective.scorer().always_feasible
        _assert_same_selection(objective, 3, 80, 11)


def test_tail_clamps_equal_scipy(monkeypatch):
    # Visits longer than the tail limit are replaced by a uniform share
    # of it, on both sides; a small limit takes that branch at every
    # temperature and in both kinds of visit.
    limit = 0.75
    monkeypatch.setattr(annealing, "_TAIL_LIMIT", limit)
    monkeypatch.setattr(_dual_annealing.VisitingDistribution, "TAIL_LIMIT", limit)
    rng = np.random.default_rng(3)
    for num_blocks in (1, 5, 16):
        objective = _rejecting_objective(rng, num_blocks)
        _assert_same_run(objective, 50, int(rng.integers(2**32)))


def test_evaluation_limit_equals_scipy(monkeypatch):
    # A run stops after 10**7 evaluations, checked after each visit only:
    # a lower limit stops at the first visit, mid-run, and one visit late
    # when a re-anneal's evaluation reaches it (1 block: 2 visits a step,
    # 1,246 steps before the first re-anneal).
    rng = np.random.default_rng(4)
    restart = 1 + 2 * (FIRST_RESTART - 1) + 1
    cases = ((5, 100, 1, 2), (5, 100, 137, 137), (1, 1300, restart, restart + 1))
    for num_blocks, maxiter, maxfun, evaluations in cases:
        objective = _rejecting_objective(rng, num_blocks)
        monkeypatch.setattr(annealing, "_MAXFUN", maxfun)
        run = _assert_same_run(objective, maxiter, 8, maxfun=maxfun)
        assert run.evaluations == evaluations


def test_selection_scores_equal_the_frozen_oracle():
    # Scipy over the frozen per-call scorer keeps the compiled scorer
    # out of the reference altogether.
    rng = np.random.default_rng(12)
    for num_blocks in (2, 7):
        objective = _rejecting_objective(rng, num_blocks)
        frozen = FrozenObjective(objective)
        _assert_same_selection(objective, 4, 40, 21, score=frozen)


@pytest.mark.slow
def test_wide_selection_with_re_annealing_equals_scipy():
    rng = np.random.default_rng(41)
    for num_blocks in (5, 8, 16):
        objective = _rejecting_objective(rng, num_blocks)
        _assert_same_selection(
            objective, 2, FIRST_RESTART + 3, int(rng.integers(2**32))
        )
