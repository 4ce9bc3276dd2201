"""QUEST core: similarity, Algorithm-1 objective, selection, pipeline."""

from repro.core.annealing import SelectionResult, select_approximations
from repro.core.bounds import BoundCheck, total_bound, verify_bound
from repro.core.ensemble import ensemble_distribution
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate, build_pool, exact_pool
from repro.core.quest import (
    QuestConfig,
    QuestResult,
    QuestTimings,
    run_quest,
)
from repro.core.similarity import (
    BlockSimilarityTables,
    are_similar,
)

__all__ = [
    "run_quest",
    "QuestConfig",
    "QuestResult",
    "QuestTimings",
    "SelectionObjective",
    "SelectionResult",
    "select_approximations",
    "BlockPool",
    "Candidate",
    "build_pool",
    "exact_pool",
    "BlockSimilarityTables",
    "are_similar",
    "total_bound",
    "verify_bound",
    "BoundCheck",
    "ensemble_distribution",
]
