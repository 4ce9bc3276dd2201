"""Regression tests for the correctness-bugfix sweep.

Each test pins one fixed bug:

* per-run dual-annealing seeds drawn as bounded ``rng.integers`` (weak,
  collision-prone single-integer seeding) — now spawned
  ``SeedSequence`` children;
* the executor's exact-pool fallback only ``warnings.warn``-ed, leaving
  no structured record of the degradation.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import tfim
from repro.core import annealing as annealing_module
from repro.core.annealing import AnnealedChoice, select_approximations
from repro.core.quest import QuestConfig
from repro.partition.scan import scan_partition
from repro.resilience.faults import parse_fault_spec
from repro.resilience.retry import FAILURE_FALLBACK
from repro.transpile.basis import lower_to_basis
from tests.helpers import run_executor


# ----------------------------------------------------------------------
# Annealer seed derivation (annealing.py)
# ----------------------------------------------------------------------
class _FakeObjective:
    """Just enough of SelectionObjective to drive the annealer loop."""

    def __init__(self, num_blocks: int = 2, pool_size: int = 4) -> None:
        self.pools = [
            SimpleNamespace(size=pool_size) for _ in range(num_blocks)
        ]
        self.num_blocks = num_blocks
        self.threshold = 10.0
        self.selected: list[np.ndarray] = []

    def scorer(self):
        return None  # The fake annealer never scores.

    def __call__(self, x):
        return float(np.sum(x))

    def choice_bound(self, choice):
        return 0.0

    def choice_cnot_count(self, choice):
        return int(np.sum(choice))


def _capture_annealer_seeds(monkeypatch, seed, max_samples=3):
    captured = []

    def fake_dual_annealing(scorer, maxiter, rng, **kwargs):
        captured.append(rng)
        # Distinct choices per run so the repeat stopping rule never
        # fires before max_samples.
        choice = np.full(2, len(captured) % 4)
        return AnnealedChoice(choice, float(np.sum(choice)), 1)

    monkeypatch.setattr(
        annealing_module, "dual_annealing", fake_dual_annealing
    )
    # Force the annealer path.
    monkeypatch.setattr(annealing_module, "EXHAUSTIVE_CUTOFF", 0)
    select_approximations(_FakeObjective(), max_samples=max_samples, seed=seed)
    return captured


def test_annealer_run_seeds_are_spawned_seedsequence_children(monkeypatch):
    captured = _capture_annealer_seeds(monkeypatch, seed=42)
    assert len(captured) == 3
    # Generators, not bounded ints: full-entropy independent streams.
    assert all(isinstance(s, np.random.Generator) for s in captured)
    expected = np.random.SeedSequence(42).spawn(3)
    for generator, child in zip(captured, expected):
        assert generator.integers(2**63) == np.random.default_rng(
            child
        ).integers(2**63)


def test_annealer_seed_accepts_a_seedsequence(monkeypatch):
    root = np.random.SeedSequence(7)
    captured = _capture_annealer_seeds(monkeypatch, seed=root)
    expected = np.random.SeedSequence(7).spawn(3)
    for generator, child in zip(captured, expected):
        assert generator.integers(2**63) == np.random.default_rng(
            child
        ).integers(2**63)


def test_annealer_run_streams_are_pairwise_distinct(monkeypatch):
    captured = _capture_annealer_seeds(monkeypatch, seed=0)
    draws = [g.integers(2**63, size=4).tolist() for g in captured]
    assert len({tuple(d) for d in draws}) == len(draws)


# ----------------------------------------------------------------------
# Structured fallback records (executor.py)
# ----------------------------------------------------------------------
CONFIG = QuestConfig(
    seed=3,
    max_block_qubits=2,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)


def test_fallback_degradation_is_recorded_structurally():
    """The exact-pool downgrade must leave a FailureRecord, not only a
    RuntimeWarning."""
    baseline = lower_to_basis(tfim(3, steps=1).without_measurements())
    blocks = scan_partition(baseline, CONFIG.max_block_qubits)
    rng = np.random.default_rng(CONFIG.seed)
    seeds = [int(rng.integers(2**31 - 1)) for _ in blocks]
    with pytest.warns(RuntimeWarning, match="falling back to the exact block"):
        pools, stats = run_executor(
            blocks,
            CONFIG,
            seeds,
            max_attempts=2,
            fault_injector=parse_fault_spec("raise@*:0,raise@*:1"),
        )
    fallback_records = [
        r for r in stats.failure_log if r.kind == FAILURE_FALLBACK
    ]
    assert fallback_records
    for record in fallback_records:
        assert record.attempt == 2  # terminal: after max_attempts
        assert "degraded to exact block" in record.message
        assert "InjectedFault" in record.message
