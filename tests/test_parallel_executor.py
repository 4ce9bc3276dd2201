"""Fault injection and accounting tests for the synthesis executor.

Faults reach a block the way CI injects them: through a
:class:`~repro.resilience.faults.FaultInjector` schedule, which fires
around each synthesis attempt inline and in worker processes alike.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

import repro.parallel.substrate as substrate_module
from repro.algorithms import tfim
from repro.core.quest import QuestConfig, QuestTimings, run_quest
from repro.observability import Record, use_record
from repro.parallel.executor import BlockSynthesisExecutor
from repro.parallel.pool_manager import PersistentWorkerPool
from repro.partition.scan import scan_partition
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, parse_fault_spec
from repro.transpile.basis import lower_to_basis
from tests.helpers import fallback_blocks, run_executor, substrate_for

CONFIG = QuestConfig(
    seed=3,
    max_samples=3,
    max_block_qubits=2,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)


def _blocks():
    baseline = lower_to_basis(tfim(4, steps=1).without_measurements())
    return scan_partition(baseline, CONFIG.max_block_qubits)


def _seeds(blocks):
    rng = np.random.default_rng(CONFIG.seed)
    return [int(rng.integers(2**31 - 1)) for _ in blocks]


def _hangs(spec: str, monkeypatch) -> FaultInjector:
    """An injector whose ``hang`` faults outlast every hard timeout here,
    and whose workers, forked after the patch, exit within 5 s."""
    monkeypatch.setattr(faults, "HANG_SECONDS", 5.0)
    return FaultInjector(parse_fault_spec(spec).specs)


# ----------------------------------------------------------------------
# Fallback semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "process-pool"])
def test_raising_worker_degrades_to_exact_pool(workers):
    blocks = _blocks()
    with pytest.warns(RuntimeWarning, match="falling back to the exact block"):
        pools, stats = run_executor(
            blocks,
            CONFIG,
            _seeds(blocks),
            workers=workers,
            fault_injector=parse_fault_spec("raise@*:0"),
        )
    assert len(pools) == len(blocks)
    nontrivial = [
        i
        for i, b in enumerate(blocks)
        if b.num_qubits > 1 and b.circuit.cnot_count() > 0
    ]
    assert fallback_blocks(stats.failure_log) == nontrivial
    for index in nontrivial:
        pool = pools[index]
        # The exact-block singleton: one candidate, distance zero, the
        # original circuit itself.
        assert pool.size == 1
        assert pool.candidates[0].distance == 0.0
        assert pool.candidates[0].circuit == blocks[index].circuit


def test_partial_failure_only_degrades_the_failing_block():
    blocks = _blocks()
    with pytest.warns(RuntimeWarning):
        pools, stats = run_executor(
            blocks,
            CONFIG,
            _seeds(blocks),
            fault_injector=parse_fault_spec("raise@0:0"),
        )
    # Blocks 0 and 1 are content-identical, so they dedup to a single
    # job (the injected fault is index-keyed, but real synthesis depends
    # only on content): the failing job degrades exactly the blocks it
    # serves, and no unrelated block.
    assert fallback_blocks(stats.failure_log) == [0, 1]
    assert pools[0].size == 1
    assert pools[1].size == 1
    # The unrelated block still produced real approximations.
    assert any(pool.size > 1 for pool in pools[2:])


def test_timed_out_worker_degrades_to_exact_pool(monkeypatch):
    blocks = _blocks()[:1]
    start = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="TimeoutError"):
        pools, stats = run_executor(
            blocks,
            CONFIG,
            _seeds(blocks),
            workers=2,
            hard_timeout=0.3,
            fault_injector=_hangs("hang@*", monkeypatch),
        )
    elapsed = time.perf_counter() - start
    assert fallback_blocks(stats.failure_log) == [0]
    assert pools[0].size == 1
    # The run must not have waited for the hung worker's full sleep.
    assert elapsed < 4.0


def test_run_quest_completes_despite_universal_worker_failure():
    faults = parse_fault_spec("raise@*:0,raise@*:1")
    with pytest.warns(RuntimeWarning):
        result = run_quest(tfim(4, steps=1), CONFIG, fault_injector=faults)
    # Every pool degraded to the exact block, so QUEST returns the
    # baseline itself: a completed run, never a crash.
    assert result.circuits
    assert result.synthesis_fallbacks
    assert result.best_cnot_count == result.original_cnot_count
    # Timings still reconcile after the fallback path.
    timings = result.timings
    assert timings.total_seconds == pytest.approx(
        timings.partition_seconds
        + timings.synthesis_seconds
        + timings.selection_seconds
    )


# ----------------------------------------------------------------------
# Persistent pool reuse / recycling
# ----------------------------------------------------------------------
def test_retry_rounds_reuse_one_persistent_pool(counters):
    """A plain worker exception leaves the pool healthy: the retry round
    reuses it instead of paying pool construction again."""
    blocks = _blocks()
    with pytest.warns(RuntimeWarning):
        pools, stats = run_executor(
            blocks,
            CONFIG,
            _seeds(blocks),
            workers=2,
            fault_injector=parse_fault_spec("raise@0:0,raise@0:1"),
            max_attempts=2,
        )
    assert fallback_blocks(stats.failure_log)  # the injected failure did exhaust retries
    assert counters()["pool.rounds"] == 2
    assert counters()["pool.created"] == 1  # so 1 round reused the pool
    assert "pool.recycles" not in counters()


def test_hard_timeout_recycles_the_persistent_pool(counters, monkeypatch):
    """A hung worker marks the pool unhealthy; the next round gets a
    fresh pool rather than inheriting the occupied process."""
    blocks = _blocks()[:1]
    with pytest.warns(RuntimeWarning, match="TimeoutError"):
        pools, stats = run_executor(
            blocks,
            CONFIG,
            _seeds(blocks),
            workers=2,
            hard_timeout=0.3,
            fault_injector=_hangs("hang@*:0,hang@*:1", monkeypatch),
            max_attempts=2,
        )
    assert fallback_blocks(stats.failure_log) == [0]
    assert counters()["pool.rounds"] == 2
    assert counters()["pool.created"] == 2
    assert counters()["pool.recycles"] == 1


def test_solo_run_shuts_its_pool_down_before_it_returns(monkeypatch):
    """A solo run opens a private substrate: its pool served the run's
    synthesis and is shut down by the time ``run_quest`` returns, and
    nothing joined its private registry."""
    opened = []

    class RecordingPool(PersistentWorkerPool):
        def __init__(self, workers):
            super().__init__(workers)
            opened.append(self)

    monkeypatch.setattr(substrate_module, "PersistentWorkerPool", RecordingPool)
    result = run_quest(tfim(4, steps=1), replace(CONFIG, workers=2))
    assert len(opened) == 1
    counters = result.metrics["counters"]
    assert counters["pool.created"] == 1
    assert not [name for name in counters if name.startswith("dedup.")]
    with pytest.raises(RuntimeError, match="shut down"):
        opened[0].submit(time.time)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def test_timings_total_reconciles_with_per_block_list():
    timings = QuestTimings(
        partition_seconds=0.5,
        synthesis_seconds=2.0,
        selection_seconds=1.0,
        block_synthesis_seconds=[0.9, 0.0, 0.8],
    )
    # The per-block entries are detail *within* synthesis_seconds, not an
    # extra term: the total is exactly the three phases.
    assert timings.total_seconds == pytest.approx(3.5)


def test_stats_counters_partition_the_blocks(tmp_path):
    blocks = _blocks()
    seeds = _seeds(blocks)
    trivial = sum(
        1
        for b in blocks
        if b.num_qubits == 1 or b.circuit.cnot_count() == 0
    )
    with use_record(Record()) as registry:
        pools, stats = run_executor(blocks, CONFIG, seeds, store=tmp_path)
    counts = registry.snapshot()["counters"]
    hits, misses = counts["cache.hit"], counts["cache.miss"]
    assert hits + misses + trivial == len(blocks)
    assert len(stats.block_seconds) == len(blocks)
    # Only synthesized blocks carry nonzero per-block time.
    assert sum(1 for s in stats.block_seconds if s > 0) == misses

    with use_record(Record()) as registry:
        pools_nc, _ = run_executor(blocks, CONFIG, seeds)
    counts_nc = registry.snapshot()["counters"]
    # Without a store, repeats still dedup to one dispatched job each
    # and count as cache hits; nothing joins a private registry.
    assert counts_nc["cache.hit"] == hits
    assert counts_nc["cache.miss"] == misses
    assert "dedup.hits" not in counts_nc
    # With and without a store, the pools are identical.
    for a, b in zip(pools, pools_nc):
        assert a.cnot_counts().tolist() == b.cnot_counts().tolist()
        assert a.distances().tolist() == b.distances().tolist()


def test_executor_argument_validation():
    blocks = _blocks()
    with pytest.raises(ValueError, match="seeds"):
        BlockSynthesisExecutor(substrate_for()).run(blocks, CONFIG, [1, 2])
