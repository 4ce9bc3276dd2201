"""Executor retry flow: every attempt reruns the block's own seed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import tfim
from repro.core.quest import QuestConfig
from repro.observability import ListSink, Tracer, use_tracer
from repro.parallel.executor import BlockSynthesisExecutor
from repro.partition.scan import scan_partition
from repro.resilience import FaultInjector, FaultSpec
from repro.resilience.retry import (
    FAILURE_EXCEPTION,
    FAILURE_FALLBACK,
    FAILURE_VALIDATION,
)
from repro.transpile.basis import lower_to_basis
from tests.helpers import fallback_blocks

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


def _pools_equal(pools_a, pools_b):
    assert len(pools_a) == len(pools_b)
    for a, b in zip(pools_a, pools_b):
        assert a.cnot_counts().tolist() == b.cnot_counts().tolist()
        assert a.distances().tolist() == b.distances().tolist()
        for ca, cb in zip(a.candidates, b.candidates):
            assert np.array_equal(ca.unitary, cb.unitary)


def _log_keys(stats):
    return [(r.block_index, r.attempt, r.kind) for r in stats.failure_log]


def _assert_matches_inline(run, pools, stats):
    """Inline and pool rounds settle alike: same failure log, same pools."""
    inline_pools, inline_stats = run(1)
    assert _log_keys(stats) == _log_keys(inline_stats)
    _pools_equal(inline_pools, pools)


def test_max_attempts_must_be_positive():
    with pytest.raises(ValueError, match="max_attempts"):
        BlockSynthesisExecutor(max_attempts=0)



# ----------------------------------------------------------------------
# Executor retry flow
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "process-pool"])
def test_transient_raise_recovers_bit_identically(workers, counters):
    """A fault on attempt 0 reruns the same seed: results identical."""
    blocks = _blocks()
    seeds = _seeds(blocks)
    clean_pools, clean_stats = BlockSynthesisExecutor(workers=workers).run(
        blocks, CONFIG, seeds
    )
    assert not clean_stats.failure_log

    injector = FaultInjector(specs=(FaultSpec("raise", None, 0),))
    runner = BlockSynthesisExecutor(
        workers=workers,
        max_attempts=2,
        fault_injector=injector,
    )
    pools, stats = runner.run(blocks, CONFIG, seeds)
    assert counters()["retry.attempts"] > 0
    assert not fallback_blocks(stats.failure_log)
    assert all(r.kind == FAILURE_EXCEPTION for r in stats.failure_log)
    assert all(r.attempt == 0 for r in stats.failure_log)
    _pools_equal(clean_pools, pools)


def _nan_run(workers):
    blocks = _blocks()
    runner = BlockSynthesisExecutor(
        workers=workers,
        max_attempts=2,
        fault_injector=FaultInjector(
            specs=(FaultSpec("nan", None, 0),), seed=11
        ),
    )
    return runner.run(blocks, CONFIG, _seeds(blocks))


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "process-pool"])
def test_nan_corruption_is_quarantined_then_recovered(workers):
    blocks = _blocks()
    seeds = _seeds(blocks)
    clean_pools, _ = BlockSynthesisExecutor().run(blocks, CONFIG, seeds)

    pools, stats = _nan_run(workers)
    assert not fallback_blocks(stats.failure_log)
    assert stats.failure_log
    assert all(r.kind == FAILURE_VALIDATION for r in stats.failure_log)
    assert all(r.attempt == 0 for r in stats.failure_log)
    _pools_equal(clean_pools, pools)
    _assert_matches_inline(_nan_run, pools, stats)


def test_inline_validation_failure_closes_the_block_span_as_error():
    """The inline span wraps validation: a quarantined attempt is an error."""
    sink = ListSink()
    with use_tracer(Tracer(sink)):
        _, stats = _nan_run(1)
    spans = {
        (r["attrs"]["block"], r["attrs"]["attempt"]): r
        for r in sink.records
        if r["type"] == "span" and r["name"] == "synthesis.block"
    }
    failed = {r.block_index for r in stats.failure_log}
    assert failed
    for index in failed:
        assert spans[(index, 0)]["status"] == "error"
        assert "ValidationError" in spans[(index, 0)]["error"]
        assert spans[(index, 1)]["status"] == "ok"


def _exhausted_run(workers):
    blocks = _blocks()
    specs = tuple(FaultSpec("raise", None, attempt) for attempt in range(3))
    runner = BlockSynthesisExecutor(
        workers=workers,
        max_attempts=3,
        fault_injector=FaultInjector(specs=specs),
    )
    with pytest.warns(RuntimeWarning, match="falling back to the exact block"):
        return runner.run(blocks, CONFIG, _seeds(blocks))


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "process-pool"])
def test_exhausted_retries_still_fall_back(workers):
    """Faults on every attempt: the exact-pool downgrade still guards."""
    blocks = _blocks()
    pools, stats = _exhausted_run(workers)
    nontrivial = [
        i
        for i, b in enumerate(blocks)
        if b.num_qubits > 1 and b.circuit.cnot_count() > 0
    ]
    assert fallback_blocks(stats.failure_log)
    for index in fallback_blocks(stats.failure_log):
        assert index in nontrivial
        assert pools[index].size == 1
        assert pools[index].candidates[0].distance == 0.0
    # Every failed attempt is logged: jobs x attempts — plus one terminal
    # fallback record per downgraded block.
    per_block = {}
    for record in stats.failure_log:
        if record.kind == FAILURE_FALLBACK:
            continue
        per_block.setdefault(record.block_index, []).append(record.attempt)
    for attempts in per_block.values():
        assert attempts == [0, 1, 2]
    fallback_records = [
        r for r in stats.failure_log if r.kind == FAILURE_FALLBACK
    ]
    assert sorted(r.block_index for r in fallback_records) == sorted(
        fallback_blocks(stats.failure_log)
    )
    for record in fallback_records:
        assert record.attempt == 3
        assert "degraded to exact block" in record.message
    _assert_matches_inline(_exhausted_run, pools, stats)


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "process-pool"])
def test_late_recovery_equals_the_clean_run(workers, counters):
    """Faults on attempts 0 and 1: attempt 2 still reruns the block seed.

    No attempt escalates the seed or the budget, so a block that
    recovers on its third attempt is bit-identical to a clean run's.
    """
    blocks = _blocks()
    seeds = _seeds(blocks)
    clean_pools, _ = BlockSynthesisExecutor(workers=workers).run(
        blocks, CONFIG, seeds
    )
    specs = tuple(FaultSpec("raise", None, attempt) for attempt in range(2))
    runner = BlockSynthesisExecutor(
        workers=workers,
        max_attempts=3,
        fault_injector=FaultInjector(specs=specs),
    )
    pools, stats = runner.run(blocks, CONFIG, seeds)
    assert not fallback_blocks(stats.failure_log)
    assert counters()["retry.attempts"] > 0
    per_block = {}
    for record in stats.failure_log:
        per_block.setdefault(record.block_index, []).append(record.attempt)
    assert per_block and all(a == [0, 1] for a in per_block.values())
    _pools_equal(clean_pools, pools)
