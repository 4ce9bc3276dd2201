"""Batch compilation driver: shared substrate, bit-identical selections.

The contract under test: :func:`repro.batch.run_quest_batch` is a pure
performance layer.  Per-circuit selections, CNOT counts, and bounds are
byte-identical to running each circuit alone, while the shared cache,
in-flight registry, and persistent worker pool collapse duplicate
synthesis work across the whole batch.
"""

from __future__ import annotations

import pytest

import repro.parallel.executor as executor_module
from repro.algorithms import qft, tfim
from repro.batch import run_quest_batch
from repro.batch.workqueue import InflightRegistry
from repro.circuits.random_circuits import random_circuit
from repro.core.quest import QuestConfig, run_quest
from repro.parallel.pool_manager import PersistentWorkerPool

FAST = dict(
    seed=11,
    max_samples=3,
    max_block_qubits=2,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    annealing_maxiter=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)


def _circuits():
    return [tfim(4, steps=2), qft(4), random_circuit(4, depth=3, rng=5)]


def _signature(result):
    return {
        "choices": [
            tuple(int(i) for i in choice)
            for choice in result.selection.choices
        ],
        "cnot_counts": result.cnot_counts,
        "bounds": result.selection.bounds,
        "pool_distances": [
            pool.distances().tolist() for pool in result.pools
        ],
    }


@pytest.fixture(scope="module")
def solo_reference():
    """Each circuit compiled alone: the baseline a batch must match."""
    config = QuestConfig(**FAST, workers=1, cache=True)
    return [run_quest(circuit, config) for circuit in _circuits()]


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
def test_batch_matches_solo_bit_for_bit(solo_reference):
    config = QuestConfig(**FAST, workers=1, cache=True)
    batch = run_quest_batch(_circuits(), config, window=2)
    assert len(batch.results) == len(solo_reference)
    for got, want in zip(batch.results, solo_reference):
        assert _signature(got) == _signature(want)
    assert batch.wall_seconds > 0
    assert "circuits" in batch.summary()


def test_sequential_window_matches_solo(solo_reference):
    """window=1 (no overlap) still shares cache/pool and stays identical."""
    config = QuestConfig(**FAST, workers=1, cache=True)
    batch = run_quest_batch(_circuits(), config, window=1)
    for got, want in zip(batch.results, solo_reference):
        assert _signature(got) == _signature(want)


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 4])
def test_batch_matrix_bit_identity(solo_reference, workers):
    """The acceptance matrix: every worker count bit-identical."""
    config = QuestConfig(**FAST, workers=workers, cache=True)
    batch = run_quest_batch(_circuits(), config, window=3)
    for got, want in zip(batch.results, solo_reference):
        assert _signature(got) == _signature(want)
    if workers > 1:
        assert batch.pools_created >= 1


# ----------------------------------------------------------------------
# Dedup accounting (the in-flight regression test)
# ----------------------------------------------------------------------
def test_duplicate_circuits_synthesize_each_key_exactly_once(monkeypatch):
    """Two copies of one circuit, cache off: every unique key dispatches
    one synthesis; the twin's blocks all resolve through the registry."""
    dispatched = []
    real_task = executor_module._synthesize_solutions_task

    def recording_task(block, config, seed):
        dispatched.append((block.index, seed))
        return real_task(block, config, seed)

    monkeypatch.setattr(
        executor_module, "_synthesize_solutions_task", recording_task
    )
    config = QuestConfig(**FAST, workers=1, cache=False)
    solo = run_quest(tfim(4, steps=2), config)
    unique = solo.cache_misses  # cache off: misses == unique planned jobs
    assert unique > 0

    dispatched.clear()
    batch = run_quest_batch(
        [tfim(4, steps=2), tfim(4, steps=2)], config, window=2
    )
    # Zero duplicate syntheses batch-wide, even with no cache to lean on.
    assert len(dispatched) == unique
    # Each run still *plans* its own jobs; the twin's jobs all attach to
    # the first circuit's (in-flight or resolved) registry entries.
    assert batch.cache_misses == 2 * unique
    assert batch.inflight_joins == unique
    assert batch.cache_hits == 0
    assert batch.dedup_joins >= unique
    for result in batch.results:
        assert _signature(result) == _signature(solo)


def test_batch_shares_cache_across_circuits(solo_reference):
    """Identical circuits with the cache on: the second costs no misses."""
    config = QuestConfig(**FAST, workers=1, cache=True)
    batch = run_quest_batch(
        [tfim(4, steps=2), tfim(4, steps=2)], config, window=1
    )
    first, second = batch.results
    assert _signature(first) == _signature(solo_reference[0])
    assert _signature(second) == _signature(solo_reference[0])
    assert second.cache_misses == 0
    assert batch.cache_misses == first.cache_misses


# ----------------------------------------------------------------------
# Driver validation
# ----------------------------------------------------------------------
def test_empty_batch_is_rejected():
    with pytest.raises(ValueError, match="at least one circuit"):
        run_quest_batch([], QuestConfig(**FAST))


def test_window_must_be_positive():
    with pytest.raises(ValueError, match="window"):
        run_quest_batch([tfim(4, steps=1)], QuestConfig(**FAST), window=0)


# ----------------------------------------------------------------------
# InflightRegistry unit behaviour
# ----------------------------------------------------------------------
def test_inflight_claim_join_publish_cycle():
    registry = InflightRegistry()
    owner, other = object(), object()
    assert registry.claim("k", owner) is None
    # Re-claim by the same owner (a retry round): still ours, no join.
    assert registry.claim("k", owner) is None
    entry = registry.claim("k", other)
    assert entry is not None and not entry.resolved
    registry.publish("k", owner, ["solutions"])
    assert entry.wait(1.0)
    assert entry.solutions == ["solutions"]
    assert registry.joins == 1 and registry.published == 1
    # Resolved entries persist: later claims adopt without waiting.
    late = registry.claim("k", object())
    assert late is not None and late.resolved


def test_inflight_publish_and_release_require_ownership():
    registry = InflightRegistry()
    owner, other = object(), object()
    registry.claim("k", owner)
    entry = registry.claim("k", other)
    registry.publish("k", other, ["stolen"])
    registry.release(other)
    assert not entry.event.is_set()
    assert registry.published == 0


def test_inflight_release_wakes_unresolved_keeps_resolved():
    registry = InflightRegistry()
    owner, other = object(), object()
    registry.claim("k1", owner)
    registry.claim("k2", owner)
    registry.publish("k1", owner, ["s"])
    pending = registry.claim("k2", other)
    registry.release(owner)
    assert pending.event.is_set() and not pending.ok
    kept = registry.claim("k1", other)
    assert kept is not None and kept.resolved


def test_inflight_stale_release_cannot_evict_a_reclaimed_key():
    """Regression: once a key is released and re-claimed, a late
    duplicate release from the stale owner must not drop the new claim."""
    registry = InflightRegistry()
    owner = object()
    registry.claim("k", owner)
    registry.release(owner)
    # A new owner re-claims the key...
    successor = object()
    assert registry.claim("k", successor) is None
    # ...and the stale owner's late duplicate release must not evict it.
    registry.release(owner)
    joiner = registry.claim("k", object())
    assert joiner is not None and not joiner.event.is_set()
    assert registry.stranded_joiners == 0


def test_inflight_release_after_publish_keeps_the_result():
    """Regression: publish resolves the entry and clears its owner slot,
    so late releases from the original owner cannot drop it."""
    registry = InflightRegistry()
    owner = object()
    registry.claim("k", owner)
    registry.publish("k", owner, ["s"])
    registry.release(owner)
    registry.release(owner)
    adopted = registry.claim("k", object())
    assert adopted is not None and adopted.resolved
    assert adopted.solutions == ["s"]
    assert registry.stranded_joiners == 0


def test_inflight_double_release_is_idempotent():
    registry = InflightRegistry()
    owner, other = object(), object()
    registry.claim("k", owner)
    pending = registry.claim("k", other)
    registry.release(owner)
    registry.release(owner)  # second shutdown pass: no-op
    assert pending.event.is_set() and not pending.ok
    assert registry.claim("k", other) is None
    assert registry.stranded_joiners == 0


def test_wait_for_counts_stranded_joiners():
    """A join that times out on an unresolved, unreleased entry is the
    invariant violation the counter exists to surface."""
    registry = InflightRegistry()
    owner, other = object(), object()
    registry.claim("k", owner)
    entry = registry.claim("k", other)
    # Owner vanishes without publish or release: the joiner strands.
    assert registry.wait_for(entry, timeout=0.01) is False
    assert registry.stranded_joiners == 1
    # A released entry is not stranded: the wait finished, just empty.
    registry.release(owner)
    assert registry.wait_for(entry, timeout=0.01) is False
    assert registry.stranded_joiners == 1


def test_batch_metrics_surface_zero_stranded_joiners(solo_reference):
    """Every batch run exports registry.stranded_joiners — and it is 0."""
    config = QuestConfig(**FAST, workers=1, cache=True)
    batch = run_quest_batch(
        [tfim(4, steps=2), tfim(4, steps=2)], config, window=2
    )
    counters = batch.metrics["counters"]
    assert counters["registry.stranded_joiners"] == 0
    for got in batch.results:
        assert _signature(got) == _signature(solo_reference[0])


# ----------------------------------------------------------------------
# PersistentWorkerPool unit behaviour
# ----------------------------------------------------------------------
def _identity(value):
    return value


def test_pool_requires_at_least_two_workers():
    with pytest.raises(ValueError, match="workers >= 2"):
        PersistentWorkerPool(1)


def test_pool_reuse_and_recycle_accounting():
    with PersistentWorkerPool(2) as pool:
        pool.begin_round()
        assert pool.submit(_identity, 7).result(timeout=60) == 7
        pool.begin_round()
        assert pool.submit(_identity, 8).result(timeout=60) == 8
        # Second round rode the first round's pool.
        assert pool.pools_created == 1
        assert pool.reuses == 1
        assert pool.recycles == 0
        pool.mark_unhealthy()
        pool.begin_round()
        assert pool.submit(_identity, 9).result(timeout=60) == 9
        assert pool.pools_created == 2
        assert pool.recycles == 1
    with pytest.raises(RuntimeError, match="shut down"):
        pool.submit(_identity, 0)
