"""Batch compilation driver: shared substrate, bit-identical selections.

The contract under test: :func:`repro.batch.run_quest_batch` is a pure
performance layer.  Per-circuit selections, CNOT counts, and bounds are
byte-identical to running each circuit alone, while the shared in-flight
registry and persistent worker pool collapse duplicate synthesis work
across the whole batch.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.batch.driver as batch_driver
import repro.parallel.executor as executor_module
from repro.algorithms import heisenberg, qft, tfim, xy_model
from repro.batch import run_quest_batch, workqueue
from repro.batch.workqueue import InflightRegistry
from repro.circuits import Circuit
from repro.circuits.random_circuits import random_circuit
from repro.core.quest import QuestConfig, run_quest
from repro.exceptions import SelectionError
from repro.observability import ListSink, Record, use_record
from repro.parallel.pool_manager import PersistentWorkerPool
from repro.parallel.substrate import open_substrate
from tests.helpers import bound_registry
from tests.planning_oracle import planned_entry_keys

FAST = dict(
    seed=11,
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
    config = QuestConfig(**FAST, workers=1)
    return [run_quest(circuit, config) for circuit in _circuits()]


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
def test_batch_matches_solo_bit_for_bit(solo_reference):
    config = QuestConfig(**FAST, workers=1)
    batch = run_quest_batch(_circuits(), config, window=2)
    assert len(batch.results) == len(solo_reference)
    for got, want in zip(batch.results, solo_reference):
        assert _signature(got) == _signature(want)
    assert batch.wall_seconds > 0
    assert "circuits" in batch.summary()


def test_sequential_window_matches_solo(solo_reference):
    """window=1 (no overlap) still shares the registry and stays identical."""
    config = QuestConfig(**FAST, workers=1)
    batch = run_quest_batch(_circuits(), config, window=1)
    for got, want in zip(batch.results, solo_reference):
        assert _signature(got) == _signature(want)


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 4])
def test_batch_matrix_bit_identity(solo_reference, workers):
    """The acceptance matrix: every worker count bit-identical."""
    config = QuestConfig(**FAST, workers=workers)
    batch = run_quest_batch(_circuits(), config, window=3)
    for got, want in zip(batch.results, solo_reference):
        assert _signature(got) == _signature(want)
    if workers > 1:
        assert batch.pools_created >= 1


# ----------------------------------------------------------------------
# Dedup accounting (the in-flight regression test)
# ----------------------------------------------------------------------
def test_duplicate_circuits_synthesize_each_key_exactly_once(monkeypatch):
    """Two copies of one circuit, no store: every unique key dispatches
    one synthesis; the twin's blocks all resolve through the registry."""
    dispatched = []
    real_task = executor_module._synthesize_solutions_task

    def recording_task(block, config, seed):
        dispatched.append((block.index, seed))
        return real_task(block, config, seed)

    monkeypatch.setattr(
        executor_module, "_synthesize_solutions_task", recording_task
    )
    config = QuestConfig(**FAST, workers=1)
    solo = run_quest(tfim(4, steps=2), config)
    unique = solo.cache_misses  # no store: misses == unique planned jobs
    assert unique > 0
    assert solo.cache_hits > 0  # Trotter repeats within the circuit

    dispatched.clear()
    batch = run_quest_batch(
        [tfim(4, steps=2), tfim(4, steps=2)], config, window=2
    )
    # Zero duplicate syntheses batch-wide, with no store to lean on.
    assert len(dispatched) == unique
    # Each run still *plans* its own jobs; the twin's jobs all attach to
    # the first circuit's (in-flight or resolved) registry entries, and
    # within-circuit repeats count as cache hits in both runs.
    assert batch.cache_misses == 2 * unique
    assert batch.inflight_joins == unique
    assert batch.cache_hits == 2 * solo.cache_hits
    assert batch.dedup_joins == unique
    for result in batch.results:
        assert _signature(result) == _signature(solo)


def test_bounded_registry_evicts_and_resynthesizes_bit_identically(monkeypatch):
    """Ten distinct keys twice over through a registry bounded to three
    resolved entries, no store: the registry never holds more than
    three, every dropped entry is one ``registry.evictions`` event, an
    evicted key synthesizes again, and every result is its solo run's."""
    distinct = [tfim(3, steps=1), qft(3), heisenberg(3, steps=1), xy_model(3, steps=1)]
    config = QuestConfig(**FAST, workers=1)
    solo = [_signature(run_quest(circuit, config)) for circuit in distinct]
    unique = len(set().union(*(planned_entry_keys(c, config) for c in distinct)))
    tally = bound_registry(monkeypatch, 3)
    batch = run_quest_batch(distinct * 2, config, window=2)
    assert unique > 3
    assert tally["most_resolved"] == 3
    (registry,) = tally["registries"]
    evictions = batch.metrics["counters"]["registry.evictions"]
    assert evictions == tally["published"] - len(registry._resolved) > 0
    assert tally["dispatched"] > unique
    assert batch.cache_misses - batch.inflight_joins == tally["dispatched"]
    assert [_signature(result) for result in batch.results] == solo * 2


@pytest.mark.slow
def test_trotter_family_repeats_all_resolve_through_the_substrate():
    """A Trotter sweep run twice over, eight circuits on two workers:
    every globally unique block key synthesizes once, and every other
    planned job is a cache hit or a dedup join."""
    sweep = [tfim(4, steps=2), tfim(4, steps=3), heisenberg(4, steps=2), xy_model(4, steps=2)]
    family = sweep + [circuit.copy() for circuit in sweep]
    config = QuestConfig(**FAST, workers=2)
    planned = [planned_entry_keys(circuit, config) for circuit in family]
    jobs = sum(len(keys) for keys in planned)
    unique = len(set().union(*map(set, planned)))
    batch = run_quest_batch(family, config, window=4)
    assert jobs > unique
    assert batch.cache_misses - batch.inflight_joins == unique
    assert batch.cache_hits + batch.dedup_joins == jobs - unique
    assert batch.pools_created >= 1


def test_batch_reuse_validates_each_synthesized_job_once(
    monkeypatch, solo_reference
):
    """Two identical circuits, window 1: the second dispatches nothing,
    and results reused in-process are not validated again."""
    dispatched = []
    validated = []
    real_task = executor_module._synthesize_solutions_task
    real_validate = executor_module.validate_solutions

    def recording_task(block, config, seed):
        dispatched.append(block.index)
        return real_task(block, config, seed)

    def counting_validate(*args, **kwargs):
        validated.append(1)
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(
        executor_module, "_synthesize_solutions_task", recording_task
    )
    monkeypatch.setattr(executor_module, "validate_solutions", counting_validate)
    config = QuestConfig(**FAST, workers=1)
    batch = run_quest_batch(
        [tfim(4, steps=2), tfim(4, steps=2)], config, window=1
    )
    first, second = batch.results
    assert _signature(first) == _signature(solo_reference[0])
    assert _signature(second) == _signature(solo_reference[0])
    assert first.cache_misses > 0 and first.dedup_joins == 0
    assert len(dispatched) == first.cache_misses
    assert len(validated) == len(dispatched)
    # Every job the second circuit planned joined the first's result.
    assert second.dedup_joins == second.cache_misses == first.cache_misses


def test_shared_store_corruption_counts_only_in_the_run_that_loaded_it(
    monkeypatch, tmp_path
):
    """Two runs share one store, as the runs of a batch or of a daemon
    namespace do.  Run B is parked inside its first synthesis job while
    run A loads rotted store entries: only A reports them."""
    run_quest(tfim(4, steps=1), QuestConfig(**FAST, store_dir=str(tmp_path)))
    entries = list(tmp_path.rglob("*.qpool"))
    assert entries
    for path in entries:
        path.write_bytes(b"rotted")

    parked, release = threading.Event(), threading.Event()
    real_task = executor_module._synthesize_solutions_task

    def parking_task(block, config, seed):
        if threading.current_thread().name.startswith("run-b"):
            parked.set()
            release.wait(60)
        return real_task(block, config, seed)

    monkeypatch.setattr(
        executor_module, "_synthesize_solutions_task", parking_task
    )
    config = QuestConfig(**FAST, workers=1)
    shared = open_substrate(QuestConfig(**FAST, store_dir=str(tmp_path)))
    with ThreadPoolExecutor(1, thread_name_prefix="run-b") as thread:
        run_b = thread.submit(
            run_quest, heisenberg(4, steps=1), config, shared=shared
        )
        assert parked.wait(60)
        try:
            result_a = run_quest(tfim(4, steps=1), config, shared=shared)
        finally:
            release.set()
        result_b = run_b.result(timeout=120)
    assert result_a.cache_corrupt_entries == len(entries)
    assert result_b.cache_corrupt_entries == 0


# ----------------------------------------------------------------------
# Driver validation
# ----------------------------------------------------------------------
def test_empty_batch_is_rejected():
    with pytest.raises(ValueError, match="at least one circuit"):
        run_quest_batch([], QuestConfig(**FAST))


def test_window_must_be_positive():
    with pytest.raises(ValueError, match="window"):
        run_quest_batch([tfim(4, steps=1)], QuestConfig(**FAST), window=0)


def test_a_failing_circuit_stops_the_circuits_still_queued(monkeypatch):
    """The first circuit is CNOT-free, so its run raises: the three
    circuits queued behind it never start.  The spy wraps the driver's
    ``run_quest`` global, as the benchmark harness does."""
    started = []
    real_run_quest = batch_driver.run_quest

    def spy(circuit, *args, **kwargs):
        started.append(circuit)
        return real_run_quest(circuit, *args, **kwargs)

    monkeypatch.setattr(batch_driver, "run_quest", spy)
    cnot_free = Circuit(2)
    cnot_free.h(0)
    circuits = [cnot_free] + [tfim(4, steps=1) for _ in range(3)]
    with pytest.raises(SelectionError):
        run_quest_batch(circuits, QuestConfig(**FAST), window=1)
    assert started == [cnot_free]


# ----------------------------------------------------------------------
# InflightRegistry unit behaviour
# ----------------------------------------------------------------------
def test_inflight_claim_join_publish_cycle(counters):
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
    assert counters() == {"dedup.inflight_joins": 1}
    # Resolved entries persist: later claims adopt without waiting.
    late = registry.claim("k", object())
    assert late is not None and late.resolved


def test_inflight_bound_drops_least_recently_used_resolved_entries(
    monkeypatch, counters
):
    """Past the bound the least recently used resolved entry leaves, one
    ``registry.evictions`` event each; adopting an entry refreshes it; a
    claimed, unresolved key is neither counted nor dropped; and a joiner
    keeps the entry it holds after its key leaves."""
    monkeypatch.setattr(workqueue, "MAX_RESOLVED_ENTRIES", 2)
    registry = InflightRegistry()
    owner = object()
    for key in ("a", "b", "pending", "c"):
        assert registry.claim(key, owner) is None
    joiner = registry.claim("a", object())
    registry.publish("a", owner, ["A"])
    registry.publish("b", owner, ["B"])
    assert registry.claim("a", object()).resolved
    registry.publish("c", owner, ["C"])
    assert counters()["registry.evictions"] == 1
    assert list(registry._resolved) == ["a", "c"]
    still_claimed = registry.claim("pending", object())
    assert still_claimed is not None and not still_claimed.resolved
    registry.publish("pending", owner, ["P"])
    assert counters()["registry.evictions"] == 2
    assert list(registry._resolved) == ["c", "pending"]
    assert joiner.wait(0) and joiner.solutions == ["A"]
    # An evicted key is claimed afresh: its next run synthesizes it.
    assert registry.claim("a", object()) is None


def test_inflight_publish_and_release_require_ownership():
    registry = InflightRegistry()
    owner, other = object(), object()
    registry.claim("k", owner)
    entry = registry.claim("k", other)
    registry.publish("k", other, ["stolen"])
    registry.release(other)
    assert not entry.event.is_set()
    assert entry.solutions is None


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


def test_inflight_stale_release_cannot_evict_a_reclaimed_key(counters):
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
    assert "registry.stranded_joiners" not in counters()


def test_inflight_release_after_publish_keeps_the_result(counters):
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
    assert "registry.stranded_joiners" not in counters()


def test_inflight_double_release_is_idempotent(counters):
    registry = InflightRegistry()
    owner, other = object(), object()
    registry.claim("k", owner)
    pending = registry.claim("k", other)
    registry.release(owner)
    registry.release(owner)  # second shutdown pass: no-op
    assert pending.event.is_set() and not pending.ok
    assert registry.claim("k", other) is None
    assert "registry.stranded_joiners" not in counters()


def test_wait_for_counts_stranded_joiners(counters):
    """A join that times out on an unresolved, unreleased entry is the
    invariant violation the counter exists to surface."""
    registry = InflightRegistry()
    owner, other = object(), object()
    registry.claim("k", owner)
    entry = registry.claim("k", other)
    # Owner vanishes without publish or release: the joiner strands.
    assert registry.wait_for(entry, timeout=0.01) is False
    assert counters()["registry.stranded_joiners"] == 1
    # A released entry is not stranded: the wait finished, just empty.
    registry.release(owner)
    assert registry.wait_for(entry, timeout=0.01) is False
    assert counters()["registry.stranded_joiners"] == 1


def test_batch_metrics_surface_zero_stranded_joiners(solo_reference):
    """A batch's registry.stranded_joiners is 0 (absent reads as 0)."""
    config = QuestConfig(**FAST, workers=1)
    batch = run_quest_batch(
        [tfim(4, steps=2), tfim(4, steps=2)], config, window=2
    )
    counters = batch.metrics["counters"]
    assert counters.get("registry.stranded_joiners", 0) == 0
    for got in batch.results:
        assert _signature(got) == _signature(solo_reference[0])


def test_batch_trace_keeps_every_circuit_and_counts_once():
    """Pool threads do not inherit context variables: each circuit's
    record shares the caller's sink, so the trace holds one ``quest.run``
    span per circuit, each a child of the ``quest.batch`` span, while the
    enclosing record still receives every count exactly once (the
    batch's merged snapshot, not each run's again)."""
    sink = ListSink()
    config = QuestConfig(**FAST, workers=1)
    with use_record(Record(sink)) as registry:
        batch = run_quest_batch([tfim(4, steps=2), qft(4)], config, window=2)
    runs = [
        record
        for record in sink.records
        if record["type"] == "span" and record["name"] == "quest.run"
    ]
    assert len(runs) == 2
    # Every circuit's run nests under the batch's span, not at the root.
    (batch_span,) = [
        record
        for record in sink.records
        if record["type"] == "span" and record["name"] == "quest.batch"
    ]
    assert [run.get("parent_id") for run in runs] == [batch_span["span_id"]] * 2
    names = {record["name"] for record in sink.records}
    assert {"quest.batch", "quest.synthesis", "synthesis.block"} <= names
    assert registry.snapshot()["counters"] == batch.metrics["counters"]


# ----------------------------------------------------------------------
# PersistentWorkerPool unit behaviour
# ----------------------------------------------------------------------
def _identity(value):
    return value


def test_pool_requires_at_least_two_workers():
    with pytest.raises(ValueError, match="workers >= 2"):
        PersistentWorkerPool(1)


def test_pool_reuse_and_recycle_accounting(counters):
    # The substrate owns its pool's lifecycle: closing it shuts it down.
    with open_substrate(QuestConfig(**FAST, workers=2)) as substrate:
        pool = substrate.worker_pool
        assert pool.submit(_identity, 7).result(timeout=60) == 7
        assert pool.submit(_identity, 8).result(timeout=60) == 8
        # The second submission rode the first one's pool.
        assert counters() == {"pool.created": 1}
        pool.mark_unhealthy()
        assert pool.submit(_identity, 9).result(timeout=60) == 9
        assert counters() == {"pool.created": 2, "pool.recycles": 1}
    with pytest.raises(RuntimeError, match="shut down"):
        pool.submit(_identity, 0)
