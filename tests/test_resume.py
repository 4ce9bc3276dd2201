"""Resume is a store hit.

A block's LEAP solutions are a pure function of (block unitary, LEAP
config, seed), which is the content key the artifact store files them
under.  So a run killed mid-synthesis and rerun over the same
``store_dir`` finds every block that finished before the kill, and
synthesizes only the rest; a changed config maps to other keys and
simply misses.  The subprocess SIGKILL legs live in
``test_resilience_kill.py``, ``test_batch_kill.py`` and
``test_service_kill.py``.
"""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.algorithms import heisenberg, tfim
from repro.batch.workqueue import InflightRegistry
from repro.core.quest import QuestConfig, run_quest
from repro.observability import MetricsRegistry, use_metrics
from repro.parallel.cache import PoolCache, content_key, entry_key
from repro.parallel.executor import (
    BlockSynthesisExecutor,
    leap_config_for_block,
)
from repro.partition.scan import scan_partition
from repro.resilience import FaultInjector, parse_fault_spec
from repro.store import ENTRY_SUFFIX, ArtifactStore
from repro.transpile.basis import lower_to_basis
from tests.test_parallel_cache import version_2_entry

FAST = dict(
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
SEED = 5


def _config(store_dir=None, **overrides) -> QuestConfig:
    return QuestConfig(
        seed=SEED,
        store_dir=None if store_dir is None else str(store_dir),
        **dict(FAST, **overrides),
    )


def _assert_identical(a, b) -> None:
    """Same choices, bounds, circuit unitaries and pool distances."""
    assert a.selection.bounds == b.selection.bounds
    assert len(a.selection.choices) == len(b.selection.choices)
    for ca, cb in zip(a.selection.choices, b.selection.choices):
        assert np.array_equal(ca, cb)
    assert len(a.circuits) == len(b.circuits)
    for ca, cb in zip(a.circuits, b.circuits):
        assert ca.cnot_count() == cb.cnot_count()
        assert np.array_equal(ca.unitary(), cb.unitary())
    assert len(a.pools) == len(b.pools)
    for pa, pb in zip(a.pools, b.pools):
        assert pa.cnot_counts().tolist() == pb.cnot_counts().tolist()
        assert pa.distances().tolist() == pb.distances().tolist()


def _published(store_dir) -> list[str]:
    return sorted(path.name for path in store_dir.rglob("*.qpool"))


def _first_synthesized_block(circuit, config) -> tuple[int, str]:
    """Index and entry key of the first block that needs synthesis.

    Mirrors the executor's planning: the first nontrivial block is the
    first occurrence of its content key, so it keeps its own seed.
    """
    baseline = lower_to_basis(circuit.without_measurements())
    blocks = scan_partition(baseline, config.max_block_qubits)
    rng = np.random.default_rng(config.seed)
    seeds = [int(rng.integers(2**31 - 1)) for _ in blocks]
    for index, block in enumerate(blocks):
        cnots = block.circuit.cnot_count()
        if block.num_qubits == 1 or cnots == 0:
            continue
        fingerprint = leap_config_for_block(cnots, config, None).fingerprint()
        content = content_key(block.unitary(), fingerprint)
        return index, entry_key(content, seeds[index])
    raise AssertionError("circuit has no block to synthesize")


class _Crash(BaseException):
    """Escapes the executor's per-attempt handlers, as a SIGKILL would."""


def test_rerun_over_the_store_synthesizes_nothing_bit_identically(tmp_path):
    circuit = tfim(4, steps=1)
    store = tmp_path / "store"
    first = run_quest(circuit, _config(store))
    assert first.cache_misses > 0
    assert len(_published(store)) == first.cache_misses

    resumed = run_quest(circuit, _config(store))
    _assert_identical(first, resumed)
    # Every nontrivial block came from the store: no synthesis at all.
    assert resumed.cache_misses == 0
    assert resumed.cache_hits == first.cache_hits + first.cache_misses
    assert resumed.cache_corrupt_entries == 0
    counters = resumed.metrics["counters"]
    assert counters["store.hits.default"] == first.cache_misses
    assert counters.get("leap.synthesis_runs", 0) == 0
    for result in (first, resumed):
        assert not result.failure_log
        assert not result.synthesis_fallbacks


def test_a_store_of_version_2_entries_resynthesizes_once(tmp_path):
    """A version-2 entry (which also stored the template's rotation names)
    met under a current key is a stale miss: the rerun resynthesizes each
    one, counts no corruption, selects the same and overwrites each with
    its current bytes.  A real upgrade also moves every key (the config
    fingerprint changed), so its runs never meet the old files at all."""
    circuit = tfim(4, steps=1)
    store = tmp_path / "store"
    first = run_quest(circuit, _config(store))
    paths = sorted(store.rglob(f"*{ENTRY_SUFFIX}"))
    assert len(paths) == first.cache_misses > 0
    cache = PoolCache(store)
    current = {}
    for path in paths:
        key = path.name[: -len(ENTRY_SUFFIX)]
        current[key] = path.read_bytes()
        path.write_bytes(version_2_entry(key, cache.get(key)))

    again = run_quest(circuit, _config(store))
    _assert_identical(first, again)
    assert again.cache_misses == first.cache_misses
    assert again.cache_corrupt_entries == 0
    assert again.metrics["counters"]["leap.synthesis_runs"] == len(paths)
    for path in paths:
        assert path.read_bytes() == current[path.name[: -len(ENTRY_SUFFIX)]]


def test_run_killed_mid_synthesis_resumes_from_the_store(tmp_path):
    """Each block is published as its job lands, not when the run ends."""
    circuit = heisenberg(4, steps=1)
    store = tmp_path / "store"
    kill_block = 2  # the last of heisenberg(4, 1)'s three synthesis jobs

    def crash(block, attempt):
        if block == kill_block:
            raise _Crash

    injector = FaultInjector()
    injector.on_synthesis_start = crash
    with pytest.raises(_Crash):
        run_quest(circuit, _config(store), fault_injector=injector)
    assert len(_published(store)) == kill_block

    resumed = run_quest(circuit, _config(store))
    assert resumed.cache_misses == 1
    assert resumed.cache_hits == kill_block
    _assert_identical(run_quest(circuit, _config()), resumed)


def test_adopted_in_flight_result_is_put_in_the_joiners_store(tmp_path):
    """In the daemon a joiner's cache is another tenant's namespace, so
    an adopted result must be put there too, or that tenant's killed
    job could not resume from it."""
    config = _config()
    blocks = scan_partition(
        lower_to_basis(heisenberg(4, steps=1).without_measurements()),
        config.max_block_qubits,
    )
    rng = np.random.default_rng(config.seed)
    seeds = [int(rng.integers(2**31 - 1)) for _ in blocks]
    registry = InflightRegistry()

    with use_metrics(MetricsRegistry()) as owner_metrics:
        owner_pools, _ = BlockSynthesisExecutor(
            cache=PoolCache(tmp_path, namespace="alice"), inflight=registry
        ).run(blocks, config, seeds)
    with use_metrics(MetricsRegistry()) as joiner_metrics:
        joiner_pools, joiner = BlockSynthesisExecutor(
            cache=PoolCache(tmp_path, namespace="bob"), inflight=registry
        ).run(blocks, config, seeds)

    # The joiner synthesized nothing: every job adopted the owner's.
    owner_misses = owner_metrics.snapshot()["counters"]["cache.miss"]
    assert joiner_metrics.snapshot()["counters"]["dedup.hits"] == owner_misses
    assert owner_misses > 0
    assert not joiner.failure_log
    assert set(joiner.block_seconds) == {0.0}
    assert _published(tmp_path / "bob") == _published(tmp_path / "alice")
    for a, b in zip(owner_pools, joiner_pools):
        assert a.distances().tolist() == b.distances().tolist()


def test_changed_config_over_the_same_store_equals_a_clean_run(tmp_path):
    circuit = tfim(4, steps=1)
    store = tmp_path / "store"
    run_quest(circuit, _config(store))

    changed = run_quest(circuit, _config(store, threshold_per_block=0.35))
    clean = run_quest(circuit, _config(threshold_per_block=0.35))
    _assert_identical(clean, changed)
    # The threshold is part of every content key: nothing was reused.
    assert changed.cache_misses == clean.cache_misses
    assert changed.metrics["counters"].get("store.hits.default", 0) == 0


def test_publish_fsyncs_the_file_and_its_directory(tmp_path, monkeypatch):
    synced: list[os.stat_result] = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced.append(os.fstat(fd))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    store = ArtifactStore(tmp_path)
    key = "ab" * 32
    assert store.publish(key, b"payload")

    entry = store.path_for(key)
    assert len(synced) == 2
    # The bytes first (the temp file, renamed onto the entry keeps its
    # inode), then the shard directory that holds the rename.
    assert stat.S_ISREG(synced[0].st_mode)
    assert synced[0].st_ino == os.stat(entry).st_ino
    assert stat.S_ISDIR(synced[1].st_mode)
    assert synced[1].st_ino == os.stat(entry.parent).st_ino


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "process-pool"])
def test_late_recovery_is_published_and_restored(tmp_path, workers):
    """Every success is published, whichever attempt produced it.

    With ``raise@b:0,raise@b:1`` at three attempts, block ``b`` lands on
    its third attempt.  That attempt reran the block's own seed, so the
    faulted run equals a clean run, block ``b``'s entry is in the store,
    and a rerun restores every block instead of synthesizing any.
    """
    circuit = tfim(4, steps=1)
    store = tmp_path / "store"
    config = _config(store, retry_attempts=3, workers=workers)
    block, key = _first_synthesized_block(circuit, config)
    schedule = f"raise@{block}:0,raise@{block}:1"

    clean = run_quest(circuit, _config(retry_attempts=3))
    faulted = run_quest(
        circuit, config, fault_injector=parse_fault_spec(schedule)
    )
    assert faulted.retries == 2
    assert not faulted.synthesis_fallbacks
    _assert_identical(clean, faulted)
    assert ArtifactStore(store).path_for(key).exists()
    assert len(_published(store)) == faulted.cache_misses

    rerun = run_quest(circuit, config)
    _assert_identical(clean, rerun)
    assert rerun.cache_misses == 0
