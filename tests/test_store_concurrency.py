"""Race-regression tests for the shared cache tier.

Each test here pins a concurrency bug class the flat ``PoolCache`` disk
tier had (or could have had) when batch/service substrates hammer one
cache from many threads:

* the corrupt-entry counter was incremented outside the cache lock, so
  concurrent corrupt loads could lose increments (every count now goes
  through the run record's lock);
* the publish temp name was ``<key>.tmp.<pid>`` — unique per *process*,
  not per writer — so two threads of one daemon publishing the same key
  clobbered each other's half-written temp file;
* LRU eviction globbed + statted + unlinked the whole tier while
  holding the cache lock, stalling every reader behind disk I/O.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.observability import NULL_RECORD, Record, use_record
from repro.parallel.cache import _HEADER, _MAGIC, CACHE_VERSION, PoolCache, entry_key
from repro.store import ArtifactStore, artifact
from repro.synthesis.leap import SynthesisSolution


def _solutions(cnots: int = 1) -> list[SynthesisSolution]:
    angles = tuple(np.linspace(-1.0, 1.0, 6 + 4 * cnots).tolist())
    return [
        SynthesisSolution(2, ((0, 1),) * cnots, angles, 0.01)
    ]


def _run_threads(workers, metrics=NULL_RECORD):
    """Start ``workers`` near-simultaneously; re-raise their failures.

    Each thread counts into ``metrics``: threads do not inherit the
    ambient record, so the record is installed inside each one.
    """
    barrier = threading.Barrier(len(workers))
    errors: list[BaseException] = []

    def runner(work):
        barrier.wait()
        try:
            with use_record(metrics):
                work()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(work,)) for work in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def test_corrupt_entry_counter_is_exact_under_threads(tmp_path):
    """Regression: every corrupt load is counted under a lock.

    16 threads each probe a distinct corrupt disk entry once; without
    the lock, concurrent read-modify-write cycles lose increments and
    the counter undercounts.
    """
    threads = 16
    cache = PoolCache(tmp_path)
    keys = [entry_key("ab" * 32, seed) for seed in range(threads)]
    for key in keys:
        cache.put(key, _solutions())
        cache.store.path_for(key).write_bytes(b"rotted")

    fresh = PoolCache(tmp_path)

    def probe(key):
        assert fresh.get(key) is None

    registry = Record()
    _run_threads([lambda key=key: probe(key) for key in keys], registry)
    counters = registry.snapshot()["counters"]
    assert counters["cache.corrupt_entries"] == threads
    assert counters["store.hits.default"] == threads


def test_same_key_put_storm_single_process(tmp_path, counters):
    """Regression: publish temp files must be unique per *writer*.

    With the old ``<key>.tmp.<pid>`` naming, every thread of one process
    shared one temp path; concurrent writers interleaved their writes
    and the rename could publish a torn entry.  Now each writer owns a
    ``mkstemp`` file, so whichever replace lands last, readers only ever
    see one writer's complete entry.
    """
    cache = PoolCache(tmp_path)
    key = entry_key("cd" * 32, 7)
    writers = [
        lambda n=n: cache.put(key, _solutions(cnots=n + 1))
        for n in range(12)
    ]
    _run_threads(writers)

    fresh = PoolCache(tmp_path)
    got = fresh.get(key)
    assert got is not None, "published entry failed integrity checks"
    assert got[0].cnot_count in range(1, 13)
    assert "cache.corrupt_entries" not in counters()
    # No temp litter left behind by the storm.
    assert not list(tmp_path.rglob("*.tmp"))


def test_put_storm_with_concurrent_readers(tmp_path):
    """Readers racing a same-key put storm never observe a torn entry:
    every successful disk load passes the integrity envelope."""
    key = entry_key("ef" * 32, 3)
    writer_cache = PoolCache(tmp_path)
    torn = []

    def read_loop():
        mine = PoolCache(tmp_path)
        for _ in range(50):
            got = mine.get(key)
            if got is not None and not got[0].circuit.num_qubits == 2:
                torn.append(got)

    workers = [
        lambda n=n: writer_cache.put(key, _solutions(cnots=n + 1))
        for n in range(8)
    ] + [read_loop for _ in range(4)]
    registry = Record()
    _run_threads(workers, registry)
    assert not torn
    assert "cache.corrupt_entries" not in registry.snapshot()["counters"]


def test_put_vs_evict_race(tmp_path):
    """Publishing into a quota-bounded store while another thread
    forces evictions neither crashes nor deletes young entries."""
    store = ArtifactStore(tmp_path, max_entries=4)
    keys = [entry_key("09" * 32, seed) for seed in range(24)]

    def publisher(subset):
        for key in subset:
            assert store.publish(key, b"payload-" + key.encode())

    def evictor():
        for _ in range(20):
            store.evict()

    registry = Record()
    _run_threads(
        [
            lambda: publisher(keys[:12]),
            lambda: publisher(keys[12:]),
            evictor,
        ],
        registry,
    )
    # Every key is within the grace window, so nothing was evictable.
    assert "store.evictions.default" not in registry.snapshot()["counters"]
    for key in keys:
        assert store.load(key) == b"payload-" + key.encode()


def test_hits_plus_misses_equals_gets_under_threads(tmp_path):
    """Counter arithmetic stays exact when many threads share a cache."""
    cache = PoolCache(tmp_path)
    present = [entry_key("77" * 32, seed) for seed in range(8)]
    absent = [entry_key("88" * 32, seed) for seed in range(8)]
    for key in present:
        cache.put(key, _solutions())

    rounds = 25

    def prober(key, expect_hit):
        for _ in range(rounds):
            got = cache.get(key)
            assert (got is not None) == expect_hit

    registry = Record()
    _run_threads(
        [lambda k=k: prober(k, True) for k in present]
        + [lambda k=k: prober(k, False) for k in absent],
        registry,
    )
    counters = registry.snapshot()["counters"]
    hits, misses = counters["store.hits.default"], counters["store.misses.default"]
    assert hits == len(present) * rounds
    assert misses == len(absent) * rounds
    assert hits + misses == (len(present) + len(absent)) * rounds


def test_concurrent_corrupt_storm_then_repair(tmp_path):
    """A corrupt-entry storm followed by a put leaves a clean entry and
    a counter equal to the number of observed corrupt loads."""
    key = entry_key("ba" * 32, 1)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    path = cache.store.path_for(key)
    # A header without tables or checksum.
    path.write_bytes(_HEADER.pack(_MAGIC, CACHE_VERSION, len(key), 1) + key.encode())

    shared = PoolCache(tmp_path)
    probes = 10

    def prober():
        for _ in range(probes):
            assert shared.get(key) is None

    registry = Record()
    _run_threads([prober for _ in range(4)], registry)
    assert registry.snapshot()["counters"]["cache.corrupt_entries"] == 4 * probes

    shared.put(key, _solutions())
    repaired = PoolCache(tmp_path)
    with use_record(registry):
        assert repaired.get(key) is not None
    assert registry.snapshot()["counters"]["cache.corrupt_entries"] == 4 * probes


def test_eviction_scan_does_not_block_readers(tmp_path, monkeypatch):
    """The store lock is never held across eviction file I/O.

    Monkeypatch the shard scan to block mid-eviction; a concurrent
    load() must still complete while the scan is stuck, proving readers
    do not serialize behind eviction's disk walk.
    """
    key_old = entry_key("dd" * 32, 1)
    key_new = entry_key("ee" * 32, 2)
    seeder = ArtifactStore(tmp_path)
    seeder.publish(key_old, b"old")
    seeder.publish(key_new, b"new")
    monkeypatch.setattr(artifact, "DEFAULT_GRACE_SECONDS", 0.0)
    store = ArtifactStore(tmp_path, max_entries=1)

    scan_started = threading.Event()
    release_scan = threading.Event()
    original_scan = store._scan_shard

    def blocking_scan(shard):
        scan_started.set()
        assert release_scan.wait(timeout=10.0), "reader never released us"
        return original_scan(shard)

    store._scan_shard = blocking_scan
    evictor = threading.Thread(target=store.evict)
    evictor.start()
    try:
        assert scan_started.wait(timeout=10.0)
        # Eviction is mid-scan; a read through the same store instance
        # must not deadlock on the store lock.
        assert store.load(key_old) in (b"old", None)
        release_scan.set()
    finally:
        release_scan.set()
        evictor.join(timeout=10.0)
    assert not evictor.is_alive()


@pytest.mark.parametrize("namespace_count", [3])
def test_namespace_storm_stays_isolated(tmp_path, namespace_count):
    """Concurrent writers in different namespaces never cross-publish."""
    caches = [
        PoolCache(tmp_path, namespace=f"tenant{n}")
        for n in range(namespace_count)
    ]
    key = entry_key("fa" * 32, 5)

    def writer(index):
        caches[index].put(key, _solutions(cnots=index + 1))

    _run_threads([lambda n=n: writer(n) for n in range(namespace_count)])
    for index in range(namespace_count):
        fresh = PoolCache(tmp_path, namespace=f"tenant{index}")
        got = fresh.get(key)
        assert got is not None
        assert got[0].cnot_count == index + 1
