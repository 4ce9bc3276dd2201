"""Property-style tests for the content-addressed pool cache."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.random_circuits import random_unitary
from repro.parallel.cache import (
    CACHE_VERSION,
    PoolCache,
    canonical_unitary_bytes,
    content_key,
    entry_key,
)
from repro.store import ENTRY_SUFFIX, shard_of
from repro.synthesis.leap import LeapConfig, SynthesisSolution


def _entry_path(root, key, namespace="default"):
    """Where the sharded store keeps ``key``'s entry on disk."""
    return root / namespace / shard_of(key) / f"{key}{ENTRY_SUFFIX}"


def _entries(root):
    """All entry files under ``root``, any namespace/shard."""
    return sorted(root.rglob(f"*{ENTRY_SUFFIX}"))


def _solutions() -> list[SynthesisSolution]:
    circuit = Circuit(2)
    circuit.ry(0.3, 0)
    circuit.cx(0, 1)
    return [
        SynthesisSolution(circuit=circuit, distance=0.01, cnot_count=1),
    ]


FINGERPRINT = LeapConfig(max_layers=3, target_distance=0.2).fingerprint()


# ----------------------------------------------------------------------
# Key properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("phase", [0.1, np.pi / 3, np.pi, -2.5])
def test_global_phase_invariance(rng, phase):
    """U and e^{i theta} U address the same cache entry."""
    unitary = random_unitary(4, rng)
    shifted = np.exp(1j * phase) * unitary
    assert canonical_unitary_bytes(unitary) == canonical_unitary_bytes(shifted)
    assert content_key(unitary, FINGERPRINT) == content_key(
        shifted, FINGERPRINT
    )


def test_distinct_unitaries_miss(rng):
    a = random_unitary(4, rng)
    b = random_unitary(4, rng)
    assert content_key(a, FINGERPRINT) != content_key(b, FINGERPRINT)


def test_same_matrix_different_dtype_layout(rng):
    unitary = random_unitary(4, rng)
    assert canonical_unitary_bytes(unitary) == canonical_unitary_bytes(
        np.asfortranarray(unitary)
    )


def test_tiny_perturbations_below_resolution_collide(rng):
    """Sub-1e-9 noise (far below any distance QUEST resolves) still hits."""
    unitary = random_unitary(4, rng)
    wiggled = unitary * np.exp(1j * 1e-10)
    assert content_key(unitary, FINGERPRINT) == content_key(
        wiggled, FINGERPRINT
    )


@pytest.mark.parametrize(
    "other",
    [
        LeapConfig(max_layers=4, target_distance=0.2),  # layer budget
        LeapConfig(max_layers=3, target_distance=0.1),  # threshold
        LeapConfig(max_layers=3, target_distance=0.2, solutions_per_layer=5),
        LeapConfig(max_layers=3, target_distance=0.2, instantiation_starts=7),
        LeapConfig(
            max_layers=3, target_distance=0.2, max_optimizer_iterations=9
        ),
        LeapConfig(max_layers=3, target_distance=0.2, success_threshold=1e-6),
        LeapConfig(max_layers=3, target_distance=0.2, stop_when_exact=True),
        LeapConfig(max_layers=3, target_distance=0.2, coupling=[(0, 1)]),
    ],
)
def test_differing_leap_config_fields_miss(rng, other):
    unitary = random_unitary(4, rng)
    assert other.fingerprint() != FINGERPRINT
    assert content_key(unitary, other.fingerprint()) != content_key(
        unitary, FINGERPRINT
    )


def test_seed_is_not_part_of_the_fingerprint():
    """Seed policy is mixed in via entry_key, never the fingerprint."""
    assert (
        LeapConfig(max_layers=3, seed=1).fingerprint()
        == LeapConfig(max_layers=3, seed=2).fingerprint()
    )
    content = "ab" * 32
    assert entry_key(content, 1) != entry_key(content, 2)
    assert entry_key(content, 1) == entry_key(content, 1)


# ----------------------------------------------------------------------
# Store behaviour
# ----------------------------------------------------------------------
def test_memory_roundtrip():
    cache = PoolCache()
    key = entry_key("c" * 64, 3)
    assert cache.get(key) is None
    cache.put(key, _solutions())
    got = cache.get(key)
    assert got is not None and len(got) == 1
    assert got[0].cnot_count == 1
    assert cache.hits == 1 and cache.misses == 1


def test_disk_roundtrip_across_instances(tmp_path):
    key = entry_key("d" * 64, 5)
    PoolCache(tmp_path).put(key, _solutions())
    fresh = PoolCache(tmp_path)
    got = fresh.get(key)
    assert got is not None
    assert got[0].circuit.cnot_count() == 1
    assert fresh.hits == 1


@pytest.mark.parametrize(
    "corruption",
    [
        b"",  # empty file
        b"not a pickle at all",
        os.urandom(64),  # random bytes
    ],
    ids=["empty", "text", "random"],
)
def test_corrupt_disk_entries_are_misses(tmp_path, corruption):
    key = entry_key("e" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    path.write_bytes(corruption)
    fresh = PoolCache(tmp_path)
    assert fresh.get(key) is None
    # Recompute path: a put after the miss repairs the entry.
    fresh.put(key, _solutions())
    assert PoolCache(tmp_path).get(key) is not None


def test_truncated_disk_entry_is_a_miss(tmp_path):
    """A partially-written (crash mid-write) file never poisons a run."""
    key = entry_key("f" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert PoolCache(tmp_path).get(key) is None


def test_checksum_mismatch_is_a_miss(tmp_path):
    """A well-formed envelope with a tampered payload is rejected."""
    key = entry_key("a" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    envelope = pickle.loads(path.read_bytes())
    envelope["payload"] = envelope["payload"][:-1] + b"\x00"
    path.write_bytes(pickle.dumps(envelope))
    assert PoolCache(tmp_path).get(key) is None


def test_wrong_version_or_key_is_a_miss(tmp_path):
    key = entry_key("b" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    good = pickle.loads(path.read_bytes())

    stale = dict(good, version=CACHE_VERSION + 1)
    path.write_bytes(pickle.dumps(stale))
    assert PoolCache(tmp_path).get(key) is None

    mislabeled = dict(good, key=entry_key("b" * 64, 6))
    path.write_bytes(pickle.dumps(mislabeled))
    assert PoolCache(tmp_path).get(key) is None

    # The unmodified envelope still loads, proving the rejections above
    # came from the tampering and not the roundtrip itself.
    path.write_bytes(pickle.dumps(good))
    assert PoolCache(tmp_path).get(key) is not None


def test_payload_type_is_validated(tmp_path):
    """An entry whose payload is not a solution list is a miss."""
    key = entry_key("9" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    envelope = pickle.loads(path.read_bytes())
    import hashlib

    payload = pickle.dumps(["definitely", "not", "solutions"])
    envelope["payload"] = payload
    envelope["checksum"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(pickle.dumps(envelope))
    assert PoolCache(tmp_path).get(key) is None


def test_leftover_tmp_files_are_ignored(tmp_path):
    """An abandoned temp file from a crashed writer is not an entry,
    and once past the grace window it is swept at open."""
    key = entry_key("7" * 64, 5)
    shard_dir = _entry_path(tmp_path, key).parent
    shard_dir.mkdir(parents=True)
    orphan = shard_dir / f".{key[:16]}-dead.tmp"
    orphan.write_bytes(b"half-written")
    os.utime(orphan, (100, 100))  # long past any grace window
    cache = PoolCache(tmp_path)
    assert cache.get(key) is None
    assert not orphan.exists()
    assert cache.store.orphans_swept == 1


def test_young_tmp_files_survive_the_sweep(tmp_path):
    """A temp file inside the grace window may belong to a live writer
    in another replica, so opening the store leaves it alone."""
    key = entry_key("8" * 64, 5)
    shard_dir = _entry_path(tmp_path, key).parent
    shard_dir.mkdir(parents=True)
    live = shard_dir / f".{key[:16]}-live.tmp"
    live.write_bytes(b"mid-publish")
    cache = PoolCache(tmp_path)
    assert live.exists()
    assert cache.store.orphans_swept == 0


# ----------------------------------------------------------------------
# Size-bounded disk tier (LRU by mtime)
# ----------------------------------------------------------------------
def _age(tmp_path, key, mtime):
    os.utime(_entry_path(tmp_path, key), (mtime, mtime))


def test_max_entries_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="max_entries"):
        PoolCache(tmp_path, max_entries=0)
    with pytest.raises(ValueError, match="max_entries"):
        PoolCache(tmp_path, max_entries=-3)


def test_lru_evicts_oldest_by_mtime(tmp_path):
    cache = PoolCache(tmp_path, max_entries=2)
    keys = [entry_key("e" * 64, seed) for seed in range(3)]
    cache.put(keys[0], _solutions())
    cache.put(keys[1], _solutions())
    assert cache.evictions == 0
    # Pin ages so the victim choice is deterministic, then overflow.
    _age(tmp_path, keys[0], 100)
    _age(tmp_path, keys[1], 200)
    cache.put(keys[2], _solutions())
    assert cache.evictions == 1
    assert not _entry_path(tmp_path, keys[0]).exists()
    assert _entry_path(tmp_path, keys[1]).exists()
    assert _entry_path(tmp_path, keys[2]).exists()


def test_lru_hit_refreshes_recency(tmp_path):
    keys = [entry_key("f" * 64, seed) for seed in range(3)]
    seeded = PoolCache(tmp_path, max_entries=2)
    seeded.put(keys[0], _solutions())
    seeded.put(keys[1], _solutions())
    _age(tmp_path, keys[0], 100)
    _age(tmp_path, keys[1], 200)
    cache = PoolCache(tmp_path, max_entries=2)
    # The disk hit bumps keys[0]'s mtime, so the *unread* keys[1] is now
    # the coldest entry and gets evicted by the overflowing put.
    assert cache.get(keys[0]) is not None
    cache.put(keys[2], _solutions())
    assert cache.evictions == 1
    assert _entry_path(tmp_path, keys[0]).exists()
    assert not _entry_path(tmp_path, keys[1]).exists()


def test_eviction_does_not_touch_memory_tier(tmp_path):
    """An evicted key this run already cached in memory still hits."""
    keys = [entry_key("a1" * 32, seed) for seed in range(3)]
    cache = PoolCache(tmp_path, max_entries=1)
    for index, key in enumerate(keys):
        cache.put(key, _solutions())
        _age(tmp_path, key, 100 + index)
    on_disk = sorted(path.name for path in _entries(tmp_path))
    assert on_disk == [f"{keys[2]}.qpool"]
    assert cache.evictions == 2
    for key in keys:
        assert cache.get(key) is not None
    assert cache.misses == 0


def test_unbounded_cache_never_evicts(tmp_path):
    cache = PoolCache(tmp_path)
    for seed in range(8):
        cache.put(entry_key("b2" * 32, seed), _solutions())
    assert cache.evictions == 0
    assert len(_entries(tmp_path)) == 8


def test_bound_survives_across_instances(tmp_path):
    """A fresh bounded instance over a pre-populated dir enforces the cap
    on its next store (startup itself does not scan)."""
    for seed in range(4):
        PoolCache(tmp_path).put(entry_key("c3" * 32, seed), _solutions())
    for index, key in enumerate(sorted(p.stem for p in _entries(tmp_path))):
        _age(tmp_path, key, 100 + index)
    bounded = PoolCache(tmp_path, max_entries=2)
    bounded.put(entry_key("c3" * 32, 99), _solutions())
    assert len(_entries(tmp_path)) == 2
    assert bounded.evictions == 3


def test_corrupt_entries_counter(tmp_path):
    """Integrity failures are *counted*; plain misses are not.

    The counter surfaces through the executor's stats as
    ``cache_corrupt_entries`` and from there into ``QuestResult``, so a
    rotting cache directory is visible instead of silently slow.
    """
    key = entry_key("c" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    good = path.read_bytes()

    # Missing entry: a miss, not corruption.
    fresh = PoolCache(tmp_path)
    assert fresh.get(entry_key("d" * 64, 5)) is None
    assert fresh.corrupt_entries == 0

    # Stale format version: a miss, not corruption.
    stale = dict(pickle.loads(good), version=CACHE_VERSION + 1)
    path.write_bytes(pickle.dumps(stale))
    fresh = PoolCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.corrupt_entries == 0

    # Garbled bytes: counted.
    path.write_bytes(b"rotted")
    fresh = PoolCache(tmp_path)
    assert fresh.get(key) is None
    assert fresh.corrupt_entries == 1
    # Repeated probes of the same bad entry keep counting (each get()
    # re-reads disk after the memory miss).
    assert fresh.get(key) is None
    assert fresh.corrupt_entries == 2

    # Repair by put(): the counter is a high-water history, not state.
    path.write_bytes(good)
    fresh = PoolCache(tmp_path)
    assert fresh.get(key) is not None
    assert fresh.corrupt_entries == 0
