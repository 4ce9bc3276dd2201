"""Property-style tests for the content-addressed pool cache."""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.random_circuits import random_unitary
from repro.parallel.cache import (
    _HEADER,
    _MAGIC,
    CACHE_VERSION,
    PoolCache,
    _encode,
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
    return [
        SynthesisSolution(2, ((0, 1),), tuple(np.linspace(-1.0, 1.0, 10).tolist()), 0.01),
    ]


def _sealed(body: bytes) -> bytes:
    """``body`` followed by its SHA-256: an entry whose checksum holds."""
    return body + hashlib.sha256(body).digest()


def version_2_entry(key: str, solutions: list[SynthesisSolution]) -> bytes:
    """``solutions`` sealed in the version-2 layout, which also stored
    each solution's layer rotations: a ``(S, 4)`` count table with a
    rotation count, and int32 rotation codes (``ry``, ``rz`` = 1, 2)."""
    tables = (
        [(s.num_qubits, len(s.placements), 2, len(s.params)) for s in solutions],
        [pair for s in solutions for pair in s.placements],
        [1, 2] * len(solutions),
    )
    floats = ([s.distance for s in solutions], [a for s in solutions for a in s.params])
    return _sealed(
        b"".join(
            [_HEADER.pack(_MAGIC, 2, len(key), len(solutions)), key.encode()]
            + [np.array(table, dtype="<i4").tobytes() for table in tables]
            + [np.array(values, dtype="<f8").tobytes() for values in floats]
        )
    )


def _resealed(entry: bytes, version: int = CACHE_VERSION) -> bytes:
    """``entry`` with its format version replaced and its checksum redone."""
    body = bytearray(entry[: -hashlib.sha256().digest_size])
    _, _, key_length, count = _HEADER.unpack_from(body)
    _HEADER.pack_into(body, 0, _MAGIC, version, key_length, count)
    return _sealed(bytes(body))


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
def test_cache_needs_exactly_one_store(tmp_path):
    """A PoolCache is the store's entry format: it has no tier of its
    own, and it opens exactly one store namespace, under ``store_dir``."""
    with pytest.raises(TypeError):
        PoolCache()
    cache = PoolCache(tmp_path, namespace="alice")
    assert cache.store.directory == tmp_path / "alice"


def test_disk_roundtrip_across_instances(tmp_path, counters):
    key = entry_key("d" * 64, 5)
    PoolCache(tmp_path).put(key, _solutions())
    fresh = PoolCache(tmp_path)
    got = fresh.get(key)
    assert got is not None
    assert got[0].circuit.cnot_count() == 1
    assert counters()["store.hits.default"] == 1


@pytest.mark.parametrize(
    "corruption",
    [
        b"",  # empty file
        b"not a pool entry at all",
        os.urandom(64),  # random bytes
        # A checksummed header whose solution count runs past the file.
        _sealed(
            _HEADER.pack(_MAGIC, CACHE_VERSION, 64, 2**32 - 1)
            + entry_key("e" * 64, 5).encode()
        ),
    ],
    ids=["empty", "text", "random", "overflow"],
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
    """A well-formed entry with a tampered angle is rejected."""
    key = entry_key("a" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-hashlib.sha256().digest_size - 1] ^= 0x40  # last angle's top byte
    path.write_bytes(bytes(raw))
    assert PoolCache(tmp_path).get(key) is None


def test_wrong_version_or_key_is_a_miss(tmp_path):
    key = entry_key("b" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    good = path.read_bytes()

    path.write_bytes(_resealed(good, version=CACHE_VERSION + 1))
    assert PoolCache(tmp_path).get(key) is None

    path.write_bytes(_encode(entry_key("b" * 64, 6), _solutions()))
    assert PoolCache(tmp_path).get(key) is None

    # The unmodified entry still loads, proving the rejections above
    # came from the tampering and not the roundtrip itself.
    path.write_bytes(_resealed(good))
    assert PoolCache(tmp_path).get(key) == _solutions()


def test_a_version_2_entry_is_a_stale_miss(tmp_path, counters):
    """An entry written before the rotation table was dropped holds the
    same solutions in another layout: a plain miss, never corruption,
    and the next put overwrites it."""
    key = entry_key("e" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    path.write_bytes(version_2_entry(key, _solutions()))
    assert cache.get(key) is None
    assert "cache.corrupt_entries" not in counters()
    cache.put(key, _solutions())
    assert cache.get(key) == _solutions()


def test_payload_type_is_validated(tmp_path):
    """An entry whose tables are not a solution list is a miss."""
    key = entry_key("9" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    header = _HEADER.pack(_MAGIC, CACHE_VERSION, len(key), 3) + key.encode()
    path.write_bytes(_sealed(header + b"definitely not solutions"))
    assert PoolCache(tmp_path).get(key) is None


def test_roundtrip_keeps_every_field_bit_for_bit(tmp_path):
    """Structure, float64 angles and distances come back exactly, and a
    solution list without solutions is an entry too."""
    solutions = _solutions() + [
        SynthesisSolution(
            3, ((0, 1), (1, 2), (0, 2)),
            tuple(np.random.default_rng(0).normal(size=21).tolist()), 0.123456789,
        ),
        SynthesisSolution(
            2, (), (-0.0, 1e-300, np.pi, -np.pi, 5.0, 6.0), 0.5,
        ),
    ]
    cache = PoolCache(tmp_path)
    cache.put("full", solutions)
    cache.put("empty", [])
    got = PoolCache(tmp_path).get("full")
    assert got == solutions
    for loaded, stored in zip(got, solutions):
        assert all(type(angle) is float for angle in loaded.params)
        assert np.array(loaded.params).tobytes() == np.array(stored.params).tobytes()
        assert loaded.unitary().tobytes() == stored.unitary().tobytes()
    assert PoolCache(tmp_path).get("empty") == []


class _Planted:
    """Unpickling this runs ``os.mkdir(path)``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def test_the_store_never_runs_the_bytes_of_an_entry(tmp_path, counters):
    """An entry file holding a pickle whose loading would run code is a
    corrupt entry, and the code never runs."""
    key = entry_key("5" * 64, 5)
    marker = tmp_path / "ran"
    cache = PoolCache(tmp_path / "store")
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path / "store")
    header = _HEADER.pack(_MAGIC, CACHE_VERSION, len(key), 1) + key.encode()
    for planted in (
        pickle.dumps(_Planted(marker)),
        # Behind this format's own header and a valid checksum, too.
        _sealed(header + pickle.dumps(_Planted(marker))),
    ):
        path.write_bytes(planted)
        assert PoolCache(tmp_path / "store").get(key) is None
        assert not marker.exists()
    assert counters()["cache.corrupt_entries"] == 2


def test_every_flipped_bit_is_a_counted_corrupt_entry(tmp_path, counters):
    key = entry_key("6" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    good = path.read_bytes()
    for offset in range(len(good)):
        flipped = bytearray(good)
        flipped[offset] ^= 1 << (offset % 8)
        path.write_bytes(bytes(flipped))
        assert cache.get(key) is None, offset
        assert counters()["cache.corrupt_entries"] == offset + 1
    path.write_bytes(good)
    assert cache.get(key) == _solutions()


_GOOD = _solutions()[0]


@pytest.mark.parametrize(
    "entry",
    [
        _encode("k", [replace(_GOOD, placements=((0, 2),))]),
        _encode("k", [replace(_GOOD, placements=((1, 1),))]),
        _encode("k", [replace(_GOOD, params=np.zeros(11))]),
        _encode("k", [replace(_GOOD, params=np.full(10, np.nan))]),
        _encode("k", [replace(_GOOD, distance=np.inf)]),
        _sealed(_encode("k", [_GOOD])[: -hashlib.sha256().digest_size] + b"\0"),
        _encode("k", [_GOOD]) + b"\0",
    ],
    ids=[
        "placement-out-of-range", "control-is-target", "angle-count",
        "non-finite-angle", "non-finite-distance", "trailing-byte-sealed",
        "trailing-byte",
    ],
)
def test_malformed_tables_are_counted_corrupt_entries(tmp_path, counters, entry):
    cache = PoolCache(tmp_path)
    cache.put("k", _solutions())
    (path,) = _entries(tmp_path)
    path.write_bytes(entry)
    assert cache.get("k") is None
    assert counters()["cache.corrupt_entries"] == 1


def test_leftover_tmp_files_are_ignored(tmp_path, counters):
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
    assert counters()["store.orphans_swept.default"] == 1


def test_young_tmp_files_survive_the_sweep(tmp_path, counters):
    """A temp file inside the grace window may belong to a live writer
    in another replica, so opening the store leaves it alone."""
    key = entry_key("8" * 64, 5)
    shard_dir = _entry_path(tmp_path, key).parent
    shard_dir.mkdir(parents=True)
    live = shard_dir / f".{key[:16]}-live.tmp"
    live.write_bytes(b"mid-publish")
    PoolCache(tmp_path)
    assert live.exists()
    assert "store.orphans_swept.default" not in counters()


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


def test_lru_evicts_oldest_by_mtime(tmp_path, counters):
    cache = PoolCache(tmp_path, max_entries=2)
    keys = [entry_key("e" * 64, seed) for seed in range(3)]
    cache.put(keys[0], _solutions())
    cache.put(keys[1], _solutions())
    assert "store.evictions.default" not in counters()
    # Pin ages so the victim choice is deterministic, then overflow.
    _age(tmp_path, keys[0], 100)
    _age(tmp_path, keys[1], 200)
    cache.put(keys[2], _solutions())
    assert counters()["store.evictions.default"] == 1
    assert not _entry_path(tmp_path, keys[0]).exists()
    assert _entry_path(tmp_path, keys[1]).exists()
    assert _entry_path(tmp_path, keys[2]).exists()


def test_lru_hit_refreshes_recency(tmp_path, counters):
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
    assert counters()["store.evictions.default"] == 1
    assert _entry_path(tmp_path, keys[0]).exists()
    assert not _entry_path(tmp_path, keys[1]).exists()


def test_unbounded_cache_never_evicts(tmp_path, counters):
    cache = PoolCache(tmp_path)
    for seed in range(8):
        cache.put(entry_key("b2" * 32, seed), _solutions())
    assert "store.evictions.default" not in counters()
    assert len(_entries(tmp_path)) == 8


def test_bound_survives_across_instances(tmp_path, counters):
    """A fresh bounded instance over a pre-populated dir enforces the cap
    on its next store (startup itself does not scan)."""
    for seed in range(4):
        PoolCache(tmp_path).put(entry_key("c3" * 32, seed), _solutions())
    for index, key in enumerate(sorted(p.stem for p in _entries(tmp_path))):
        _age(tmp_path, key, 100 + index)
    bounded = PoolCache(tmp_path, max_entries=2)
    bounded.put(entry_key("c3" * 32, 99), _solutions())
    assert len(_entries(tmp_path)) == 2
    assert counters()["store.evictions.default"] == 3


def test_corrupt_entries_counter(tmp_path, counters):
    """Integrity failures are *counted*; plain misses are not.

    The ``cache.corrupt_entries`` counter lands in the run's registry
    and from there in ``QuestResult.cache_corrupt_entries``, so a
    rotting cache directory is visible instead of silently slow.
    """
    key = entry_key("c" * 64, 5)
    cache = PoolCache(tmp_path)
    cache.put(key, _solutions())
    (path,) = _entries(tmp_path)
    good = path.read_bytes()

    def corrupt():
        return counters().get("cache.corrupt_entries", 0)

    # Missing entry: a miss, not corruption.
    fresh = PoolCache(tmp_path)
    assert fresh.get(entry_key("d" * 64, 5)) is None
    assert corrupt() == 0

    # Stale format version: a miss, not corruption.
    path.write_bytes(_resealed(good, version=CACHE_VERSION + 1))
    fresh = PoolCache(tmp_path)
    assert fresh.get(key) is None
    assert corrupt() == 0

    # Garbled bytes: counted.
    path.write_bytes(b"rotted")
    fresh = PoolCache(tmp_path)
    assert fresh.get(key) is None
    assert corrupt() == 1
    # Repeated probes of the same bad entry keep counting (each get()
    # re-reads disk).
    assert fresh.get(key) is None
    assert corrupt() == 2

    # Repair by put(): a good entry loads without counting.
    path.write_bytes(good)
    fresh = PoolCache(tmp_path)
    assert fresh.get(key) is not None
    assert corrupt() == 2
