"""Unit tests for the sharded multi-tenant artifact store."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import StoreError
from repro.store import (
    DEFAULT_NAMESPACE,
    ENTRY_SUFFIX,
    SHARD_CHARS,
    TMP_SUFFIX,
    ArtifactStore,
    namespace_for_tenant,
    shard_of,
    validate_namespace,
)

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "07" + "c" * 62


def _entries_on_disk(root, namespace="default") -> int:
    """Published entries of ``namespace`` under the store ``root``."""
    return len(list((root / namespace).glob(f"*/*{ENTRY_SUFFIX}")))


def _age(store, key, mtime):
    os.utime(store.path_for(key), (mtime, mtime))


# ----------------------------------------------------------------------
# Namespace rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["default", "tenant-a", "A.b_c-9", "x", "a" * 64]
)
def test_valid_namespaces(name):
    assert validate_namespace(name) == name


@pytest.mark.parametrize(
    "name",
    ["", ".", "..", "../up", "a/b", "a\\b", "-lead", ".hidden", "a" * 65,
     "sp ace", "nul\0"],
)
def test_invalid_namespaces_rejected(name):
    with pytest.raises(StoreError, match="invalid store namespace"):
        validate_namespace(name)


@pytest.mark.parametrize(
    ("tenant", "expected"),
    [
        ("alice", "alice"),
        ("team/blue", "team_blue"),
        ("..sneaky", "sneaky"),
        ("--", DEFAULT_NAMESPACE),
        ("", DEFAULT_NAMESPACE),
        (None, DEFAULT_NAMESPACE),
        # The leading non-alphanumeric is stripped after substitution,
        # then the remainder is capped at 64 characters.
        ("Ä" + "x" * 70, "x" * 64),
    ],
)
def test_namespace_for_tenant(tenant, expected):
    derived = namespace_for_tenant(tenant)
    assert derived == expected
    # Whatever comes out is always itself valid.
    assert validate_namespace(derived) == derived


def test_namespace_for_tenant_is_deterministic():
    assert namespace_for_tenant("team/blue") == namespace_for_tenant(
        "team/blue"
    )


# ----------------------------------------------------------------------
# Sharded layout
# ----------------------------------------------------------------------
def test_shard_of_uses_key_prefix():
    assert shard_of(KEY_A) == "a" * SHARD_CHARS
    assert shard_of("ABCD" + "0" * 60) == "ab"
    assert shard_of("f") == "f0"  # short keys are padded, not crashed


def test_publish_lands_in_shard_directory(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.publish(KEY_C, b"payload")
    expected = (
        tmp_path / DEFAULT_NAMESPACE / "07" / f"{KEY_C}{ENTRY_SUFFIX}"
    )
    assert store.path_for(KEY_C) == expected
    assert expected.read_bytes() == b"payload"
    # No temp files linger after a successful publish.
    assert not list(tmp_path.rglob(f"*{TMP_SUFFIX}"))


def test_load_roundtrip_and_counters(tmp_path, counters):
    store = ArtifactStore(tmp_path)
    assert store.load(KEY_A) is None
    store.publish(KEY_A, b"blob")
    assert store.load(KEY_A) == b"blob"
    assert counters() == {
        "store.hits.default": 1,
        "store.misses.default": 1,
        "store.publishes.default": 1,
    }


def test_republish_overwrites_atomically(tmp_path):
    store = ArtifactStore(tmp_path)
    store.publish(KEY_A, b"old")
    store.publish(KEY_A, b"new")
    assert store.load(KEY_A) == b"new"
    assert _entries_on_disk(tmp_path) == 1


def test_cross_instance_reuse(tmp_path):
    ArtifactStore(tmp_path).publish(KEY_A, b"persisted")
    assert ArtifactStore(tmp_path).load(KEY_A) == b"persisted"


def test_namespaces_are_isolated(tmp_path, counters):
    alice = ArtifactStore(tmp_path, namespace="alice")
    bob = ArtifactStore(tmp_path, namespace="bob")
    alice.publish(KEY_A, b"alice-data")
    assert bob.load(KEY_A) is None
    assert alice.load(KEY_A) == b"alice-data"
    assert counters()["store.misses.bob"] == 1
    assert counters()["store.hits.alice"] == 1
    assert "store.hits.bob" not in counters()


def test_constructor_validation(tmp_path):
    with pytest.raises(ValueError, match="max_entries"):
        ArtifactStore(tmp_path, max_entries=0)
    with pytest.raises(StoreError):
        ArtifactStore(tmp_path, namespace="../evil")


# ----------------------------------------------------------------------
# Orphan sweep
# ----------------------------------------------------------------------
def test_open_sweeps_stale_orphans_only(tmp_path, counters):
    store = ArtifactStore(tmp_path)
    shard_dir = store.path_for(KEY_A).parent
    shard_dir.mkdir(parents=True, exist_ok=True)
    stale = shard_dir / f".{KEY_A[:16]}-stale{TMP_SUFFIX}"
    stale.write_bytes(b"abandoned")
    os.utime(stale, (100, 100))
    fresh = shard_dir / f".{KEY_A[:16]}-fresh{TMP_SUFFIX}"
    fresh.write_bytes(b"mid-publish")

    ArtifactStore(tmp_path)
    assert not stale.exists()
    assert fresh.exists()
    assert counters()["store.orphans_swept.default"] == 1


def test_sweep_never_touches_entries(tmp_path, counters):
    store = ArtifactStore(tmp_path)
    store.publish(KEY_A, b"entry")
    _age(store, KEY_A, 100)  # far older than any grace window
    reopened = ArtifactStore(tmp_path)
    assert reopened.load(KEY_A) == b"entry"
    assert "store.orphans_swept.default" not in counters()


# ----------------------------------------------------------------------
# Quota eviction
# ----------------------------------------------------------------------
def test_eviction_respects_grace_window(tmp_path, counters):
    """Freshly published entries are never evicted, even over quota."""
    store = ArtifactStore(tmp_path, max_entries=1)
    store.publish(KEY_A, b"one")
    store.publish(KEY_B, b"two")
    # Both entries are younger than the grace window: the bound is
    # allowed to overshoot rather than delete what a concurrent
    # replica may be mid-publish on.
    assert "store.evictions.default" not in counters()
    assert store.load(KEY_A) == b"one"
    assert store.load(KEY_B) == b"two"


def test_eviction_targets_globally_oldest_across_shards(tmp_path):
    store = ArtifactStore(tmp_path)  # unbounded seeder: no early evicts
    keys = ["1" + "a" * 63, "2" + "b" * 63, "3" + "c" * 63]
    for index, key in enumerate(keys):
        store.publish(key, b"x")
        _age(store, key, 100 + index)
    # Keys live in three different shards; a fresh bounded instance
    # must still pick the globally-oldest victim.
    bounded = ArtifactStore(tmp_path, max_entries=2)
    assert bounded.evict() == 1
    assert not bounded.path_for(keys[0]).exists()
    assert bounded.path_for(keys[1]).exists()
    assert bounded.path_for(keys[2]).exists()


def test_touch_protects_from_eviction(tmp_path):
    store = ArtifactStore(tmp_path)
    keys = ["4" + "d" * 63, "5" + "e" * 63]
    for index, key in enumerate(keys):
        store.publish(key, b"x")
        _age(store, key, 100 + index)
    store.touch(keys[0])  # now young again -> keys[1] is the victim
    fresh = ArtifactStore(tmp_path, max_entries=1)
    assert fresh.evict() == 1
    assert fresh.path_for(keys[0]).exists()
    assert not fresh.path_for(keys[1]).exists()


def test_unbounded_store_never_evicts(tmp_path):
    store = ArtifactStore(tmp_path)
    for index in range(6):
        key = f"{index:x}" + "f" * 63
        store.publish(key, b"x")
        _age(store, key, 100 + index)
    assert store.evict() == 0
    assert _entries_on_disk(tmp_path) == 6


def test_quota_is_per_namespace(tmp_path, counters):
    """One tenant filling its quota cannot evict another's entries."""
    bob = ArtifactStore(tmp_path, namespace="bob", max_entries=1)
    bob.publish(KEY_B, b"bob-data")
    _age(bob, KEY_B, 100)  # bob's single entry is old AND over no quota
    seeder = ArtifactStore(tmp_path, namespace="alice")
    for index in range(3):
        key = f"{index:x}" + "0" * 63
        seeder.publish(key, b"x")
        _age(seeder, key, 200 + index)
    alice = ArtifactStore(tmp_path, namespace="alice", max_entries=1)
    assert alice.evict() == 2
    assert bob.load(KEY_B) == b"bob-data"
    assert counters()["store.evictions.alice"] == 2
    assert "store.evictions.bob" not in counters()

