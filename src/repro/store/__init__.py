"""Sharded multi-tenant artifact store, where block solutions persist."""

from repro.exceptions import StoreError
from repro.store.artifact import (
    DEFAULT_GRACE_SECONDS,
    DEFAULT_NAMESPACE,
    ENTRY_SUFFIX,
    SHARD_CHARS,
    STORE_COUNTERS,
    TMP_SUFFIX,
    ArtifactStore,
    namespace_for_tenant,
    shard_of,
    validate_namespace,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_GRACE_SECONDS",
    "DEFAULT_NAMESPACE",
    "ENTRY_SUFFIX",
    "SHARD_CHARS",
    "STORE_COUNTERS",
    "StoreError",
    "TMP_SUFFIX",
    "namespace_for_tenant",
    "shard_of",
    "validate_namespace",
]
