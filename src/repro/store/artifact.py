"""Sharded, multi-tenant, multi-process artifact store.

One :class:`ArtifactStore` manages the on-disk tier that several daemon
replicas (and every thread inside each of them) can share.  It stores
opaque bytes per key; :class:`~repro.parallel.cache.PoolCache` owns
what they mean.

* **Sharding.**  An entry lives at ``<root>/<namespace>/<shard>/
  <key>.qpool``, ``shard`` being the key's first :data:`SHARD_CHARS`
  hex characters, so a maintenance scan touches one small directory.
* **Namespaces.**  A store is bound to one namespace (the service's
  tenant, via :func:`namespace_for_tenant`), which scopes its directory
  tree and its quota: tenants never see or evict each other's entries.
* **Cross-process safety.**  *Publish* writes a :func:`tempfile.mkstemp`
  file in the shard (unique per writer), fsyncs it, moves it into place
  with ``os.replace`` and fsyncs the shard, so readers see only complete
  entries and a published entry survives a crash.  *Open* deletes temp
  files older than the grace window, left by a dead writer.  *Eviction*
  never deletes an entry younger than :data:`DEFAULT_GRACE_SECONDS`, so
  another replica's fresh publish or LRU touch is safe; losing any other
  race costs a recomputation, never correctness.

Eviction approximates a global LRU while scanning one shard at a time,
from a per-shard ``(count, oldest mtime)`` table built once per process
and then kept up to date.  File I/O happens outside the store lock,
which guards only that table, so readers never stall behind a scan.
"""

from __future__ import annotations

import contextlib
import os
import re
import tempfile
import threading
import time
from pathlib import Path

from repro.exceptions import StoreError
from repro.observability import get_metrics, get_tracer

#: Namespace used when none is given (solo runs, un-tenanted clients).
DEFAULT_NAMESPACE = "default"

#: Hex characters of the entry key that name the shard directory.
SHARD_CHARS = 2

#: Entries (and orphaned temp files) younger than this are never
#: evicted/swept: a concurrent writer in another process may still be
#: publishing or refreshing them.
DEFAULT_GRACE_SECONDS = 60.0

#: Final-name suffix of a published entry.
ENTRY_SUFFIX = ".qpool"

#: Suffix of in-flight (not yet renamed) publish temp files.
TMP_SUFFIX = ".tmp"

#: What the store counts, as ``store.<counter>.<namespace>`` metrics.
STORE_COUNTERS = ("hits", "misses", "publishes", "evictions", "orphans_swept")

_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_namespace(namespace: str) -> str:
    """Return ``namespace`` if it is a safe single path component.

    Namespaces become directory names shared by multiple processes, so
    they must be non-empty, at most 64 characters, start with an
    alphanumeric, and contain only ``[A-Za-z0-9._-]`` — which also rules
    out ``.``/``..`` and path separators.  Raises :class:`StoreError`
    otherwise.
    """
    if not isinstance(namespace, str) or not _NAMESPACE_RE.match(namespace):
        raise StoreError(
            f"invalid store namespace {namespace!r}: must match "
            "[A-Za-z0-9][A-Za-z0-9._-]{0,63}"
        )
    return namespace


def namespace_for_tenant(tenant: str | None) -> str:
    """Derive a valid namespace from an arbitrary tenant string.

    Characters outside the allowed set map to ``_``, leading
    non-alphanumerics are stripped, and the result is capped at 64
    characters; an empty derivation falls back to
    :data:`DEFAULT_NAMESPACE`.  The mapping is deterministic, so the
    same tenant always lands in the same namespace.
    """
    cleaned = re.sub(r"[^A-Za-z0-9._-]", "_", tenant or "")
    cleaned = cleaned.lstrip("._-")[:64]
    if not cleaned:
        return DEFAULT_NAMESPACE
    return validate_namespace(cleaned)


def shard_of(key: str) -> str:
    """The shard directory name for ``key`` (its first hex chars)."""
    prefix = str(key)[:SHARD_CHARS].lower()
    return prefix.ljust(SHARD_CHARS, "0")


def write_atomically(path: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path``, safe against concurrent writers.

    Each writer fsyncs its own :func:`tempfile.mkstemp` file beside
    ``path``, ``os.replace``s it into place and fsyncs the directory, so
    readers see a complete old or new file that survives a crash.  On
    :class:`OSError` the temp file is removed and the error propagates.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:16]}-", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    # Makes the rename durable; best effort, as not every platform can
    # fsync a directory.
    with contextlib.suppress(OSError):
        directory_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)


def sweep_orphans(directories) -> int:
    """Delete temp files that dead writers left in ``directories``.

    :func:`write_atomically` removes its temp file on every failure it
    sees, but a writer killed between ``mkstemp`` and ``os.replace``
    leaves one behind.  A temp file older than
    :data:`DEFAULT_GRACE_SECONDS` can no longer belong to a live publish
    (publishes are short); a younger one might, and is left for the next
    sweep.  Returns the number removed.
    """
    cutoff = time.time() - DEFAULT_GRACE_SECONDS
    swept = 0
    for directory in directories:
        try:
            entries = list(os.scandir(directory))
        except OSError:
            continue
        for entry in entries:
            if not entry.name.endswith(TMP_SUFFIX):
                continue
            try:
                if entry.is_file() and entry.stat().st_mtime <= cutoff:
                    os.unlink(entry.path)
                    swept += 1
            except OSError:
                continue  # Another process's sweep won the race.
    return swept


class ArtifactStore:
    """One namespace's sharded on-disk artifact tier.

    It keeps no tallies: it counts ``store.<counter>.<namespace>``
    (:data:`STORE_COUNTERS`) into the ambient metrics registry — load
    ``hits`` (a file existed and was read; integrity is the caller's
    business) and ``misses``, ``publishes``, ``evictions`` to honour
    ``max_entries``, and ``orphans_swept`` at open.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        namespace: str = DEFAULT_NAMESPACE,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        self.namespace = validate_namespace(namespace)
        #: Per-namespace quota on published entries (None = unbounded).
        self.max_entries = max_entries
        self._dir = self.root / self.namespace
        self._dir.mkdir(parents=True, exist_ok=True)
        # The lock guards the shard table only — never held across file
        # I/O.
        self._lock = threading.Lock()
        #: shard name -> [entry count, oldest entry mtime].  Built by
        #: one full scan the first time eviction needs it, then
        #: maintained incrementally; other replicas' activity makes it
        #: approximate, and every shard scan re-trues its row.
        self._shard_meta: dict[str, list[float]] = {}
        self._meta_ready = False
        self.sweep_orphans()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """This namespace's directory (``root/namespace``)."""
        return self._dir

    def path_for(self, key: str) -> Path:
        """The final on-disk path of entry ``key``."""
        return self._dir / shard_of(key) / f"{key}{ENTRY_SUFFIX}"

    def _count(self, counter: str, amount: int = 1) -> None:
        """Count ``store.<counter>.<namespace>`` in the ambient registry."""
        metrics = get_metrics()
        if metrics.is_enabled:
            metrics.inc(f"store.{counter}.{self.namespace}", amount)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def load(self, key: str) -> bytes | None:
        """Raw bytes of entry ``key``, or None when absent/unreadable."""
        try:
            raw = self.path_for(key).read_bytes()
        except OSError:
            self._count("misses")
            return None
        self._count("hits")
        return raw

    def touch(self, key: str) -> None:
        """LRU refresh: bump ``key``'s mtime so eviction sees it as young."""
        with contextlib.suppress(OSError):
            os.utime(self.path_for(key))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def publish(self, key: str, blob: bytes) -> bool:
        """Atomically publish ``blob`` as entry ``key``.

        Safe against concurrent publishers of the same key in this or
        any other process (:func:`write_atomically`): readers see
        either the old complete entry or the new complete entry, never
        a mix.  The bytes and the rename are both fsynced before this
        returns.
        Returns False when the disk tier is unavailable (best-effort
        semantics: the entry is not persisted, and the run that produced
        it still uses its result).
        """
        shard = shard_of(key)
        shard_dir = self._dir / shard
        path = shard_dir / f"{key}{ENTRY_SUFFIX}"
        try:
            shard_dir.mkdir(parents=True, exist_ok=True)
            existed = path.exists()
            write_atomically(path, blob)
        except OSError:
            return False
        now = time.time()
        with self._lock:
            if self._meta_ready:
                meta = self._shard_meta.setdefault(shard, [0, now])
                if not existed:
                    meta[0] += 1
                meta[1] = min(meta[1], now)
        self._count("publishes")
        if self.max_entries is not None:
            self.evict()
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def sweep_orphans(self) -> int:
        """Delete the namespace's orphaned temp files (:func:`sweep_orphans`)."""
        swept = sweep_orphans((self._dir, *self._shard_dirs()))
        if swept:
            self._count("orphans_swept", swept)
            tracer = get_tracer()
            if tracer.is_enabled:
                tracer.event(
                    "store.orphans_swept",
                    namespace=self.namespace,
                    count=swept,
                )
        return swept

    def _shard_dirs(self) -> list[Path]:
        try:
            entries = list(os.scandir(self._dir))
        except OSError:
            return []
        return [Path(e.path) for e in entries if e.is_dir()]

    def _scan_shard(self, shard: str) -> list[tuple[float, Path]]:
        """(mtime, path) of every entry in ``shard``, oldest first."""
        entries: list[tuple[float, Path]] = []
        try:
            listing = list(os.scandir(self._dir / shard))
        except OSError:
            return entries
        for item in listing:
            if not item.name.endswith(ENTRY_SUFFIX):
                continue
            try:
                entries.append((item.stat().st_mtime, Path(item.path)))
            except OSError:
                continue  # Evicted or replaced under us: skip.
        entries.sort(key=lambda pair: (pair[0], pair[1].name))
        return entries

    def _ensure_meta(self) -> None:
        """Build the shard table with one full scan (once per process)."""
        with self._lock:
            if self._meta_ready:
                return
        meta: dict[str, list[float]] = {}
        for shard_dir in self._shard_dirs():
            scanned = self._scan_shard(shard_dir.name)
            if scanned:
                meta[shard_dir.name] = [len(scanned), scanned[0][0]]
        with self._lock:
            if not self._meta_ready:
                self._shard_meta = meta
                self._meta_ready = True

    def evict(self) -> int:
        """Restore the ``max_entries`` bound; returns entries deleted.

        Victim choice approximates global LRU: each round scans only
        the shard whose oldest entry is globally oldest.  Entries
        younger than the grace window are never deleted — when even the
        globally-oldest entry is inside the window, every entry is, and
        the bound is temporarily allowed to overshoot rather than risk
        deleting what a concurrent replica just published or touched.
        """
        if self.max_entries is None:
            return 0
        self._ensure_meta()
        total_evicted = 0
        while True:
            with self._lock:
                total = sum(meta[0] for meta in self._shard_meta.values())
                excess = int(total) - self.max_entries
                if excess <= 0:
                    break
                candidates = [
                    (meta[1], shard)
                    for shard, meta in self._shard_meta.items()
                    if meta[0] > 0
                ]
                if not candidates:
                    break
                _, shard = min(candidates)
            # All file I/O below runs without the lock held.
            scanned = self._scan_shard(shard)
            cutoff = time.time() - DEFAULT_GRACE_SECONDS
            evicted = 0
            survivors = list(scanned)
            for mtime, path in scanned:
                if evicted >= excess:
                    break
                if mtime > cutoff:
                    break  # Oldest-first: everything after is younger.
                try:
                    os.unlink(path)
                except OSError:
                    continue  # Another replica evicted it first.
                survivors.remove((mtime, path))
                evicted += 1
            with self._lock:
                if survivors:
                    self._shard_meta[shard] = [
                        len(survivors), survivors[0][0]
                    ]
                else:
                    self._shard_meta.pop(shard, None)
            total_evicted += evicted
            if evicted == 0:
                # The globally-oldest shard had nothing evictable
                # (grace window or lost races): stop for this round.
                break
        if total_evicted:
            self._count("evictions", total_evicted)
            tracer = get_tracer()
            if tracer.is_enabled:
                tracer.event(
                    "store.evict",
                    namespace=self.namespace,
                    count=total_evicted,
                )
        return total_evicted
