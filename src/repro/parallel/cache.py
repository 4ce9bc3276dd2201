"""Content-addressed cache for per-block synthesis results.

Trotterized circuits (TFIM, Heisenberg, XY) partition into many blocks
whose unitaries are *identical*, so LEAP would otherwise re-derive the
same approximation pool over and over.  The cache stores the list of
:class:`~repro.synthesis.leap.SynthesisSolution` objects a block's
synthesis produced, addressed by content:

* ``content_key(unitary, fingerprint)`` — a SHA-256 of the block unitary
  canonicalized up to global phase, mixed with the
  :meth:`LeapConfig.fingerprint` of every behaviour-affecting synthesis
  knob *except* the seed.  Blocks that are equal up to a global phase map
  to the same content key; any change to threshold, layer budget,
  optimizer iterations, etc. maps to a different one.
* ``entry_key(content, seed)`` — the content key mixed with the seed the
  synthesis actually ran under.  Solutions depend on the seed, so the
  stored entry must too; the executor canonicalizes seeds per content key
  (first occurrence wins) so that repeats within a run share an entry.

Entries live in the sharded multi-tenant
:class:`~repro.store.ArtifactStore` — one file per entry under
``<root>/<namespace>/<shard>/<key>.qpool`` — and nowhere else: a
:class:`PoolCache` is only the store's entry format.  Each entry is a
pickled envelope carrying a format version, the key, and a SHA-256
checksum of the payload; anything that fails to load, fails the
checksum, or carries the wrong version/key is treated as a miss and
recomputed — a corrupt or partially-written file can cost time, never
correctness.  The store owns all cross-process concerns (atomic publish
with writer-unique temp files, crash-orphan sweeps, per-namespace LRU
quotas with an mtime grace window), so N daemon replicas can share one
store root and dedupe synthesis across replicas.  In-process reuse
lives elsewhere: a run's own repeats in the executor, and the runs of a
batch or daemon in the shared
:class:`~repro.batch.workqueue.InflightRegistry`.
"""

from __future__ import annotations

import hashlib
import os
import pickle

import numpy as np

from repro.observability import get_metrics, get_tracer
from repro.store import DEFAULT_NAMESPACE, ArtifactStore
from repro.synthesis.leap import SynthesisSolution

#: Bump when the entry payload layout changes; old files become misses.
CACHE_VERSION = 1

#: Decimal places kept when canonicalizing a unitary for hashing.  Two
#: unitaries closer than ~1e-8 element-wise hash identically, which is far
#: below any distance the pipeline distinguishes.
_CANONICAL_DECIMALS = 8


def canonical_unitary_bytes(
    unitary: np.ndarray, decimals: int = _CANONICAL_DECIMALS
) -> bytes:
    """Serialize ``unitary`` invariantly under global phase.

    The matrix is divided by the phase of its largest-magnitude entry
    (making that entry real-positive), rounded, and serialized together
    with its shape.  ``U`` and ``e^{i theta} U`` therefore produce the
    same bytes.
    """
    matrix = np.ascontiguousarray(unitary, dtype=complex)
    flat_index = int(np.argmax(np.abs(matrix)))
    pivot = matrix.flat[flat_index]
    magnitude = abs(pivot)
    if magnitude > 0.0:
        matrix = matrix / (pivot / magnitude)
    rounded = np.round(matrix, decimals)
    # Normalize -0.0 so that values straddling zero hash consistently.
    rounded = rounded + 0.0
    return repr(rounded.shape).encode() + rounded.tobytes()


def content_key(unitary: np.ndarray, fingerprint: str) -> str:
    """Key identifying *what* is synthesized: target + seedless config."""
    digest = hashlib.sha256()
    digest.update(canonical_unitary_bytes(unitary))
    digest.update(b"\x00")
    digest.update(fingerprint.encode())
    return digest.hexdigest()


def entry_key(content: str, seed: int) -> str:
    """Key identifying a concrete result: content key + synthesis seed."""
    digest = hashlib.sha256()
    digest.update(content.encode())
    digest.update(b"\x00seed=")
    digest.update(str(int(seed)).encode())
    return digest.hexdigest()


class PoolCache:
    """The artifact store's entry format for block solutions.

    Wraps the :class:`~repro.store.ArtifactStore` namespace it opens
    under ``store_dir`` and owns the entry envelope.  It keeps no
    counters: a stored entry failing its integrity checks counts as
    ``cache.corrupt_entries`` in the ambient metrics registry, and the
    store counts its raw loads, publishes and evictions there too.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        fault_injector=None,
        max_entries: int | None = None,
        *,
        namespace: str = DEFAULT_NAMESPACE,
    ) -> None:
        self.store = ArtifactStore(
            store_dir, namespace=namespace, max_entries=max_entries
        )
        #: Optional :class:`repro.resilience.faults.FaultInjector` whose
        #: ``flip-cache`` faults corrupt entries after publish (tests/CI).
        self.fault_injector = fault_injector

    def get(self, key: str) -> list[SynthesisSolution] | None:
        """Return the stored solutions for ``key``, or None on a miss."""
        solutions = self._load(key)
        if solutions is not None:
            # LRU refresh: a hit keeps the entry young so eviction
            # targets genuinely cold keys.
            self.store.touch(key)
        return solutions

    def put(self, key: str, solutions: list[SynthesisSolution]) -> None:
        """Publish ``solutions`` under ``key``."""
        payload = pickle.dumps(list(solutions), protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "version": CACHE_VERSION,
            "key": key,
            "checksum": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        # The store owns atomicity (writer-unique temp file + rename)
        # and quota eviction; False means the store is unavailable and
        # the entry is simply not persisted.
        if self.store.publish(key, blob) and self.fault_injector is not None:
            self.fault_injector.on_cache_write(self.store.path_for(key))

    def _load(self, key: str) -> list[SynthesisSolution] | None:
        raw = self.store.load(key)
        if raw is None:
            return None  # Missing (or unreadable) file: a plain miss.
        try:
            envelope = pickle.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not a dict")
            if envelope.get("version") != CACHE_VERSION:
                # Stale format from an older build: a miss, not corruption.
                return None
            if envelope.get("key") != key:
                raise ValueError("entry key mismatch")
            payload = envelope["payload"]
            if hashlib.sha256(payload).hexdigest() != envelope["checksum"]:
                raise ValueError("payload checksum mismatch")
            solutions = pickle.loads(payload)
            if not isinstance(solutions, list) or not all(
                isinstance(s, SynthesisSolution) for s in solutions
            ):
                raise ValueError("payload is not a SynthesisSolution list")
        except (
            # Everything a truncated, garbled, or bit-flipped pickle can
            # raise while loading — deliberately *not* a bare Exception,
            # so programming errors (and MemoryError etc.) still surface.
            pickle.UnpicklingError,
            EOFError,
            ValueError,
            TypeError,
            KeyError,
            AttributeError,
            ImportError,
            IndexError,
            OverflowError,
        ):
            # Corrupt entry (a failed checksum, key or payload check, or
            # unpicklable bytes): count it and recompute.  Stale format
            # versions and missing files are plain misses, not
            # corruption.  The next put() overwrites the bad file.
            tracer = get_tracer()
            if tracer.is_enabled:
                tracer.event("cache.corrupt_entry", key=key)
            metrics = get_metrics()
            if metrics.is_enabled:
                metrics.inc("cache.corrupt_entries")
            return None
        return solutions
