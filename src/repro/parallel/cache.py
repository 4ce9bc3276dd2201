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
:class:`~repro.store.ArtifactStore`, one file per entry under
``<root>/<namespace>/<shard>/<key>.qpool``; a :class:`PoolCache` is only
the entry format.  An entry is data (layout at :func:`_encode`), read
with :mod:`struct` and :func:`numpy.frombuffer`, never executed.  One
whose magic and checksum hold but whose version differs is a stale
miss; any other failure to decode is a corrupt entry, counted and
recomputed, so a bad file can cost time, never correctness.  The store
owns every cross-process concern, so N daemon replicas can share one
root.  In-process reuse lives in the executor (a run's repeats) and the
substrate's :class:`~repro.batch.workqueue.InflightRegistry` (the runs
that share it).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct

import numpy as np

from repro.exceptions import ValidationError
from repro.observability import get_record
from repro.resilience.validation import validate_structure
from repro.store import DEFAULT_NAMESPACE, ArtifactStore
from repro.synthesis.ansatz import leap_param_count
from repro.synthesis.leap import SynthesisSolution

#: Bump when the entry layout changes; entries of another version that
#: pass their checksum are stale misses.
CACHE_VERSION = 3

#: An entry's first bytes, then its u32 format version, key length and
#: solution count; a file that does not start with the magic is corrupt.
_MAGIC, _HEADER = b"QPOOL\x00\r\n", struct.Struct("<8sIII")

#: Decimal places kept when canonicalizing a unitary for hashing.  Two
#: unitaries closer than ~1e-8 element-wise hash identically, which is far
#: below any distance the pipeline distinguishes.
_CANONICAL_DECIMALS = 8


def canonical_unitary_bytes(unitary: np.ndarray) -> bytes:
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
    rounded = np.round(matrix, _CANONICAL_DECIMALS)
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


def _encode(key: str, solutions: list[SynthesisSolution]) -> bytes:
    """An entry's bytes, little-endian: magic, then u32 version, key length
    and solution count ``S``; the key; an int32 ``(S, 2)`` table of each
    solution's qubit and placement counts; int32 placement pairs; float64
    distances; float64 angles, as many per solution as its template has
    (:func:`~repro.synthesis.ansatz.leap_param_count`); and a SHA-256 of
    everything before it."""
    key_bytes = key.encode()
    tables = (
        [(s.num_qubits, len(s.placements)) for s in solutions],
        [pair for s in solutions for pair in s.placements],
    )
    floats = (
        [s.distance for s in solutions],
        [angle for s in solutions for angle in s.params],
    )
    body = b"".join(
        [_HEADER.pack(_MAGIC, CACHE_VERSION, len(key_bytes), len(solutions)), key_bytes]
        + [np.array(table, dtype="<i4").tobytes() for table in tables]
        + [np.asarray(values, dtype="<f8").tobytes() for values in floats]
    )
    return body + hashlib.sha256(body).digest()


def _decode(raw: bytes, key: str) -> list[SynthesisSolution] | None:
    """The solutions an entry holds, or None for a stale format version.

    Any other failure raises before a matrix is built: the tables must
    fill the bytes exactly, and each solution must pass
    :func:`~repro.resilience.validation.validate_structure`.
    """
    body, digest = raw[:-32], raw[-32:]  # SHA-256
    if (
        not raw.startswith(_MAGIC)
        or len(body) < _HEADER.size
        or hashlib.sha256(body).digest() != digest
    ):
        raise ValueError("damaged entry")
    _, version, key_length, count = _HEADER.unpack_from(body)
    if version != CACHE_VERSION:
        return None
    offset = _HEADER.size + key_length
    if body[_HEADER.size : offset] != key.encode():
        raise ValueError("entry key mismatch")
    table = np.frombuffer(body, "<i4", 2 * count, offset).reshape(count, 2)
    if np.any(table < 0):
        raise ValueError("negative table entry")
    rows = [
        (qubits, cnots, leap_param_count(qubits, cnots))
        for qubits, cnots in table.tolist()
    ]
    placed = sum(cnots for _, cnots, _ in rows)
    angled = sum(angles for _, _, angles in rows)
    arrays, offset = [], offset + table.nbytes
    for dtype, size in zip(("<i4", "<f8", "<f8"), (2 * placed, count, angled)):
        arrays.append(np.frombuffer(body, dtype, size, offset))
        offset += arrays[-1].nbytes
    placements, distances, params = arrays
    if offset != len(body):
        raise ValueError("trailing bytes")
    columns = (
        iter([tuple(pair) for pair in placements.reshape(-1, 2).tolist()]),
        iter(params.tolist()),
    )
    solutions = []
    for (qubits, *counts), distance in zip(rows, distances.tolist()):
        fields = [tuple(itertools.islice(c, n)) for c, n in zip(columns, counts)]
        solutions.append(SynthesisSolution(qubits, *fields, distance))
        validate_structure(solutions[-1], qubits, label="stored solution")
    return solutions


class PoolCache:
    """The artifact store's entry format for block solutions.

    Wraps the :class:`~repro.store.ArtifactStore` namespace it opens
    under ``store_dir`` and owns the entry format.  It keeps no
    counters: a stored entry failing its integrity checks counts as
    ``cache.corrupt_entries`` in the ambient record, and the
    store counts its raw loads, publishes and evictions there too.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        max_entries: int | None = None,
        *,
        namespace: str = DEFAULT_NAMESPACE,
    ) -> None:
        self.store = ArtifactStore(
            store_dir, namespace=namespace, max_entries=max_entries
        )

    def get(self, key: str) -> list[SynthesisSolution] | None:
        """Return the stored solutions for ``key``, or None on a miss."""
        solutions = self._load(key)
        if solutions is not None:
            # LRU refresh: a hit keeps the entry young so eviction
            # targets genuinely cold keys.
            self.store.touch(key)
        return solutions

    def put(self, key: str, solutions: list[SynthesisSolution]) -> bool:
        """Publish ``solutions`` under ``key``; False when the store is
        unavailable and the entry is simply not persisted."""
        # The store owns atomicity (writer-unique temp file + rename)
        # and quota eviction.
        return self.store.publish(key, _encode(key, solutions))

    def _load(self, key: str) -> list[SynthesisSolution] | None:
        raw = self.store.load(key)
        if raw is None:
            return None  # Missing (or unreadable) file: a plain miss.
        try:
            return _decode(raw, key)
        except (ValueError, ValidationError):
            # Corrupt entry: count it and recompute.  Stale format
            # versions and missing files are plain misses, not
            # corruption.  The next put() overwrites the bad file.
            get_record().event("cache.corrupt_entries", key=key)
            return None
