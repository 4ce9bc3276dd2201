"""Global block work-queue: in-flight dedup across concurrent compiles.

Blocks are content-addressed (see :mod:`repro.parallel.cache`): the
entry key pins the global-phase-canonical unitary, the LeapConfig
fingerprint, and the synthesis seed, so two blocks with equal keys have
byte-identical results.  A substrate's :class:`InflightRegistry` is the
only in-process reuse across the runs that share it; the artifact store
only persists.  Without it, two circuits compiled concurrently would
both miss the store before either had published, and the same block
would synthesize twice.  The registry closes that window:

* the first executor to reach a key **claims** it and synthesizes,
  keeping the claim across its retry rounds;
* any other executor reaching the same key while it is in flight
  **joins** — it blocks on the owner's result instead of synthesizing
  the key again;
* the owner **publishes** its first successful attempt.  Every attempt
  reruns the key's seed under the same config, so a joiner adopts a
  result identical to its own solo run's;
* an owner that ends without a result (it fell back or crashed)
  **releases** its keys — the joiner wakes, runs its own attempt, and
  the key can be re-claimed.

Resolved entries are retained, so a batch or daemon synthesizes each
unique key once, with or without a store, up to
:data:`MAX_RESOLVED_ENTRIES`: past it the least recently used resolved
entry leaves, and a run that plans its key again reads it from the
store or synthesizes it, bit-identically (the key pins the seed).  A
claimed, unresolved entry is never dropped, and a joiner holds its own
entry, so an eviction strands no one.  A solo run's registry is private
and never joined.  The registry keeps no tallies: joins, evictions and
stranded joiners are counted into the ambient record as
``dedup.inflight_joins``, ``registry.evictions`` and
``registry.stranded_joiners``.
"""

from __future__ import annotations

import threading

from repro.observability import get_record

#: Most resolved entries a registry keeps; past it the least recently
#: used leaves.  A resolved entry of a 3-qubit block at the benchmark
#: configuration (16 solutions) holds about 17.5 KB of Python objects,
#: so the bound caps the table near 18 MiB, far above a benchmark
#: batch's distinct keys (8 in ``batch_dup``).
MAX_RESOLVED_ENTRIES = 1024


class InflightEntry:
    """One key's in-flight state: an event plus the published result."""

    __slots__ = ("event", "solutions", "ok")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.solutions = None
        self.ok = False

    @property
    def resolved(self) -> bool:
        """Whether a publishable result is already available."""
        return self.event.is_set() and self.ok

    def wait(self, timeout: float | None) -> bool:
        """Block until published/released; True iff a result landed."""
        finished = self.event.wait(timeout)
        return bool(finished and self.ok)


class InflightRegistry:
    """Claim/join/publish registry keyed by cache entry key.

    Thread-safe; one instance is shared by every run on a substrate.
    ``owner`` tokens are opaque objects (one per ``executor.run`` call)
    so a crashed run's claims can be released wholesale in a
    ``finally`` — a joiner can block on an owner, never on a corpse.
    Claimed keys and resolved keys are held apart: only the resolved
    ones, in least-recently-used order, count towards
    :data:`MAX_RESOLVED_ENTRIES`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims: dict[str, tuple[object, InflightEntry]] = {}
        self._resolved: dict[str, InflightEntry] = {}

    def claim(self, key: str, owner: object) -> InflightEntry | None:
        """Claim ``key`` for ``owner``; ``None`` means the caller owns it.

        A non-None return is an entry to join: either already resolved
        (adopt the result immediately; the entry becomes the most
        recently used) or in flight (wait on it).
        """
        with self._lock:
            entry = self._resolved.pop(key, None)
            if entry is not None:
                self._resolved[key] = entry
            else:
                held = self._claims.get(key)
                if held is None:
                    self._claims[key] = (owner, InflightEntry())
                    return None
                if held[0] is owner:
                    # Re-claim across retry rounds: still ours to resolve.
                    return None
                entry = held[1]
        get_record().event(
            "dedup.inflight_joins", key=key[:12], resolved=entry.resolved
        )
        return entry

    def publish(self, key: str, owner: object, solutions) -> None:
        """Publish ``owner``'s result for ``key``; other owners are ignored.

        The entry moves to the resolved entries so later claims adopt
        it without waiting — the cross-circuit reuse path — and the
        least recently used resolved entries past
        :data:`MAX_RESOLVED_ENTRIES` leave, each counted as one
        ``registry.evictions`` event.
        """
        with self._lock:
            held = self._claims.get(key)
            if held is None or held[0] is not owner:
                return
            # Out of the claims, release(owner) can no longer drop it.
            del self._claims[key]
            entry = held[1]
            entry.solutions = solutions
            entry.ok = True
            self._resolved[key] = entry
            evicted = []
            while len(self._resolved) > MAX_RESOLVED_ENTRIES:
                oldest = next(iter(self._resolved))
                del self._resolved[oldest]
                evicted.append(oldest)
        entry.event.set()
        record = get_record()
        for dropped in evicted:
            record.event("registry.evictions", key=dropped[:12])

    def release(self, owner: object) -> None:
        """Release every unresolved key still claimed by ``owner``.

        Called in the executor's ``finally`` so an exception between
        claim and publish can never strand a joiner.  Idempotent: a
        token can only ever drop entries it still holds, so a second
        invocation (a shutdown race) finds nothing, resolved (published)
        entries — which have left the claims — are never dropped, and a
        key another owner has since re-claimed is left alone.
        """
        with self._lock:
            stale = [
                (key, held[1])
                for key, held in self._claims.items()
                if held[0] is owner
            ]
            for key, _ in stale:
                del self._claims[key]
        for _, entry in stale:
            entry.event.set()

    def wait_for(self, entry: InflightEntry, timeout: float | None) -> bool:
        """Join ``entry``: block until published/released, with accounting.

        Returns True iff a publishable result landed.  A wait that
        *times out* with the entry still unresolved means the owner
        vanished without releasing — the invariant the owner-token
        ``finally`` exists to prevent — so it is counted as
        ``registry.stranded_joiners``; test suites assert the counter
        stays 0.
        """
        ok = entry.wait(timeout)
        if not ok and not entry.event.is_set():
            get_record().event("registry.stranded_joiners", timeout=timeout)
        return ok
