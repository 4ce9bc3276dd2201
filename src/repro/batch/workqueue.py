"""Global block work-queue: in-flight dedup across concurrent compiles.

Blocks are content-addressed (see :mod:`repro.parallel.cache`): the
entry key pins the global-phase-canonical unitary, the LeapConfig
fingerprint, and the synthesis seed, so two blocks with equal keys have
byte-identical results.  The warm :class:`~repro.parallel.cache.PoolCache`
already dedupes *resolved* work — but when two circuits of a batch are
compiled concurrently, both can probe the cache before either has
published, and the same block synthesizes twice.  The
:class:`InflightRegistry` closes that window:

* the first executor to reach a key **claims** it and synthesizes,
  keeping the claim across its retry rounds;
* any other executor reaching the same key while it is in flight
  **joins** — it blocks on the owner's result instead of racing to a
  cache miss;
* the owner **publishes** its first successful attempt.  Every attempt
  reruns the key's seed under the same config, so a joiner adopts a
  result identical to its own solo run's;
* an owner that ends without a result (it fell back or crashed)
  **releases** its keys — the joiner wakes, runs its own attempt, and
  the key can be re-claimed.

Resolved entries are retained for the registry's lifetime, so a batch
running with the cache disabled still synthesizes each unique key once.
"""

from __future__ import annotations

import threading

from repro.observability import get_metrics, get_tracer


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

    Thread-safe; one instance is shared by every executor of a batch.
    ``owner`` tokens are opaque objects (one per ``executor.run`` call)
    so a crashed run's claims can be released wholesale in a
    ``finally`` — a joiner can block on an owner, never on a corpse.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[object | None, InflightEntry]] = {}
        #: Keys resolved through the registry (lifetime counters).
        self.published = 0
        self.joins = 0
        #: Joiners whose wait timed out with the entry still unresolved
        #: and unreleased — an owner went missing without its ``finally``
        #: release firing.  Must stay 0; batch/service suites assert it.
        self.stranded_joiners = 0

    def claim(self, key: str, owner: object) -> InflightEntry | None:
        """Claim ``key`` for ``owner``; ``None`` means the caller owns it.

        A non-None return is an entry to join: either already resolved
        (adopt the result immediately) or in flight (wait on it).
        """
        with self._lock:
            held = self._entries.get(key)
            if held is None:
                self._entries[key] = (owner, InflightEntry())
                return None
            if held[0] is owner:
                # Re-claim across retry rounds: still ours to resolve.
                return None
            entry = held[1]
            self.joins += 1
        metrics = get_metrics()
        if metrics.is_enabled:
            metrics.inc("dedup.inflight_joins")
        tracer = get_tracer()
        if tracer.is_enabled:
            tracer.event(
                "dedup.join", key=key[:12], resolved=entry.resolved
            )
        return entry

    def publish(self, key: str, owner: object, solutions) -> None:
        """Publish ``owner``'s result for ``key``; other owners are ignored.

        The entry stays in the registry (resolved) so later claims adopt
        it without waiting — the cache-off cross-circuit dedup path.
        """
        with self._lock:
            held = self._entries.get(key)
            if held is None or held[0] is not owner:
                return
            entry = held[1]
            entry.solutions = solutions
            entry.ok = True
            # Resolved entries no longer need an owner: nothing will
            # release them, and release(owner) must not drop them.
            self._entries[key] = (None, entry)
            self.published += 1
        entry.event.set()

    def release(self, owner: object) -> None:
        """Release every unresolved key still claimed by ``owner``.

        Called in the executor's ``finally`` so an exception between
        claim and publish can never strand a joiner.  Idempotent: a
        token can only ever drop entries it still holds, so a second
        invocation (a shutdown race) finds nothing, resolved (published)
        entries — whose owner slot is cleared — are never dropped, and a
        key another owner has since re-claimed is left alone.
        """
        with self._lock:
            stale = [
                (key, held[1])
                for key, held in self._entries.items()
                if held[0] is owner
            ]
            for key, _ in stale:
                del self._entries[key]
        for _, entry in stale:
            entry.event.set()

    def wait_for(self, entry: InflightEntry, timeout: float | None) -> bool:
        """Join ``entry``: block until published/released, with accounting.

        Returns True iff a publishable result landed.  A wait that
        *times out* with the entry still unresolved means the owner
        vanished without releasing — the invariant the owner-token
        ``finally`` exists to prevent — so it is counted in
        :attr:`stranded_joiners` and mirrored to the ambient metrics as
        ``registry.stranded_joiners``; test suites assert the counter
        stays 0.
        """
        ok = entry.wait(timeout)
        if not ok and not entry.event.is_set():
            with self._lock:
                self.stranded_joiners += 1
            metrics = get_metrics()
            if metrics.is_enabled:
                metrics.inc("registry.stranded_joiners")
            tracer = get_tracer()
            if tracer.is_enabled:
                tracer.event("dedup.stranded", timeout=timeout)
        return ok
