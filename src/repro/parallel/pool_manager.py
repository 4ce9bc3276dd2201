"""Persistent, recyclable process pool for block synthesis.

A :class:`~repro.parallel.substrate.Substrate` with ``workers > 1``
holds one :class:`PersistentWorkerPool`, which serves every synthesis
round of every run on that substrate, so worker startup (fork +
interpreter warm-up) is paid once per solo run, batch or daemon.  It
starts its processes on the first submission, and it is recycled only
when it is actually unhealthy:

* a **hung worker** (a future that blew past its hard timeout) still
  occupies its process, so reusing the pool would starve later rounds —
  the round that observed the timeout calls :meth:`mark_unhealthy` and
  the *next* round gets a fresh pool;
* a **killed worker** (the fault injector's ``kill`` spec, an OOM kill)
  breaks the pool outright (``BrokenProcessPool``) — same treatment.

Healthy pools — including ones whose workers merely *raised* — are
reused as-is; a Python-level exception leaves the worker process intact.

Recycling uses ``shutdown(wait=False)`` without cancelling futures, so
in-flight work submitted by *other* threads (concurrent circuits in a
batch) drains in the old pool while new submissions land in the fresh
one.  A truly hung worker's process is abandoned, never awaited.

Thread safety: all state transitions take a lock, so the threads of a
batch's circuits or a daemon's jobs can share one instance.  The pool
keeps no tallies: it counts ``pool.created`` and ``pool.recycles`` into
the ambient record, and the executor counts ``pool.rounds``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor

from repro.observability import get_record


def _warm_worker() -> None:  # pragma: no cover - runs in worker processes
    """Pay the heavy imports once per worker, not once per task."""
    import repro.synthesis.instantiate  # noqa: F401
    import repro.synthesis.leap  # noqa: F401


class PersistentWorkerPool:
    """One process pool, reused across synthesis rounds and circuits.

    Parameters
    ----------
    workers:
        Worker-process count (must be >= 2; a single-worker substrate
        has no pool, and its runs synthesize inline).
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError(
                f"PersistentWorkerPool needs workers >= 2, got {workers}"
            )
        self.workers = int(workers)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._unhealthy = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return a healthy pool, constructing/recycling as needed."""
        if self._closed:
            raise RuntimeError("PersistentWorkerPool is shut down")
        if self._pool is not None and self._unhealthy:
            # Old pool may hold a hung worker: abandon it without
            # waiting.  Futures already submitted (possibly by another
            # thread) keep draining in the old pool's processes.
            self._pool.shutdown(wait=False)
            self._pool = None
            get_record().inc("pool.recycles")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_warm_worker
            )
            self._unhealthy = False
            get_record().inc("pool.created")
        return self._pool

    def submit(self, fn, /, *args) -> Future:
        """Submit work to the (possibly freshly recycled) pool."""
        with self._lock:
            return self._ensure_pool().submit(fn, *args)

    def mark_unhealthy(self) -> None:
        """Flag the current pool for recycling before its next use.

        Called by a round that saw a hard timeout or a broken pool; the
        flag is sticky until the next submission constructs a fresh
        pool.
        """
        with self._lock:
            self._unhealthy = True

    def shutdown(self) -> None:
        """Tear the pool down; futures in flight are not awaited."""
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
