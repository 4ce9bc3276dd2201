"""The substrate a compile runs on: store, worker pool, in-flight registry.

:func:`open_substrate` is the only code that builds them from the
substrate fields of a :class:`~repro.core.quest.QuestConfig`
(:data:`repro.service.protocol.SUBSTRATE_FIELDS`).  A solo ``run_quest``
opens a private substrate and closes it when it returns, so nothing
ever joins its registry; ``run_quest_batch`` opens one per batch, and
the daemon one for its lifetime, whose per-tenant caches come from
:func:`open_cache` too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batch.workqueue import InflightRegistry
from repro.parallel.cache import PoolCache
from repro.parallel.pool_manager import PersistentWorkerPool


@dataclass(frozen=True)
class Substrate:
    """What the runs sharing it reuse; closing it shuts its pool down."""

    #: The store, the one persistence; None when nothing persists.
    cache: PoolCache | None
    #: Synthesis workers; None when synthesis runs inline.
    worker_pool: PersistentWorkerPool | None
    #: The one in-process reuse across the runs on the substrate.
    inflight: InflightRegistry

    def close(self) -> None:
        """Shut the worker pool down; futures in flight are not awaited."""
        if self.worker_pool is not None:
            self.worker_pool.shutdown()

    def __enter__(self) -> Substrate:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_cache(config) -> PoolCache | None:
    """The cache of ``config.namespace`` in ``config.store_dir``, bounded
    to ``config.cache_max_entries``; None without a ``store_dir``.
    Opening sweeps orphans, counted into the ambient record."""
    if config.store_dir is None:
        return None
    return PoolCache(
        config.store_dir,
        max_entries=config.cache_max_entries,
        namespace=config.namespace,
    )


def open_substrate(config) -> Substrate:
    """A store cache with ``store_dir``, a worker pool (which starts its
    processes on its first submission) with ``workers > 1``, and always
    a fresh in-flight registry."""
    return Substrate(
        cache=open_cache(config),
        worker_pool=(
            PersistentWorkerPool(config.workers) if config.workers > 1 else None
        ),
        inflight=InflightRegistry(),
    )
