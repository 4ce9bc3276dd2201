"""Multi-circuit compilation driver: one warm substrate, many quests.

:func:`run_quest_batch` compiles a whole circuit family (a TFIM sweep,
a benchmark suite) through :func:`repro.core.quest.run_quest` while
sharing the expensive runtime state across every circuit:

* **one persistent worker pool** — worker processes fork and warm up
  once for the whole batch instead of once per synthesis round
  (:class:`~repro.parallel.pool_manager.PersistentWorkerPool`);
* **one in-flight registry** — blocks identical across circuits
  synthesize once: a circuit joins another's job while it is in flight
  and adopts its result once resolved
  (:class:`~repro.batch.workqueue.InflightRegistry`);
* **one store**, with ``config.store_dir`` — a thread-safe
  :class:`~repro.parallel.cache.PoolCache` over the artifact store.

Circuits run on a bounded thread window (``window``), so synthesis of
circuit *i+1* overlaps the parent-side selection/annealing of circuit
*i* while memory stays bounded.  Each circuit still runs the full,
unchanged pipeline: per-circuit selections are **bit-identical** to
running that circuit alone, because every shared result is keyed by the
content-addressed entry key that pins the synthesis seed.

With ``config.store_dir``, every block is published to the store as its
job lands; a killed batch rerun over the same store finds every block
that finished before the kill and synthesizes only the rest,
bit-identically.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.batch.workqueue import InflightRegistry
from repro.core.quest import QuestConfig, QuestResult, run_quest
from repro.observability import MetricsRegistry, get_metrics, get_tracer
from repro.parallel.cache import PoolCache
from repro.parallel.pool_manager import PersistentWorkerPool


@dataclass
class BatchResources:
    """Batch-scoped runtime state threaded through ``run_quest(shared=)``.

    Duck-typed by :func:`repro.core.quest._run_pipeline`: any object
    with these three attributes works, ``None`` fields simply disable
    that kind of sharing (a ``None`` cache means nothing persists).
    """

    cache: PoolCache | None = None
    worker_pool: PersistentWorkerPool | None = None
    inflight: InflightRegistry | None = None


@dataclass
class BatchResult:
    """Everything a batch compilation produced.

    ``results`` preserves input order regardless of completion order.
    The dedup/pool counters aggregate over every circuit and are what
    the throughput benchmark asserts on.
    """

    results: list[QuestResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Planned jobs served by another circuit's result instead of
    #: synthesizing (registry joins, in flight or resolved).
    dedup_joins: int = 0
    #: Subset of ``dedup_joins`` that joined another circuit's
    #: *in-flight* job through the registry.
    inflight_joins: int = 0
    #: Synthesis jobs planned, batch-wide (joins included).
    cache_misses: int = 0
    #: Blocks planned without a job: within-circuit repeats and store
    #: hits.
    cache_hits: int = 0
    #: Persistent-pool accounting (0 when ``workers == 1``).
    pools_created: int = 0
    pool_recycles: int = 0
    pool_reuses: int = 0
    #: Merged metrics snapshot across every circuit of the batch.
    metrics: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable batch summary."""
        synthesized = self.cache_misses - self.dedup_joins
        text = (
            f"{len(self.results)} circuits in {self.wall_seconds:.2f}s: "
            f"{synthesized} blocks synthesized, "
            f"{self.cache_hits} cache hits, "
            f"{self.dedup_joins} dedup joins "
            f"({self.inflight_joins} in-flight)"
        )
        if self.pools_created:
            text += (
                f"; worker pool created {self.pools_created}x, "
                f"reused {self.pool_reuses} rounds"
            )
        return text


def run_quest_batch(
    circuits,
    config: QuestConfig | None = None,
    *,
    window: int = 2,
    fault_injector=None,
) -> BatchResult:
    """Compile every circuit in ``circuits`` through one shared substrate.

    Parameters
    ----------
    circuits:
        The circuits to compile; results come back in the same order.
    config:
        One :class:`QuestConfig` applied to every circuit (the batch
        shares cache keys only where configs match, so a single config
        is the honest interface).
    window:
        Bounded in-flight window: how many circuits compile
        concurrently.  ``1`` degrades to sequential-with-shared-state;
        larger windows overlap circuit *i*'s selection with circuit
        *i+1*'s synthesis.
    fault_injector:
        Shared fault injector (tests/CI), passed through per circuit.

    A circuit that *fails* (raises) aborts the batch after in-flight
    circuits finish; completed results are not returned partially —
    rerun over the same ``config.store_dir`` to resume from the
    published blocks.
    """
    config = config or QuestConfig()
    circuits = list(circuits)
    if not circuits:
        raise ValueError("run_quest_batch needs at least one circuit")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    cache = None
    if config.store_dir is not None:
        cache = PoolCache(
            config.store_dir,
            fault_injector=fault_injector,
            max_entries=config.cache_max_entries,
            namespace=config.namespace,
        )
    worker_pool = (
        PersistentWorkerPool(config.workers) if config.workers > 1 else None
    )
    resources = BatchResources(
        cache=cache,
        worker_pool=worker_pool,
        inflight=InflightRegistry(),
    )

    tracer = get_tracer()
    results: list[QuestResult | None] = [None] * len(circuits)
    start = time.perf_counter()
    with tracer.span(
        "quest.batch", circuits=len(circuits), window=window
    ):
        try:
            with ThreadPoolExecutor(
                max_workers=min(window, len(circuits)),
                thread_name_prefix="quest-batch",
            ) as threads:
                futures = [
                    threads.submit(
                        run_quest,
                        circuit,
                        config,
                        fault_injector=fault_injector,
                        shared=resources,
                    )
                    for circuit in circuits
                ]
                for index, future in enumerate(futures):
                    results[index] = future.result()
        finally:
            if worker_pool is not None:
                worker_pool.shutdown()
    wall = time.perf_counter() - start

    batch = BatchResult(results=results, wall_seconds=wall)
    merged = MetricsRegistry()
    for result in results:
        batch.dedup_joins += result.dedup_joins
        batch.cache_hits += result.cache_hits
        batch.cache_misses += result.cache_misses
        if result.metrics:
            merged.merge(result.metrics)
    batch.inflight_joins = resources.inflight.joins
    if worker_pool is not None:
        batch.pools_created = worker_pool.pools_created
        batch.pool_recycles = worker_pool.recycles
        batch.pool_reuses = worker_pool.reuses
    # Fold the batch-level aggregates into the merged snapshot so a
    # ``--metrics-json`` dump is self-contained even when the caller has
    # no ambient metrics registry installed.
    merged.merge(
        {
            "counters": {
                "batch.circuits": len(circuits),
                "batch.dedup_joins": batch.dedup_joins,
                "batch.inflight_joins": batch.inflight_joins,
                # Must be 0: a nonzero value means a joiner timed out on
                # an owner that never published, failed, or released.
                "registry.stranded_joiners": resources.inflight.stranded_joiners,
            },
            "gauges": {"batch.pool_reuses": batch.pool_reuses},
        }
    )
    batch.metrics = merged.snapshot()
    metrics = get_metrics()
    if metrics.is_enabled:
        metrics.inc("batch.circuits", len(circuits))
        metrics.inc("batch.dedup_joins", batch.dedup_joins)
        metrics.inc("batch.inflight_joins", batch.inflight_joins)
        metrics.gauge("batch.pool_reuses", batch.pool_reuses)
    return batch
