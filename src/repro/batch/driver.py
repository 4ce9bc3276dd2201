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
content-addressed entry key that pins the synthesis seed.  Pool threads
do not inherit context variables, so each run is handed the caller's
tracer (a trace keeps every circuit's spans), while each run counts
into its own registry and the batch merges them in input order.

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
from repro.observability import (
    MetricsRegistry,
    counter_property,
    get_metrics,
    get_tracer,
    use_metrics,
)
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
    The dedup/pool counters are read-only views of ``metrics`` and are
    what the batch tests' dedup accounting asserts on.
    """

    results: list[QuestResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: The batch's one record of counts: the store's opening counts
    #: merged with every circuit's snapshot, in input order.
    metrics: dict = field(default_factory=dict)

    #: Planned jobs another circuit's result served, and registry joins.
    dedup_joins = counter_property("dedup.hits")
    inflight_joins = counter_property("dedup.inflight_joins")
    #: Synthesis jobs planned (joins included), and blocks planned
    #: without one (within-circuit repeats and store hits).
    cache_misses = counter_property("cache.miss")
    cache_hits = counter_property("cache.hit")
    #: Persistent-pool accounting (0 when ``workers == 1``).
    pools_created = counter_property("pool.created")
    pool_recycles = counter_property("pool.recycles")

    @property
    def pool_reuses(self) -> int:
        """Pool rounds served without paying pool construction."""
        counters = self.metrics.get("counters", {})
        return max(counters.get("pool.rounds", 0) - self.pools_created, 0)

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

    registry = MetricsRegistry()
    cache = None
    if config.store_dir is not None:
        # Opening the store sweeps orphans, which it counts.
        with use_metrics(registry):
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
                        tracer=tracer,
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

    # Input order keeps the merged gauges and float sums deterministic.
    for result in results:
        registry.merge(result.metrics)
    batch = BatchResult(
        results=results, wall_seconds=wall, metrics=registry.snapshot()
    )
    enclosing = get_metrics()
    if enclosing.is_enabled:
        enclosing.merge(batch.metrics)
    return batch
