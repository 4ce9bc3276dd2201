"""Multi-circuit compilation driver: one warm substrate, many quests.

:func:`run_quest_batch` compiles a whole circuit family (a TFIM sweep,
a benchmark suite) through :func:`repro.core.quest.run_quest` on one
:class:`~repro.parallel.substrate.Substrate` for the whole batch:

* **one persistent worker pool** — worker processes fork and warm up
  once for the whole batch instead of once per circuit;
* **one in-flight registry** — blocks identical across circuits
  synthesize once: a circuit joins another's job while it is in flight
  and adopts its result once resolved;
* **one store**, with ``config.store_dir``.

Circuits run on a bounded thread window (``window``), so synthesis of
circuit *i+1* overlaps the parent-side selection/annealing of circuit
*i* while memory stays bounded.  Each circuit still runs the full,
unchanged pipeline: per-circuit selections are **bit-identical** to
running that circuit alone, because every shared result is keyed by the
content-addressed entry key that pins the synthesis seed.  Pool threads
do not inherit context variables, so each circuit's thread installs a
record of its own that shares the caller's sink (a trace keeps every
circuit's spans) and opens its work under the ``quest.batch`` span, the
parent of every circuit's ``quest.run``; the circuit's run merges into
its record, and the batch merges those records in input order.

With ``config.store_dir``, every block is published to the store as its
job lands; a killed batch rerun over the same store finds every block
that finished before the kill and synthesizes only the rest,
bit-identically.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.quest import QuestConfig, QuestResult, run_quest
from repro.observability import Record, counter_property, get_record, use_record
from repro.observability.trace import current_span_id, within_span
from repro.parallel.substrate import open_substrate


@dataclass
class BatchResult:
    """Everything a batch compilation produced.

    ``results`` preserves input order regardless of completion order.
    The dedup/pool counters and ``wall_seconds`` are read-only views of
    ``metrics``; the counters are what the batch tests' dedup accounting
    asserts on.
    """

    results: list[QuestResult] = field(default_factory=list)
    #: The batch's one record of counts and span times: the store's
    #: opening counts and the ``quest.batch`` span merged with every
    #: circuit's snapshot, in input order.
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
    def wall_seconds(self) -> float:
        """Wall time of the batch: its ``quest.batch`` span."""
        return self.metrics["histograms"]["quest.batch"]["sum"]

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

    A circuit that *fails* (raises) aborts the batch: circuits still
    queued do not start, and the failure is raised once the circuits in
    flight finish.  Completed results are not returned partially —
    rerun over the same ``config.store_dir`` to resume from the
    published blocks.
    """
    config = config or QuestConfig()
    circuits = list(circuits)
    if not circuits:
        raise ValueError("run_quest_batch needs at least one circuit")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    enclosing = get_record()
    record = Record(enclosing.sink)
    # Opening the store sweeps orphans, which it counts.
    with use_record(record):
        substrate = open_substrate(config)
    failed = threading.Event()
    records = [Record(record.sink) for _ in circuits]

    def compile_circuit(circuit, circuit_record, parent):
        # The failing thread sets this before its future resolves, so no
        # circuit still queued behind it starts.
        if failed.is_set():
            return None
        try:
            with use_record(circuit_record), within_span(parent):
                return run_quest(
                    circuit, config, fault_injector=fault_injector, shared=substrate
                )
        except BaseException:
            failed.set()
            raise

    with substrate, record.span("quest.batch", circuits=len(circuits), window=window):
        parent = current_span_id()
        with ThreadPoolExecutor(
            max_workers=min(window, len(circuits)), thread_name_prefix="quest-batch"
        ) as threads:
            futures = [
                threads.submit(compile_circuit, circuit, circuit_record, parent)
                for circuit, circuit_record in zip(circuits, records)
            ]
            results = [future.result() for future in futures]

    # Input order keeps the merged gauges and float sums deterministic.
    for circuit_record in records:
        record.merge(circuit_record.snapshot())
    batch = BatchResult(results=results, metrics=record.snapshot())
    enclosing.merge(batch.metrics)
    return batch
