"""The compilation daemon: ``python -m repro serve``.

:class:`QuestService` is a long-lived asyncio server that accepts
compile jobs (QASM + config overrides in, selected ensemble + Σε
certificate out) over a Unix domain socket and runs them on **one**
shared substrate — the same :class:`~repro.batch.driver.BatchResources`
(persistent worker pool, thread-safe pool cache, in-flight registry)
that batch mode uses.  Concurrent duplicate submissions therefore dedup
at the block level, and every served selection is bit-identical to a
solo :func:`~repro.core.quest.run_quest` of the same circuit/config,
because sharing is keyed by the content-addressed entry key that pins
the synthesis seed.

Robustness model (the reason this module exists):

* **Bounded admission** — :class:`~repro.service.scheduler.FairScheduler`
  holds at most ``capacity`` queued jobs; overload produces immediate
  structured rejections, never unbounded memory or a deadlock.
* **Weighted-fair scheduling** — per-tenant stride scheduling with
  quotas; a noisy tenant cannot starve the rest.
* **Deadline propagation** — a client's relative deadline is stored as
  an *absolute* wall-clock instant and, at execution time, the
  remaining budget wraps the whole pipeline via
  :func:`repro.resilience.deadline.block_deadline`.  It binds inline
  (``workers == 1``) synthesis only, through the cooperative deadline
  checks inside the instantiation loop: a lapse there ends the job
  ``deadline_expired``.  Worker processes never see it; their blocks
  are bounded by the executor's hard per-block timeout alone.  A job
  whose deadline lapses while queued fails structurally without
  burning a worker.
* **Circuit breaker + graceful degradation** — consecutive jobs that
  trip worker-pool recycles (or fail outright) open a
  :class:`~repro.service.breaker.CircuitBreaker`; while it is open,
  jobs run the *degraded* path — inline exact block synthesis, no
  approximation search — returning a correct, ε=0-certified circuit
  flagged ``degraded`` instead of an error.
* **Crash safety** — every job transition is journaled in the
  :class:`~repro.service.ledger.JobLedger` (atomic rename + checksum),
  and every synthesized block is published to the artifact store
  (``store_dir``, or ``<ledger_dir>/store``) as it lands.  A SIGKILLed
  daemon warm-restarts: pending/running jobs are re-admitted and
  resume from the store, bit-identically.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.batch.driver import BatchResources
from repro.batch.workqueue import InflightRegistry
from repro.circuits import circuit_from_qasm, circuit_to_qasm
from repro.core.pool import exact_pool
from repro.core.quest import QuestConfig, QuestResult, run_quest
from repro.exceptions import (
    AdmissionRejected,
    BlockTimeoutError,
    ReproError,
    ServiceError,
)
from repro.observability import MetricsRegistry, get_logger
from repro.parallel.cache import PoolCache
from repro.parallel.pool_manager import PersistentWorkerPool
from repro.partition.blocks import stitch_blocks
from repro.partition.scan import scan_partition
from repro.resilience.deadline import block_deadline
from repro.service.breaker import CircuitBreaker
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    JOB_DONE,
    JOB_FAILED,
    JOB_PENDING,
    JOB_RUNNING,
    PROTOCOL_VERSION,
    REJECT_INVALID_REQUEST,
    TERMINAL_STATES,
    JobRecord,
    decode_message,
    encode_message,
    merge_config,
    rejection_to_message,
)
from repro.service.scheduler import FairScheduler
from repro.store import StoreError, namespace_for_tenant, validate_namespace
from repro.transpile.basis import lower_to_basis
from repro.verify.certifier import claims_for_choice, claims_to_manifest

_log = get_logger("service.server")

#: Cap on one wire frame (QASM payloads are text; 32 MiB is generous).
MAX_MESSAGE_BYTES = 32 * 1024 * 1024


def result_payload(
    result: QuestResult, config: QuestConfig, *, degraded: bool = False
) -> dict:
    """JSON-ready terminal payload of a successful compile.

    Carries everything the bit-identity tests compare against a solo
    run (choices, bounds, CNOT counts, QASM of every selected circuit)
    plus the per-circuit Σε claims manifests — the certificate the
    service exists to hand out.
    """
    claims = [
        claims_to_manifest(
            claims_for_choice(result.pools, choice),
            block_qubits=config.max_block_qubits,
        )
        for choice in result.selection.choices
    ]
    return {
        "circuits": [circuit_to_qasm(c) for c in result.circuits],
        "claims": claims,
        "choices": [[int(i) for i in choice] for choice in result.selection.choices],
        "bounds": [float(b) for b in result.selection.bounds],
        "cnot_counts": list(result.cnot_counts),
        "original_cnot_count": result.original_cnot_count,
        "threshold": float(result.threshold),
        "degraded": degraded,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "dedup_joins": result.dedup_joins,
        "summary": result.summary(),
    }


class QuestService:
    """One daemon: socket front end, fair queue, shared substrate."""

    def __init__(
        self,
        socket_path: str | os.PathLike,
        ledger_dir: str | os.PathLike,
        config: QuestConfig | None = None,
        *,
        capacity: int = 64,
        max_concurrency: int = 2,
        tenant_weights: dict[str, float] | None = None,
        tenant_quotas: dict[str, int] | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_seconds: float = 30.0,
        clock=time.time,
        fault_injector=None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.socket_path = str(socket_path)
        self.config = config or QuestConfig()
        self.ledger = JobLedger(ledger_dir)
        self.scheduler = FairScheduler(
            capacity,
            tenant_weights=tenant_weights,
            tenant_quotas=tenant_quotas,
        )
        self.breaker = CircuitBreaker(
            breaker_threshold, breaker_cooldown_seconds
        )
        self.max_concurrency = int(max_concurrency)
        self._clock = clock
        #: Deterministic fault schedule threaded into every job's
        #: pipeline (tests/CI only; see :mod:`repro.resilience.faults`).
        self.fault_injector = fault_injector
        self.metrics = MetricsRegistry()

        # The shared substrate — one worker pool and one in-flight
        # registry for the daemon's lifetime, plus one PoolCache *per
        # tenant namespace*, all rooted in one sharded artifact store
        # that any number of replicas may share.  Without a configured
        # root the store lives beside the ledger, so a killed job always
        # resumes from the blocks it published.
        self._store_root = self.config.store_dir or str(
            self.ledger.directory / "store"
        )
        self._caches: dict[str, PoolCache] = {}
        self._caches_lock = threading.Lock()
        worker_pool = (
            PersistentWorkerPool(self.config.workers)
            if self.config.workers > 1
            else None
        )
        self.resources = BatchResources(
            cache=(
                self._cache_for(self.config.namespace)
                if self.config.cache
                else None
            ),
            worker_pool=worker_pool,
            inflight=InflightRegistry(),
        )

        self._jobs: dict[str, JobRecord] = {}
        self._job_events: dict[str, asyncio.Event] = {}
        self._next_job_number = 0
        self._active = 0
        self._degraded_jobs = 0
        self._started_at = 0.0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._stopping = False
        self._stopped = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._job_executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="quest-service",
        )

        self._recover_ledger()

    # ------------------------------------------------------------------
    # Tenant namespaces
    # ------------------------------------------------------------------
    def _cache_for(self, namespace: str) -> PoolCache:
        """The (lazily created) pool cache of one tenant namespace.

        Every namespace gets its own memory tier and its own
        per-namespace quota inside the shared store root, so tenants
        never observe each other's artifacts and one tenant's traffic
        cannot evict another's.
        """
        with self._caches_lock:
            cache = self._caches.get(namespace)
            if cache is None:
                cache = PoolCache(
                    self._store_root,
                    max_entries=self.config.cache_max_entries,
                    namespace=namespace,
                )
                self._caches[namespace] = cache
            return cache

    def _resources_for(self, record: JobRecord) -> BatchResources:
        """The substrate view a job runs on: shared pool + registry,
        tenant-scoped cache."""
        if not self.config.cache:
            return self.resources
        namespace = record.namespace or namespace_for_tenant(record.tenant)
        return BatchResources(
            cache=self._cache_for(namespace),
            worker_pool=self.resources.worker_pool,
            inflight=self.resources.inflight,
        )

    # ------------------------------------------------------------------
    # Warm restart
    # ------------------------------------------------------------------
    def _recover_ledger(self) -> None:
        """Load every journaled job; re-admit the unfinished ones.

        ``running`` jobs were interrupted mid-execution (the previous
        daemon died); they go back to ``pending`` and, when dispatched,
        ``run_quest`` finds every block the job published in the store —
        completed blocks are not re-synthesized and the final selection
        is bit-identical.  Terminal jobs stay answerable to late
        ``wait`` calls.
        """
        recovered = 0
        for record in self.ledger.load_all():
            self._jobs[record.job_id] = record
            number = self._parse_job_number(record.job_id)
            if number is not None:
                self._next_job_number = max(self._next_job_number, number + 1)
            if record.state in TERMINAL_STATES:
                continue
            if record.state == JOB_RUNNING:
                record.state = JOB_PENDING
                self.ledger.store(record)
            rejection = self.scheduler.admit(record)
            if rejection is not None:
                # Capacity shrank across the restart; fail structurally
                # rather than drop silently.
                self._finish(record, error={
                    "kind": rejection.reason,
                    "message": str(rejection),
                })
                continue
            recovered += 1
        if recovered:
            _log.info(f"warm restart: re-admitted {recovered} job(s)")
            self.metrics.inc("service.recovered_jobs", recovered)

    @staticmethod
    def _parse_job_number(job_id: str) -> int | None:
        if job_id.startswith("job") and job_id[3:].isdigit():
            return int(job_id[3:])
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._started_at = self._clock()
        path = Path(self.socket_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.socket_path,
            limit=MAX_MESSAGE_BYTES,
        )
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        _log.info(
            f"serving on {self.socket_path} "
            f"(capacity={self.scheduler.capacity}, "
            f"concurrency={self.max_concurrency}, "
            f"workers={self.config.workers})"
        )

    async def run(self) -> None:
        """Serve until :meth:`shutdown` (or SIGTERM/SIGINT) completes."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, finish running jobs, exit.

        Queued-but-unstarted jobs stay ``pending`` in the ledger — the
        next daemon start re-admits them, so a drain loses nothing.
        """
        if self._stopping:
            return
        self._stopping = True
        _log.info("shutdown: draining")
        leftover = self.scheduler.drain()
        # Already journaled as pending at admission; nothing to rewrite,
        # but wake any waiters' timeout paths by leaving state as-is.
        del leftover
        if self._wake is not None:
            self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight jobs finish (they hold ledger state regardless).
        while self._active > 0:
            await asyncio.sleep(0.02)
        self._job_executor.shutdown(wait=True)
        if self.resources.worker_pool is not None:
            self.resources.worker_pool.shutdown()
        with contextlib.suppress(OSError):
            Path(self.socket_path).unlink()
        self._stopped.set()
        _log.info("shutdown complete")

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            self._wake.clear()
            dispatched = False
            while self._active < self.max_concurrency:
                job = self.scheduler.next_job()
                if job is None:
                    break
                dispatched = True
                self._active += 1
                future = self._loop.run_in_executor(
                    self._job_executor, self._execute_job, job
                )
                future.add_done_callback(self._job_finished_callback)
            if not dispatched and not self._stopping:
                await self._wake.wait()

    def _job_finished_callback(self, future) -> None:
        # Runs on the loop thread (run_in_executor futures call back
        # through the loop), so plain attribute updates are safe.
        self._active -= 1
        exc = future.exception()
        if exc is not None:  # pragma: no cover - _execute_job catches
            _log.error(f"job runner raised unexpectedly: {exc!r}")
        if self._wake is not None:
            self._wake.set()

    def _signal_waiters(self, job_id: str) -> None:
        """Wake wait handlers for ``job_id`` (thread-safe)."""
        if self._loop is None:
            return
        def _set() -> None:
            event = self._job_events.get(job_id)
            if event is not None:
                event.set()
        self._loop.call_soon_threadsafe(_set)

    # ------------------------------------------------------------------
    # Job execution (worker threads)
    # ------------------------------------------------------------------
    def _finish(
        self,
        record: JobRecord,
        *,
        result: dict | None = None,
        error: dict | None = None,
        degraded: bool = False,
    ) -> None:
        record.state = JOB_DONE if error is None else JOB_FAILED
        record.result = result
        record.error = error
        record.degraded = degraded
        self.ledger.store(record)
        latency = self._clock() - record.submitted_at
        self.metrics.observe("service.latency_seconds", max(latency, 0.0))
        self.metrics.observe(
            f"service.latency_seconds.{record.tenant}", max(latency, 0.0)
        )
        self.metrics.inc(
            "service.jobs_done" if error is None else "service.jobs_failed"
        )
        if degraded:
            self._degraded_jobs += 1
            self.metrics.inc("service.jobs_degraded")
        self._signal_waiters(record.job_id)

    def _execute_job(self, record: JobRecord) -> None:
        """Run one job to a terminal state.  Never raises."""
        try:
            record.state = JOB_RUNNING
            record.attempts += 1
            self.ledger.store(record)

            remaining = record.deadline_remaining(self._clock())
            if remaining is not None and remaining <= 0:
                self._finish(record, error={
                    "kind": "deadline_expired",
                    "message": "deadline expired before execution started",
                })
                return

            try:
                config = merge_config(self.config, record.config_overrides)
                circuit = circuit_from_qasm(record.qasm)
            except ReproError as exc:
                self._finish(record, error={
                    "kind": REJECT_INVALID_REQUEST,
                    "message": str(exc),
                })
                return

            if self.breaker.allow_full_path():
                self._run_full(record, circuit, config, remaining)
            else:
                self._run_degraded(record, circuit, config)
        except BaseException as exc:  # noqa: BLE001 - daemon must survive
            _log.error(
                f"job {record.job_id}: unexpected failure: {exc!r}"
            )
            self._finish(record, error={
                "kind": "internal",
                "message": repr(exc),
            })

    def _run_full(
        self,
        record: JobRecord,
        circuit,
        config: QuestConfig,
        remaining: float | None,
    ) -> None:
        pool = self.resources.worker_pool
        recycles_before = pool.recycles if pool is not None else 0
        try:
            with block_deadline(remaining):
                result = run_quest(
                    circuit,
                    config,
                    fault_injector=self.fault_injector,
                    shared=self._resources_for(record),
                )
        except BlockTimeoutError as exc:
            self.breaker.record_failure()
            self._finish(record, error={
                "kind": "deadline_expired",
                "message": str(exc),
            })
            return
        except ReproError as exc:
            self.breaker.record_failure()
            self._finish(record, error={
                "kind": type(exc).__name__,
                "message": str(exc),
            })
            return
        recycles_after = pool.recycles if pool is not None else 0
        if recycles_after > recycles_before:
            # The job finished, but only by recycling wedged workers —
            # that is the breaker's failure signal.
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        if result.metrics:
            self.metrics.merge(result.metrics)
        self._finish(record, result=result_payload(result, config))

    def _run_degraded(self, record: JobRecord, circuit, config) -> None:
        """Exact-block fallback: correct, fast, flagged.

        Partition + singleton exact pools + stitch reassembles the
        baseline circuit without touching the worker pool — every block
        claim is ε=0, so the Σε certificate is trivially honest and the
        client learns via ``degraded`` that no approximation search ran.
        """
        baseline = lower_to_basis(circuit.without_measurements())
        blocks = scan_partition(baseline, config.max_block_qubits)
        pools = [exact_pool(block) for block in blocks]
        chosen = [
            pool.block.with_circuit(pool.candidates[0].circuit)
            for pool in pools
        ]
        stitched = stitch_blocks(chosen, baseline.num_qubits)
        choice = [0] * len(pools)
        claims = claims_to_manifest(
            claims_for_choice(pools, choice),
            block_qubits=config.max_block_qubits,
        )
        payload = {
            "circuits": [circuit_to_qasm(stitched)],
            "claims": [claims],
            "choices": [choice],
            "bounds": [0.0],
            "cnot_counts": [stitched.cnot_count()],
            "original_cnot_count": baseline.cnot_count(),
            "threshold": config.threshold_per_block * len(blocks),
            "degraded": True,
            "cache_hits": 0,
            "cache_misses": 0,
            "dedup_joins": 0,
            "summary": (
                f"degraded: exact reassembly, {len(blocks)} blocks, "
                f"{stitched.cnot_count()} CNOTs (breaker open)"
            ),
        }
        self._finish(record, result=payload, degraded=True)

    # ------------------------------------------------------------------
    # Connection handling (event loop)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Shutdown closes the server, which cancels live handlers;
            # swallowing the cancellation here keeps drain logs clean.
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
            # wait_closed can itself be interrupted by the same
            # cancellation (suppress(Exception) misses BaseException).
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionResetError, OSError):
                break
            if not line:
                break
            if len(line) > MAX_MESSAGE_BYTES:
                writer.write(encode_message({
                    "type": "error",
                    "message": "message too large",
                }))
                break
            try:
                message = decode_message(line)
                response = await self._handle_message(message)
            except ServiceError as exc:
                response = {"type": "error", "message": str(exc)}
            writer.write(encode_message(response))
            await writer.drain()

    async def _handle_message(self, message: dict) -> dict:
        kind = message["type"]
        if kind == "submit":
            return self._handle_submit(message)
        if kind == "wait":
            return await self._handle_wait(message)
        if kind == "status":
            return self._handle_status()
        if kind == "shutdown":
            asyncio.ensure_future(self.shutdown())
            return {"type": "ok", "version": PROTOCOL_VERSION}
        raise ServiceError(f"unknown message type {kind!r}")

    def _handle_submit(self, message: dict) -> dict:
        qasm = message.get("qasm")
        if not isinstance(qasm, str) or not qasm.strip():
            return rejection_to_message(AdmissionRejected(
                REJECT_INVALID_REQUEST, "submit needs a non-empty 'qasm'",
            ))
        tenant = str(message.get("tenant") or "default")
        namespace = message.get("namespace")
        if namespace is None:
            namespace = namespace_for_tenant(tenant)
        else:
            try:
                namespace = validate_namespace(str(namespace))
            except StoreError as exc:
                self.metrics.inc("service.rejected_invalid")
                return rejection_to_message(AdmissionRejected(
                    REJECT_INVALID_REQUEST, str(exc), tenant=tenant,
                ))
        overrides = message.get("config") or {}
        try:
            merge_config(self.config, overrides)
        except ServiceError as exc:
            self.metrics.inc("service.rejected_invalid")
            return rejection_to_message(AdmissionRejected(
                REJECT_INVALID_REQUEST, str(exc), tenant=tenant,
            ))
        deadline_seconds = message.get("deadline_seconds")
        deadline_at = None
        if deadline_seconds is not None:
            try:
                deadline_at = self._clock() + float(deadline_seconds)
            except (TypeError, ValueError):
                return rejection_to_message(AdmissionRejected(
                    REJECT_INVALID_REQUEST,
                    f"bad deadline_seconds {deadline_seconds!r}",
                    tenant=tenant,
                ))
        job_id = f"job{self._next_job_number:06d}"
        self._next_job_number += 1
        record = JobRecord(
            job_id=job_id,
            tenant=tenant,
            qasm=qasm,
            config_overrides=dict(overrides),
            namespace=namespace,
            submitted_at=self._clock(),
            deadline_at=deadline_at,
        )
        rejection = self.scheduler.admit(record)
        if rejection is not None:
            self.metrics.inc(f"service.rejected_{rejection.reason}")
            return rejection_to_message(rejection)
        # Journal *after* admission: a rejected job leaves no trace.
        self.ledger.store(record)
        self._jobs[job_id] = record
        self.metrics.inc("service.jobs_admitted")
        self.metrics.gauge("service.queue_depth", self.scheduler.depth)
        assert self._wake is not None
        self._wake.set()
        return {
            "type": "accepted",
            "version": PROTOCOL_VERSION,
            "job_id": job_id,
            "queue_depth": self.scheduler.depth,
        }

    async def _handle_wait(self, message: dict) -> dict:
        job_id = str(message.get("job_id", ""))
        record = self._jobs.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job {job_id!r}")
        timeout = message.get("timeout_seconds")
        if record.state not in TERMINAL_STATES:
            event = self._job_events.setdefault(job_id, asyncio.Event())
            try:
                await asyncio.wait_for(
                    event.wait(),
                    None if timeout is None else float(timeout),
                )
            except asyncio.TimeoutError:
                return {
                    "type": "result",
                    "version": PROTOCOL_VERSION,
                    "job_id": job_id,
                    "state": record.state,
                    "timed_out": True,
                }
        return {
            "type": "result",
            "version": PROTOCOL_VERSION,
            "job_id": job_id,
            "state": record.state,
            "degraded": record.degraded,
            "attempts": record.attempts,
            "result": record.result,
            "error": record.error,
        }

    def _store_status(self) -> dict:
        """Per-namespace cache/store counters for ``service-status``.

        ``hits``/``misses``/``corrupt_entries`` are cache-level (memory
        + disk probes); ``disk_hits``/``disk_misses``/``evictions``/
        ``publishes`` are the sharded store tier alone, so a nonzero
        ``disk_hits`` on a freshly started replica means entries
        published by *another* replica were served from the shared root.
        """
        with self._caches_lock:
            caches = dict(self._caches)
        report: dict[str, dict] = {}
        for namespace, cache in sorted(caches.items()):
            store_counters = cache.store.counters()
            report[namespace] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "corrupt_entries": cache.corrupt_entries,
                "evictions": cache.evictions,
                "disk_hits": store_counters["hits"],
                "disk_misses": store_counters["misses"],
                "publishes": store_counters["publishes"],
                "orphans_swept": store_counters["orphans_swept"],
            }
        return report

    def _handle_status(self) -> dict:
        jobs_by_state: dict[str, int] = {}
        for record in self._jobs.values():
            jobs_by_state[record.state] = jobs_by_state.get(record.state, 0) + 1
        self.metrics.gauge("service.queue_depth", self.scheduler.depth)
        for tenant, depth in self.scheduler.depths().items():
            self.metrics.gauge(f"service.queue_depth.{tenant}", depth)
        return {
            "type": "status",
            "version": PROTOCOL_VERSION,
            "healthy": True,
            "ready": not self._stopping and not self.scheduler.draining,
            "uptime_seconds": max(self._clock() - self._started_at, 0.0),
            "queue_depth": self.scheduler.depth,
            "capacity": self.scheduler.capacity,
            "active_jobs": self._active,
            "max_concurrency": self.max_concurrency,
            "jobs_by_state": jobs_by_state,
            "admitted": self.scheduler.admitted,
            "rejected": dict(self.scheduler.rejected),
            "degraded_jobs": self._degraded_jobs,
            "tenants": self.scheduler.tenant_summary(),
            "breaker": self.breaker.snapshot(),
            "ledger": {
                "directory": str(self.ledger.directory),
                "corrupt_entries": self.ledger.corrupt_entries,
            },
            "stranded_joiners": self.resources.inflight.stranded_joiners,
            "store": {
                "root": self._store_root,
                "namespaces": self._store_status(),
            },
            "metrics": self.metrics.snapshot(),
        }


def serve(
    socket_path: str,
    ledger_dir: str,
    config: QuestConfig | None = None,
    **kwargs,
) -> None:
    """Blocking entry point used by ``python -m repro serve``."""
    service = QuestService(socket_path, ledger_dir, config, **kwargs)
    asyncio.run(service.run())
