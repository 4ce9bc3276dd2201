"""The compilation daemon: ``python -m repro serve``.

:class:`QuestService` is a long-lived asyncio server that accepts
compile jobs (QASM + config overrides in, selected ensemble + Σε
certificate out) over a Unix domain socket and runs them on **one**
shared substrate — the same :class:`~repro.batch.driver.BatchResources`
(persistent worker pool, artifact store, in-flight registry) that batch
mode uses.  Concurrent duplicate submissions therefore dedup
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
* **Per-block degradation** — every admitted job runs
  :func:`~repro.core.quest.run_quest`.  The executor's retry and exact
  fallback is the only degradation: a block whose attempts all fail
  ships its exact (ε=0) circuit, the run's ``failure_log`` records it,
  and the job's payload says ``degraded``.  No job's failures change
  another job's output.
* **Crash safety** — every job transition is journaled in the
  :class:`~repro.service.ledger.JobLedger` (atomic rename + checksum),
  and every synthesized block is published to the artifact store
  (``store_dir``, or ``<ledger_dir>/store``) as it lands.  A SIGKILLed
  daemon warm-restarts: pending/running jobs are re-admitted and
  resume from the store, bit-identically.

A done job's result is :func:`~repro.core.quest.result_payload`, the
serialized form the CLI writes for ``repro`` and ``compile-batch`` too;
``submit`` writes it through the same writer.

The daemon's metrics registry is its one record of counts: it is the
ambient registry around ledger recovery, namespace opening, every
request and every job, so a job's counts reach it, failed or not.  The
server counts each admission (``service.jobs_admitted``), each
rejection (``service.rejected_<reason>``) and each dispatch
(``service.dispatched.<tenant>``); the scheduler keeps no tallies.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.batch.driver import BatchResources
from repro.batch.workqueue import InflightRegistry
from repro.circuits import circuit_from_qasm
from repro.core.quest import QuestConfig, result_payload, run_quest
from repro.exceptions import (
    AdmissionRejected,
    BlockTimeoutError,
    ReproError,
    ServiceError,
)
from repro.observability import MetricsRegistry, get_logger, use_metrics
from repro.parallel.cache import PoolCache
from repro.parallel.pool_manager import PersistentWorkerPool
from repro.resilience.deadline import block_deadline
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    JOB_DONE,
    JOB_FAILED,
    JOB_PENDING,
    JOB_RUNNING,
    PROTOCOL_VERSION,
    REJECT_INVALID_REQUEST,
    REJECTION_REASONS,
    TERMINAL_STATES,
    JobRecord,
    decode_message,
    encode_message,
    merge_config,
    rejection_to_message,
)
from repro.service.scheduler import FairScheduler
from repro.store import (
    STORE_COUNTERS,
    StoreError,
    namespace_for_tenant,
    validate_namespace,
)

_log = get_logger("service.server")

#: Cap on one wire frame (QASM payloads are text; 32 MiB is generous).
MAX_MESSAGE_BYTES = 32 * 1024 * 1024


def _seconds(value) -> float:
    """A request's seconds field as a float; NaN when it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


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
        self.max_concurrency = int(max_concurrency)
        #: Deterministic fault schedule threaded into every job's
        #: pipeline (tests/CI only; see :mod:`repro.resilience.faults`).
        self.fault_injector = fault_injector
        self.metrics = MetricsRegistry()

        # The shared substrate — one worker pool and one in-flight
        # registry for the daemon's lifetime, plus one PoolCache *per
        # tenant namespace*, all rooted in one sharded artifact store
        # that any number of replicas may share.  The registry is the
        # only in-process reuse across jobs; the store is the only
        # persistence.  Without a configured root the store lives beside
        # the ledger, so a killed job always resumes from the blocks it
        # published.
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
            cache=self._cache_for(self.config.namespace),
            worker_pool=worker_pool,
            inflight=InflightRegistry(),
        )

        self._jobs: dict[str, JobRecord] = {}
        self._job_events: dict[str, asyncio.Event] = {}
        self._next_job_number = 0
        self._active = 0
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

        with use_metrics(self.metrics):
            self._recover_ledger()

    # ------------------------------------------------------------------
    # Tenant namespaces
    # ------------------------------------------------------------------
    def _cache_for(self, namespace: str) -> PoolCache:
        """The (lazily created) pool cache of one tenant namespace.

        Every namespace gets its own directory and its own quota inside
        the shared store root, so tenants never observe each other's
        artifacts and one tenant's traffic cannot evict another's.
        """
        with self._caches_lock, use_metrics(self.metrics):
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
            try:
                self._admit(record)
            except AdmissionRejected as rejection:
                # Capacity shrank across the restart; fail structurally
                # rather than drop silently.
                self.metrics.inc(f"service.rejected_{rejection.reason}")
                self._finish(record, error={
                    "kind": rejection.reason,
                    "message": str(rejection),
                })
                continue
            recovered += 1
        if recovered:
            _log.info(f"warm restart: re-admitted {recovered} job(s)")
            self.metrics.inc("service.recovered_jobs", recovered)

    def _admit(self, record: JobRecord) -> None:
        """Offer ``record`` to the scheduler and count its admission;
        a rejection is raised for the caller to count and report."""
        rejection = self.scheduler.admit(record)
        if rejection is not None:
            raise rejection
        self.metrics.inc("service.jobs_admitted")

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
        self._started_at = time.time()
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
                self.metrics.inc(f"service.dispatched.{job.tenant}")
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
        latency = time.time() - record.submitted_at
        self.metrics.observe("service.latency_seconds", max(latency, 0.0))
        self.metrics.observe(
            f"service.latency_seconds.{record.tenant}", max(latency, 0.0)
        )
        self.metrics.inc(
            "service.jobs_done" if error is None else "service.jobs_failed"
        )
        if degraded:
            self.metrics.inc("service.jobs_degraded")
        self._signal_waiters(record.job_id)

    def _execute_job(self, record: JobRecord) -> None:
        """Run one job under the daemon's registry (job threads do not
        inherit the loop's context)."""
        with use_metrics(self.metrics):
            self._run_job(record)

    def _run_job(self, record: JobRecord) -> None:
        """Run one job to a terminal state.  Never raises."""
        try:
            record.state = JOB_RUNNING
            record.attempts += 1
            self.ledger.store(record)

            remaining = record.deadline_remaining(time.time())
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

            try:
                with block_deadline(remaining):
                    result = run_quest(
                        circuit,
                        config,
                        fault_injector=self.fault_injector,
                        shared=self._resources_for(record),
                    )
            except BlockTimeoutError as exc:
                self._finish(record, error={
                    "kind": "deadline_expired",
                    "message": str(exc),
                })
                return
            except ReproError as exc:
                self._finish(record, error={
                    "kind": type(exc).__name__,
                    "message": str(exc),
                })
                return
            payload = result_payload(result, config)
            self._finish(record, result=payload, degraded=payload["degraded"])
        except BaseException as exc:  # noqa: BLE001 - daemon must survive
            _log.error(
                f"job {record.job_id}: unexpected failure: {exc!r}"
            )
            self._finish(record, error={
                "kind": "internal",
                "message": repr(exc),
            })

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
                with use_metrics(self.metrics):
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
        try:
            record = self._job_record(message)
            self._admit(record)
        except AdmissionRejected as rejection:
            self.metrics.inc(f"service.rejected_{rejection.reason}")
            return rejection_to_message(rejection)
        # Journal *after* admission: a rejected job leaves no trace.
        self.ledger.store(record)
        self._jobs[record.job_id] = record
        self.metrics.gauge("service.queue_depth", self.scheduler.depth)
        assert self._wake is not None
        self._wake.set()
        return {
            "type": "accepted",
            "version": PROTOCOL_VERSION,
            "job_id": record.job_id,
            "queue_depth": self.scheduler.depth,
        }

    def _job_record(self, message: dict) -> JobRecord:
        """The job a ``submit`` message asks for, numbered; raises an
        ``invalid_request`` rejection for a malformed one."""
        qasm = message.get("qasm")
        if not isinstance(qasm, str) or not qasm.strip():
            raise AdmissionRejected(REJECT_INVALID_REQUEST, "submit needs a non-empty 'qasm'")
        tenant = str(message.get("tenant") or "default")
        namespace = message.get("namespace")
        if namespace is None:
            namespace = namespace_for_tenant(tenant)
        else:
            try:
                namespace = validate_namespace(str(namespace))
            except StoreError as exc:
                raise AdmissionRejected(REJECT_INVALID_REQUEST, str(exc), tenant=tenant) from exc
        overrides = message.get("config") or {}
        try:
            merge_config(self.config, overrides)
        except ServiceError as exc:
            raise AdmissionRejected(REJECT_INVALID_REQUEST, str(exc), tenant=tenant) from exc
        deadline_seconds = message.get("deadline_seconds")
        deadline_at = None
        if deadline_seconds is not None:
            relative = _seconds(deadline_seconds)
            # A NaN deadline would compare false everywhere: a job that
            # never expires.
            if not math.isfinite(relative):
                raise AdmissionRejected(
                    REJECT_INVALID_REQUEST,
                    f"bad deadline_seconds {deadline_seconds!r}",
                    tenant=tenant,
                )
            deadline_at = time.time() + relative
        job_id = f"job{self._next_job_number:06d}"
        self._next_job_number += 1
        return JobRecord(
            job_id=job_id,
            tenant=tenant,
            qasm=qasm,
            config_overrides=dict(overrides),
            namespace=namespace,
            submitted_at=time.time(),
            deadline_at=deadline_at,
        )

    async def _handle_wait(self, message: dict) -> dict:
        timeout = message.get("timeout_seconds")
        if timeout is not None:
            seconds = _seconds(timeout)
            if not (math.isfinite(seconds) and seconds >= 0):
                raise ServiceError(
                    f"bad timeout_seconds {timeout!r}: need null or a "
                    "finite number >= 0"
                )
            timeout = seconds
        job_id = str(message.get("job_id", ""))
        record = self._jobs.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if record.state not in TERMINAL_STATES:
            event = self._job_events.setdefault(job_id, asyncio.Event())
            try:
                await asyncio.wait_for(event.wait(), timeout)
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

    def _handle_status(self) -> dict:
        """The ``service-status`` digest; its counts read ``self.metrics``.

        A nonzero store ``hits`` on a freshly started replica means
        entries *another* replica published were read from the shared
        root.
        """
        jobs_by_state: dict[str, int] = {}
        for record in self._jobs.values():
            jobs_by_state[record.state] = jobs_by_state.get(record.state, 0) + 1
        self.metrics.gauge("service.queue_depth", self.scheduler.depth)
        for tenant, depth in self.scheduler.depths().items():
            self.metrics.gauge(f"service.queue_depth.{tenant}", depth)
        snapshot = self.metrics.snapshot()
        count = snapshot["counters"].get
        with self._caches_lock:
            namespaces = sorted(self._caches)
        return {
            "type": "status",
            "version": PROTOCOL_VERSION,
            "healthy": True,
            "ready": not self._stopping and not self.scheduler.draining,
            "uptime_seconds": max(time.time() - self._started_at, 0.0),
            "queue_depth": self.scheduler.depth,
            "capacity": self.scheduler.capacity,
            "active_jobs": self._active,
            "max_concurrency": self.max_concurrency,
            "jobs_by_state": jobs_by_state,
            "admitted": count("service.jobs_admitted", 0),
            "rejected": {
                reason: rejected
                for reason in REJECTION_REASONS
                if (rejected := count(f"service.rejected_{reason}", 0))
            },
            "degraded_jobs": count("service.jobs_degraded", 0),
            "tenants": {
                tenant: {**info, "dispatched": count(f"service.dispatched.{tenant}", 0)}
                for tenant, info in self.scheduler.tenant_summary().items()
            },
            "ledger": {
                "directory": str(self.ledger.directory),
                "corrupt_entries": count("ledger.quarantined", 0),
            },
            "stranded_joiners": count("registry.stranded_joiners", 0),
            "store": {
                "root": self._store_root,
                "namespaces": {
                    namespace: {
                        name: count(f"store.{name}.{namespace}", 0)
                        for name in STORE_COUNTERS
                    }
                    for namespace in namespaces
                },
            },
            "metrics": snapshot,
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
