"""Admission control and weighted-fair job scheduling.

The daemon's queue is **bounded**: :meth:`FairScheduler.admit` either
enqueues a job or returns a structured
:class:`~repro.exceptions.AdmissionRejected` — it never blocks and the
queue never grows past ``capacity``, so an overloaded daemon's memory
stays flat and clients get an immediate, actionable "no" (backpressure)
instead of a timeout.  Two layers of admission:

* **global capacity** — total queued jobs across all tenants;
* **per-tenant quota** — one noisy tenant cannot occupy the whole
  queue; the quota defaults to the full capacity (no isolation) and is
  configurable per tenant.

Dispatch order is **weighted fair** via stride scheduling: each tenant
carries a virtual ``pass``; picking a job advances the owning tenant's
pass by ``1/weight``.  A weight-2 tenant therefore drains twice as fast
as a weight-1 tenant under contention, while an idle tenant's first job
never waits behind a backlog it did not cause (its pass is lifted to
the global virtual time on first enqueue — the standard lag-limiting
rule).  Within a tenant, jobs are FIFO.

The scheduler is plain synchronous state behind a lock (the daemon
calls it from one event loop; unit tests drive it directly), with no
dependency on asyncio.  It keeps no tallies: the daemon counts each
verdict and each dispatch in its record.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import AdmissionRejected
from repro.service.protocol import (
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
    REJECT_TENANT_QUOTA,
    JobRecord,
)


@dataclass
class TenantState:
    """One tenant's queue plus its fair-share accounting."""

    name: str
    weight: float = 1.0
    #: Max jobs this tenant may have queued (None = global capacity).
    quota: int | None = None
    queue: deque = field(default_factory=deque)
    #: Stride-scheduling virtual time; advanced by 1/weight per dispatch.
    pass_value: float = 0.0


class FairScheduler:
    """Bounded multi-tenant queue with stride-based weighted fairness."""

    def __init__(
        self,
        capacity: int = 64,
        *,
        tenant_weights: dict[str, float] | None = None,
        tenant_quotas: dict[str, int] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._weights = dict(tenant_weights or {})
        self._quotas = dict(tenant_quotas or {})
        for tenant, weight in self._weights.items():
            if weight <= 0:
                raise ValueError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        self._depth = 0
        #: Global virtual time: the last dispatched pass value.  New
        #: tenants start here so they cannot claim "credit" for time
        #: they spent idle.
        self._virtual_time = 0.0
        self._draining = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _tenant(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(
                name=name,
                weight=self._weights.get(name, 1.0),
                quota=self._quotas.get(name),
                pass_value=self._virtual_time,
            )
            self._tenants[name] = state
        return state

    def _reject(self, reason: str, detail: str, tenant: str) -> AdmissionRejected:
        return AdmissionRejected(
            reason,
            detail,
            tenant=tenant,
            queue_depth=self._depth,
            capacity=self.capacity,
        )

    def admit(self, job: JobRecord) -> AdmissionRejected | None:
        """Enqueue ``job`` or return the structured rejection.

        Never blocks, never raises for a full queue — rejection is a
        *verdict*, handed back so the transport can serialize it.
        """
        with self._lock:
            if self._draining:
                return self._reject(
                    REJECT_SHUTTING_DOWN,
                    "daemon is draining; resubmit after restart",
                    job.tenant,
                )
            if self._depth >= self.capacity:
                return self._reject(
                    REJECT_QUEUE_FULL,
                    f"queue at capacity ({self.capacity} jobs)",
                    job.tenant,
                )
            state = self._tenant(job.tenant)
            quota = self.capacity if state.quota is None else state.quota
            if len(state.queue) >= quota:
                return self._reject(
                    REJECT_TENANT_QUOTA,
                    f"tenant {job.tenant!r} at quota ({quota} queued jobs)",
                    job.tenant,
                )
            if not state.queue:
                # Lag limit: an idle tenant re-enters at the current
                # virtual time instead of its stale (small) pass.
                state.pass_value = max(state.pass_value, self._virtual_time)
            state.queue.append(job)
            self._depth += 1
            return None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def next_job(self) -> JobRecord | None:
        """Pop the next job under weighted fairness; None when idle."""
        with self._lock:
            best: TenantState | None = None
            for state in self._tenants.values():
                if not state.queue:
                    continue
                if best is None or state.pass_value < best.pass_value or (
                    state.pass_value == best.pass_value
                    and state.name < best.name
                ):
                    best = state
            if best is None:
                return None
            job = best.queue.popleft()
            self._depth -= 1
            self._virtual_time = best.pass_value
            best.pass_value += 1.0 / best.weight
            return job

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Total queued jobs across all tenants."""
        with self._lock:
            return self._depth

    def depths(self) -> dict[str, int]:
        """Per-tenant queued-job counts (only tenants ever seen)."""
        with self._lock:
            return {
                name: len(state.queue) for name, state in self._tenants.items()
            }

    def tenant_summary(self) -> dict[str, dict]:
        """Status-endpoint view: depth, weight and quota per tenant."""
        with self._lock:
            return {
                name: {
                    "queued": len(state.queue),
                    "weight": state.weight,
                    "quota": state.quota,
                }
                for name, state in self._tenants.items()
            }

    def drain(self) -> list[JobRecord]:
        """Stop admitting; return (and clear) every still-queued job.

        The returned jobs stay pending in the daemon's ledger, so they
        are not lost: they resume after the next start.
        """
        with self._lock:
            self._draining = True
            leftover: list[JobRecord] = []
            for state in self._tenants.values():
                leftover.extend(state.queue)
                state.queue.clear()
            self._depth = 0
            return leftover

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining
