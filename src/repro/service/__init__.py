"""QUEST-as-a-service: the crash-safe async compilation daemon.

The service layer turns the library into a long-lived daemon
(``python -m repro serve``) with bounded admission, weighted-fair
multi-tenant scheduling, client deadline propagation, and a crash-safe
job ledger enabling warm restarts that resume mid-flight jobs
bit-identically.  Every admitted job runs ``run_quest``, so a served
job's output depends on that job alone; the executor's per-block exact
fallback is the only degradation, and a job that used it says so in its
``degraded`` flag.

Modules
-------
:mod:`repro.service.protocol`
    Wire messages, the :class:`JobRecord` job model, config-override
    validation.
:mod:`repro.service.scheduler`
    Bounded admission + stride-based weighted-fair queueing.
:mod:`repro.service.ledger`
    Atomic, checksummed job records.
:mod:`repro.service.server`
    The asyncio daemon itself.
:mod:`repro.service.client`
    Synchronous Unix-socket client (CLI, tests, benchmarks).
"""

from repro.service.client import ServiceClient
from repro.service.ledger import JobLedger
from repro.service.protocol import (
    JOB_DONE,
    JOB_FAILED,
    JOB_PENDING,
    JOB_RUNNING,
    PROTOCOL_VERSION,
    REJECTION_REASONS,
    TERMINAL_STATES,
    JobRecord,
    merge_config,
)
from repro.service.scheduler import FairScheduler
from repro.service.server import QuestService, serve

__all__ = [
    "FairScheduler",
    "JobLedger",
    "JobRecord",
    "QuestService",
    "ServiceClient",
    "serve",
    "merge_config",
    "PROTOCOL_VERSION",
    "REJECTION_REASONS",
    "JOB_PENDING",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "TERMINAL_STATES",
]
