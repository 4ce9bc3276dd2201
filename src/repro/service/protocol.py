"""Wire protocol and job model of the compilation service.

The daemon (:mod:`repro.service.server`) and client
(:mod:`repro.service.client`) speak newline-delimited JSON over a Unix
domain socket.  Every message is one JSON object with a ``type`` field:

Client -> server
    ``submit``  — QASM + config overrides + tenant + optional deadline;
    ``wait``    — block until a job reaches a terminal state;
    ``status``  — health / readiness / queue depths / metrics;
    ``shutdown``— begin graceful drain (used by tests and operators).

Server -> client
    ``accepted`` / ``rejected`` for a submit (rejection is *structured*:
    a reason from :data:`REJECTION_REASONS` plus queue context, mapping
    1:1 onto :class:`~repro.exceptions.AdmissionRejected`);
    ``result`` for a wait (terminal job state, approximations + per-block
    epsilon-claim manifests — the Σε certificate — and the ``degraded``
    flag, true when at least one block shipped its exact fallback);
    ``status`` / ``ok`` / ``error`` for the rest.

The job model (:class:`JobRecord`) is shared with the crash-safe ledger
(:mod:`repro.service.ledger`): everything in it is plain JSON so a
ledger entry survives interpreter versions, and the record alone is
enough to *re-run* the job (QASM text + config overrides + absolute
wall-clock deadline), which is what makes warm restart possible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

from repro.core.quest import QuestConfig
from repro.exceptions import AdmissionRejected, ServiceError

#: Bump on incompatible message-shape changes; both sides check it.
PROTOCOL_VERSION = 1

#: Job lifecycle states, persisted verbatim in the ledger.
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_STATES = (JOB_PENDING, JOB_RUNNING, JOB_DONE, JOB_FAILED)
#: States a waiter can stop waiting on.
TERMINAL_STATES = (JOB_DONE, JOB_FAILED)

#: Structured admission verdicts (the ``rejected`` message's reason).
REJECT_QUEUE_FULL = "queue_full"
REJECT_TENANT_QUOTA = "tenant_quota"
REJECT_SHUTTING_DOWN = "shutting_down"
REJECT_INVALID_REQUEST = "invalid_request"
REJECTION_REASONS = (
    REJECT_QUEUE_FULL,
    REJECT_TENANT_QUOTA,
    REJECT_SHUTTING_DOWN,
    REJECT_INVALID_REQUEST,
)

#: QuestConfig knobs a request may *not* override: they configure the
#: shared substrate (one pool, one store root, one registry for the
#: whole daemon) or are service-managed (the store ``namespace``, which
#: is set by the request's top-level ``namespace``/``tenant`` fields,
#: never through config overrides).  Allowing them per-request would
#: silently fork the substrate under one tenant.
SUBSTRATE_FIELDS = frozenset(
    {
        "workers",
        "cache_max_entries",
        "store_dir",
        "namespace",
    }
)

_CONFIG_FIELDS = {f.name for f in fields(QuestConfig)}


def merge_config(base: QuestConfig, overrides: dict | None) -> QuestConfig:
    """Apply a request's config overrides onto the daemon's base config.

    Unknown fields, substrate fields and values
    :class:`~repro.core.quest.QuestConfig` refuses raise
    :class:`ServiceError` (surfaced to the client as an
    ``invalid_request`` rejection) instead of being silently dropped or
    failing the job later — a client that misspells a knob must hear
    about it at admission, not discover it in the results.
    """
    if not overrides:
        return base
    if not isinstance(overrides, dict):
        raise ServiceError(
            f"config overrides must be an object, got {type(overrides).__name__}"
        )
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    if unknown:
        raise ServiceError(f"unknown QuestConfig field(s): {', '.join(unknown)}")
    forbidden = sorted(set(overrides) & SUBSTRATE_FIELDS)
    if forbidden:
        raise ServiceError(
            "substrate-owned QuestConfig field(s) cannot be set per "
            f"request: {', '.join(forbidden)}"
        )
    try:
        return replace(base, **overrides)
    except ValueError as exc:
        raise ServiceError(str(exc)) from exc


def as_seconds(value) -> float:
    """A message's seconds field as a float; NaN when it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def wait_timeout(value) -> float | None:
    """A ``wait`` timeout: None, or a finite number of seconds >= 0.

    Anything else raises :class:`ServiceError`: the client refuses it
    before it sends anything, and the daemon on receipt.
    """
    if value is None:
        return None
    timeout = as_seconds(value)
    if not (math.isfinite(timeout) and timeout >= 0):
        raise ServiceError(
            f"bad timeout_seconds {value!r}: need null or a finite number >= 0"
        )
    return timeout


@dataclass
class JobRecord:
    """One job's full state: request, lifecycle, and outcome.

    JSON-serializable end to end (:meth:`to_dict` / :meth:`from_dict`)
    so it round-trips through the ledger and, minus the QASM payload,
    through status responses.
    """

    job_id: str
    tenant: str
    qasm: str
    #: Request-level QuestConfig overrides (already validated).
    config_overrides: dict = field(default_factory=dict)
    #: Artifact-store namespace the job's cache traffic is scoped to.
    #: Empty means "derive from the tenant" (see
    #: :func:`repro.store.namespace_for_tenant`); persisted so a warm
    #: restart re-runs the job in the same namespace.
    namespace: str = ""
    state: str = JOB_PENDING
    #: Wall-clock epoch seconds of submission (for latency accounting).
    submitted_at: float = 0.0
    #: Absolute wall-clock deadline (epoch seconds), or None.  Stored
    #: absolute — not relative — so a warm restart keeps honoring the
    #: client's original budget rather than restarting the clock.
    deadline_at: float | None = None
    #: Terminal payload: the compile result (see ``result`` message) or
    #: a structured error {"kind": ..., "message": ...}.
    result: dict | None = None
    error: dict | None = None
    #: Whether at least one block of the result shipped its exact
    #: fallback (the run's ``synthesis_fallbacks`` is non-empty).
    degraded: bool = False
    #: Times the daemon started executing this job (a job interrupted by
    #: a crash and resumed after a warm restart counts 2).
    attempts: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ServiceError(
                f"job record has unknown field(s): {', '.join(sorted(unknown))}"
            )
        try:
            record = cls(**data)
        except TypeError as exc:
            raise ServiceError(f"malformed job record: {exc}") from exc
        if record.state not in JOB_STATES:
            raise ServiceError(f"job record has unknown state {record.state!r}")
        return record

    def deadline_remaining(self, now: float) -> float | None:
        """Seconds of client budget left at ``now``; None = unbounded."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - now


def rejection_to_message(rejection: AdmissionRejected) -> dict:
    """The ``rejected`` wire message for an admission verdict."""
    return {
        "type": "rejected",
        "version": PROTOCOL_VERSION,
        "reason": rejection.reason,
        "detail": rejection.detail,
        "tenant": rejection.tenant,
        "queue_depth": rejection.queue_depth,
        "capacity": rejection.capacity,
    }


def rejection_from_message(message: dict) -> AdmissionRejected:
    """Rebuild the structured exception from a ``rejected`` message."""
    return AdmissionRejected(
        str(message.get("reason", "unknown")),
        str(message.get("detail", "")),
        tenant=message.get("tenant"),
        queue_depth=message.get("queue_depth"),
        capacity=message.get("capacity"),
    )


def encode_message(message: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":"), default=str).encode() + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire frame; :class:`ServiceError` on garbage."""
    try:
        message = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"undecodable service message: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ServiceError("service message must be an object with a 'type'")
    return message
