"""Exception hierarchy for the QUEST reproduction library.

All library errors derive from :class:`ReproError` so that callers can
catch library failures without masking programming errors such as
``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CircuitError(ReproError):
    """Raised for invalid circuit construction or manipulation."""


class GateError(ReproError):
    """Raised for invalid gate definitions or parameters."""


class QasmError(ReproError):
    """Raised when OpenQASM 2.0 text cannot be parsed or emitted."""


class SimulationError(ReproError):
    """Raised when a simulator is asked for something it cannot do."""


class SimulationCapacityError(SimulationError):
    """Raised when a circuit exceeds a noise engine's practical ceiling.

    Carries the structured context a caller needs to pick a different
    engine instead of parsing a message (or, worse, watching the process
    swap itself to death on a ``4^n`` allocation): the offending engine,
    the requested qubit count, the engine's ceiling, and the engine the
    library suggests for that size.
    """

    def __init__(
        self,
        engine: str,
        num_qubits: int,
        limit: int,
        suggested_engine: str | None = None,
        detail: str = "",
    ) -> None:
        self.engine = engine
        self.num_qubits = num_qubits
        self.limit = limit
        self.suggested_engine = suggested_engine
        message = (
            f"the {engine!r} noise engine cannot practically simulate "
            f"{num_qubits} qubits (ceiling: {limit})"
        )
        if detail:
            message += f": {detail}"
        if suggested_engine is not None:
            message += f"; use the {suggested_engine!r} engine instead"
        super().__init__(message)


class NoiseModelError(ReproError):
    """Raised for inconsistent noise-model definitions."""


class TranspilerError(ReproError):
    """Raised when a transpilation pass cannot complete."""


class PartitionError(ReproError):
    """Raised when circuit partitioning fails or is inconsistent."""


class SynthesisError(ReproError):
    """Raised when numerical synthesis cannot produce a solution."""


class SelectionError(ReproError):
    """Raised by the QUEST approximation-selection engine."""


class ValidationError(ReproError):
    """Raised when a synthesis result fails its health check.

    Candidates coming back from a worker or the pool cache are
    validated (finite entries, unitarity, recomputed distance) before
    they may enter a block pool; failures quarantine the candidate set
    instead of letting corrupt data poison a run.
    """


class CertificationError(ReproError):
    """Raised when equivalence certification cannot even be *attempted*.

    Structural misuse only — mismatched circuit widths, a block manifest
    that does not describe the stitched circuit, a malformed claims
    file.  A certification that runs and finds the claim violated is not
    an error: it is reported through
    :class:`repro.verify.CertificationReport` with ``ok=False``.
    """


class StoreError(ReproError):
    """Raised for artifact-store misuse (see :mod:`repro.store`).

    Structural problems only — an invalid namespace, an unusable root
    directory.  I/O races and integrity failures are *not* errors: a
    vanished or corrupt entry is a miss that costs a recomputation,
    never an exception.
    """


class ServiceError(ReproError):
    """Raised for failures of the compilation service layer.

    Protocol violations, an unreachable daemon, a ledger that cannot be
    created — conditions where the *service machinery* (not a compile
    job) is broken.  Job-level failures travel as structured result
    payloads, never as this exception.
    """


class AdmissionRejected(ServiceError):
    """Raised client-side when the daemon refuses to admit a job.

    Structured, not stringly: ``reason`` is one of the admission-control
    verdicts (``queue_full``, ``tenant_quota``, ``shutting_down``,
    ``invalid_request``), and the queue context a caller needs for
    backoff decisions rides along.  Rejection is backpressure working as
    designed — the queue is bounded, so an overloaded daemon says "no"
    immediately instead of growing without bound and failing everyone
    late.
    """

    def __init__(
        self,
        reason: str,
        detail: str = "",
        *,
        tenant: str | None = None,
        queue_depth: int | None = None,
        capacity: int | None = None,
    ) -> None:
        self.reason = reason
        self.detail = detail
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.capacity = capacity
        message = f"admission rejected ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class BlockTimeoutError(ReproError):
    """Raised by the cooperative deadline when a block's budget expires.

    Worker processes are bounded by the executor's hard future timeout;
    the inline (``workers == 1``) path instead relies on
    :func:`repro.resilience.deadline.check_deadline` calls sprinkled
    through the synthesis loop raising this error.
    """
