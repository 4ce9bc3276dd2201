"""Failure taxonomy of block synthesis attempts.

A block whose synthesis fails — worker crash, hard timeout, or a
candidate set that fails validation — is retried up to the executor's
``max_attempts`` before it downgrades to the exact singleton pool.
Every attempt reruns the same computation: the block's own seed under
the same config.  A block's solutions are therefore a function of
(block unitary, LEAP config, seed) whichever attempt produced them, so
a faulted run that recovers equals a clean run bit for bit, and a
fault that repeats on every attempt falls back identically on every
rerun.

Retry rounds re-dispatch immediately: a delay could change only when
an attempt runs, never what it computes.  Each failed attempt, and each
terminal fallback, becomes one :class:`FailureRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Failure taxonomy recorded in :class:`FailureRecord.kind`.
FAILURE_EXCEPTION = "exception"
FAILURE_TIMEOUT = "timeout"
FAILURE_VALIDATION = "validation"
#: Terminal degradation: every attempt failed and the block was replaced
#: by its exact singleton pool.  Unlike the other kinds this is not an
#: attempt-level failure but the run-level outcome of exhausting them.
FAILURE_FALLBACK = "fallback"
FAILURE_KINDS = (
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    FAILURE_VALIDATION,
    FAILURE_FALLBACK,
)


@dataclass(frozen=True)
class FailureRecord:
    """One structured entry of a run's failure log."""

    block_index: int
    attempt: int
    kind: str
    message: str

    def as_dict(self) -> dict:
        """JSON-serializable form (for artifacts and the CLI)."""
        return {
            "block_index": self.block_index,
            "attempt": self.attempt,
            "kind": self.kind,
            "message": self.message,
        }
