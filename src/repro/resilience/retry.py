"""Retry policy with deterministic per-attempt seed escalation.

A block whose synthesis fails — worker crash, hard timeout, or a
candidate set that fails validation — is retried up to
``max_attempts`` times before the executor downgrades it to the exact
singleton pool.  Two properties keep retries compatible with the
pipeline's determinism contract:

* **Same-seed first.**  Attempts ``0..same_seed_retries`` reuse the
  block's original seed, so a *transient* fault (a crashed worker, an
  injected exception, a corrupted result) recovers with a result that is
  bit-identical to an unfaulted run.
* **Deterministic escalation.**  Later attempts derive fresh seeds via
  ``np.random.SeedSequence(block_seed).spawn(...)`` — a pure function of
  the block seed and the attempt number, so a retried run is itself
  reproducible even when it escalates.

``budget_multiplier`` optionally grows the per-attempt time budget
(cooperative LEAP budget and the hard timeout alike) geometrically, so a
block that timed out gets more room instead of timing out identically.

Retry rounds re-dispatch immediately: a delay could change only when
an attempt runs, never what it computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) failed block synthesis is retried.

    ``max_attempts=1`` disables retries entirely (one attempt, then the
    exact-pool fallback) — the executor's historical behaviour.
    """

    max_attempts: int = 2
    budget_multiplier: float = 1.0
    #: Number of *retries* (attempts beyond the first) that reuse the
    #: block's original seed before escalation kicks in.
    same_seed_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.budget_multiplier <= 0:
            raise ValueError(
                f"budget_multiplier must be > 0, got {self.budget_multiplier}"
            )
        if self.same_seed_retries < 0:
            raise ValueError(
                f"same_seed_retries must be >= 0, got {self.same_seed_retries}"
            )

    def attempt_seed(self, block_seed: int, attempt: int) -> int:
        """Deterministic seed for ``attempt`` (0-based) of a block."""
        if attempt <= self.same_seed_retries:
            return int(block_seed)
        escalation = attempt - self.same_seed_retries
        spawned = np.random.SeedSequence(int(block_seed)).spawn(escalation)
        return int(spawned[-1].generate_state(1)[0] % (2**31 - 1))

    def attempt_budget(self, base: float | None, attempt: int) -> float | None:
        """Time budget for ``attempt``; ``None`` stays unbounded."""
        if base is None:
            return None
        return float(base) * self.budget_multiplier**attempt

    def is_baseline_attempt(self, block_seed: int, attempt: int, base_budget) -> bool:
        """Whether ``attempt`` reproduces attempt 0's (seed, budget).

        Results from baseline attempts are interchangeable with an
        unfaulted run's, so they are safe to persist in the
        content-addressed cache under attempt 0's entry key.
        """
        return (
            self.attempt_seed(block_seed, attempt) == int(block_seed)
            and self.attempt_budget(base_budget, attempt) == base_budget
        )


@dataclass
class RetryLog:
    """Mutable accumulator the executor threads through a run."""

    records: list[FailureRecord] = field(default_factory=list)
    #: Attempts beyond the first actually executed, across all blocks.
    retries: int = 0

    def record(self, block_index: int, attempt: int, kind: str, message: str) -> None:
        self.records.append(
            FailureRecord(
                block_index=int(block_index),
                attempt=int(attempt),
                kind=kind,
                message=str(message),
            )
        )
