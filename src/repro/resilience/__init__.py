"""Resilience layer: the pipeline survives faults instead of degrading.

Long multi-block QUEST runs fail in mundane ways — a worker segfaults,
an optimizer never converges, a cache file rots on disk, the whole
process gets OOM-killed — and without this package every one of those
silently downgraded a block to its distance-zero fallback (or lost the
run entirely).  Three cooperating pieces close those holes:

* :mod:`~repro.resilience.retry` — the failure taxonomy: failed blocks
  retry, each attempt rerunning the block's own seed and config, before
  the exact-pool downgrade; every failure lands in a structured log of
  :class:`FailureRecord` entries.
* :mod:`~repro.resilience.validation` — candidates from workers or the
  cache are health-checked (finite, unitary, distance recomputes) and
  quarantined on failure.
* :mod:`~repro.resilience.faults` — a deterministic fault injector
  (raise / hang / NaN / kill / flip-cache) so each recovery path above
  is exercised in CI, not discovered in production.

A killed run needs no journal to resume: the executor publishes each
block's solutions to the content-addressed artifact store
(:mod:`repro.store`) as its job lands, and a rerun over the same store
finds them as disk hits.  Every attempt computes the same solutions, so
every success is published, whichever attempt it came from.

:mod:`~repro.resilience.deadline` supplies the cooperative per-block
deadline that bounds inline (``workers == 1``) synthesis, which the hard
process-pool timeout cannot reach.
"""

from repro.resilience.deadline import (
    block_deadline,
    check_deadline,
    deadline_remaining,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    parse_fault_spec,
)
from repro.resilience.retry import FAILURE_KINDS, FailureRecord
from repro.resilience.validation import (
    DEFAULT_DISTANCE_TOL,
    DEFAULT_UNITARITY_TOL,
    validate_pool,
    validate_solutions,
)

__all__ = [
    "block_deadline",
    "check_deadline",
    "deadline_remaining",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "parse_fault_spec",
    "FAILURE_KINDS",
    "FailureRecord",
    "DEFAULT_DISTANCE_TOL",
    "DEFAULT_UNITARITY_TOL",
    "validate_pool",
    "validate_solutions",
]
