"""Parallel block synthesis and the content-addressed pool cache.

Per-block LEAP synthesis dominates QUEST's wall time (paper Fig. 12) and
the blocks are independent by construction, so this package fans the
per-block work out over a process pool and reuses results across the
many identical blocks that Trotterized circuits produce:

* :mod:`repro.parallel.cache` — content keys (a canonical,
  global-phase-invariant hash of the block unitary plus the
  :class:`~repro.synthesis.leap.LeapConfig` fingerprint and seed) and
  the checksummed entry format in which the artifact store persists
  solutions across runs.
* :mod:`repro.parallel.executor` — :class:`BlockSynthesisExecutor`, which
  dispatches blocks to workers (inline without a worker pool), preserves
  the deterministic per-block seed stream so parallel and serial runs
  select byte-identical candidates, and degrades a failed or timed-out
  block to its exact-block singleton pool instead of killing the run.
* :mod:`repro.parallel.substrate` — :func:`open_substrate`, the one
  opener of what a run reuses: store, worker pool, in-flight registry.
"""

from repro.parallel.cache import (
    PoolCache,
    canonical_unitary_bytes,
    content_key,
    entry_key,
)
from repro.parallel.executor import (
    BlockSynthesisExecutor,
    BlockSynthesisStats,
    assemble_pool,
    leap_config_for_block,
)

__all__ = [
    "PoolCache",
    "canonical_unitary_bytes",
    "content_key",
    "entry_key",
    "BlockSynthesisExecutor",
    "BlockSynthesisStats",
    "assemble_pool",
    "leap_config_for_block",
]
