"""Batch compilation layer: one substrate and in-flight dedup per batch.

See :mod:`repro.batch.driver` for the entry point
(:func:`run_quest_batch`) and :mod:`repro.batch.workqueue` for the
in-flight dedup registry.
"""

from repro.batch.driver import BatchResult, run_quest_batch
from repro.batch.workqueue import InflightRegistry

__all__ = [
    "run_quest_batch",
    "BatchResult",
    "InflightRegistry",
]
