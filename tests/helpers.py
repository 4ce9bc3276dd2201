"""Helpers that several test files share and the program never calls."""

from __future__ import annotations

import time

import numpy as np

from repro.core.quest import QuestConfig
from repro.exceptions import ServiceError
from repro.linalg import hs_inner
from repro.observability import Record, use_record
from repro.parallel.executor import BlockSynthesisExecutor
from repro.parallel.substrate import open_substrate
from repro.resilience.retry import FAILURE_FALLBACK


def equal_up_to_global_phase(
    u: np.ndarray, v: np.ndarray, atol: float = 1e-8
) -> bool:
    """Whether two unitaries differ only by a global phase."""
    if u.shape != v.shape:
        return False
    overlap = hs_inner(u, v)
    if abs(overlap) < atol:
        return False
    phase = overlap / abs(overlap)
    return bool(np.allclose(u * phase, v, atol=atol))


def fallback_blocks(failure_log) -> list[int]:
    """Blocks a run downgraded to their exact fallback pool: the
    ``fallback`` records of its failure log."""
    return [r.block_index for r in failure_log if r.kind == FAILURE_FALLBACK]


def counted(run, *args, **kwargs):
    """``run(*args, **kwargs)`` under a record of its own: the result and
    the record's counters."""
    with use_record(Record()) as record:
        result = run(*args, **kwargs)
    return result, record.snapshot()["counters"]


def substrate_for(workers: int = 1, store=None, namespace: str = "default"):
    """The substrate a solo run at these settings opens (a context
    manager that shuts its worker pool down)."""
    return open_substrate(
        QuestConfig(
            workers=workers,
            store_dir=None if store is None else str(store),
            namespace=namespace,
        )
    )


def run_executor(blocks, config, seeds, *, workers: int = 1, store=None, **options):
    """Run a :class:`BlockSynthesisExecutor` once, with ``options``, on a
    substrate :func:`substrate_for` opens for it and closes after."""
    with substrate_for(workers, store) as substrate:
        return BlockSynthesisExecutor(substrate, **options).run(blocks, config, seeds)


def wait_until_ready(client, timeout: float = 30.0) -> dict:
    """Poll ``client.status`` until the daemon it talks to is ready.

    For tests that just started a daemon: retries connection errors
    until ``timeout``, then re-raises.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            status = client.status()
            if status.get("ready"):
                return status
        except ServiceError:
            if time.monotonic() >= deadline:
                raise
        if time.monotonic() >= deadline:
            raise ServiceError(
                f"daemon at {client.socket_path} not ready within {timeout}s"
            )
        time.sleep(0.05)
