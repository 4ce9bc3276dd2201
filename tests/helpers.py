"""Helpers that several test files share and the program never calls."""

from __future__ import annotations

import threading
import time

import numpy as np

import repro.parallel.executor as executor_module
from repro.batch import workqueue
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


def bound_registry(monkeypatch, bound: int) -> dict:
    """Bound every in-flight registry to ``bound`` resolved entries and
    watch what the runs that follow do with it (workers=1 runs only:
    syntheses are counted in this process).

    Returns a live tally: ``published``, the publishes that resolved a
    key; ``most_resolved``, the most resolved entries a registry held
    after one; ``registries``, every registry published to; and
    ``dispatched``, the syntheses run.
    """
    tally = {"published": 0, "most_resolved": 0, "registries": [], "dispatched": 0}
    lock = threading.Lock()
    monkeypatch.setattr(workqueue, "MAX_RESOLVED_ENTRIES", bound)
    real_publish = workqueue.InflightRegistry.publish
    real_task = executor_module._synthesize_solutions_task

    def publish(registry, key, owner, solutions):
        held = registry._claims.get(key)
        real_publish(registry, key, owner, solutions)
        with lock:
            if held is not None and held[0] is owner:
                tally["published"] += 1
            tally["most_resolved"] = max(
                tally["most_resolved"], len(registry._resolved)
            )
            if registry not in tally["registries"]:
                tally["registries"].append(registry)

    def synthesize(block, config, seed):
        with lock:
            tally["dispatched"] += 1
        return real_task(block, config, seed)

    monkeypatch.setattr(workqueue.InflightRegistry, "publish", publish)
    monkeypatch.setattr(executor_module, "_synthesize_solutions_task", synthesize)
    return tally
