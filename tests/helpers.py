"""Helpers that several test files share and the program never calls."""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ServiceError
from repro.linalg import hs_inner
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


def wait_until_ready(client, timeout: float = 30.0) -> dict:
    """Poll ``client.status`` until the daemon it talks to is ready.

    For tests that just started a daemon: retries connection errors
    until ``timeout``, then re-raises.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            status = client.status(timeout=5.0)
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
