"""Cooperative per-block deadlines for inline synthesis.

The executor's hard per-block timeout is enforced with
``future.result(timeout=...)`` — which only works when the block runs in
a *worker process* that can be abandoned.  The inline (``workers == 1``)
path runs synthesis in the parent, where nothing can preempt a stuck
optimizer, so the deadline is **cooperative**: the executor arms a
deadline around the block's synthesis call and long-running loops (each
round of the instantiation driver, the fault injector's hang fault)
call :func:`check_deadline`, which raises
:class:`~repro.exceptions.BlockTimeoutError` once the deadline passes.

The deadline lives in a :class:`contextvars.ContextVar`, so nested
blocks compose (the innermost effective deadline is the minimum) and
worker processes — which never arm one — are unaffected.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.exceptions import BlockTimeoutError

#: Monotonic-clock instant after which :func:`check_deadline` raises.
_DEADLINE: ContextVar[float | None] = ContextVar("block_deadline", default=None)


@contextmanager
def block_deadline(seconds: float | None):
    """Arm a cooperative deadline ``seconds`` from now for the body.

    ``None`` means "no deadline" and is a no-op, so callers can pass an
    optional timeout straight through.  Nested deadlines never extend an
    outer one: the effective deadline is the minimum.
    """
    if seconds is None:
        yield
        return
    candidate = time.monotonic() + float(seconds)
    current = _DEADLINE.get()
    token = _DEADLINE.set(candidate if current is None else min(candidate, current))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise :class:`BlockTimeoutError` if the armed deadline has passed.

    Cheap enough (one context-var read + one clock read) to call from
    per-round loops; a no-op when no deadline is armed.
    """
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise BlockTimeoutError(
            "cooperative block deadline exceeded "
            f"(by {time.monotonic() - deadline:.2f}s)"
        )


def deadline_remaining() -> float | None:
    """Seconds until the armed deadline, or ``None`` when unarmed."""
    deadline = _DEADLINE.get()
    if deadline is None:
        return None
    return deadline - time.monotonic()
