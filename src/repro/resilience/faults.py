"""Deterministic fault injection for the synthesis pipeline.

Every recovery path in :mod:`repro.resilience` — retry, validation
quarantine, cache-corruption recompute, resume from the store — needs to be
exercised *deterministically* in CI, not discovered in production.  The
:class:`FaultInjector` is a schedule of :class:`FaultSpec` entries, each
firing at a precise point (block index, attempt number, or write
ordinal), plus a seed that pins every random detail (which byte flips,
which candidate corrupts).

Fault taxonomy (``FaultSpec.kind``):

``raise``
    The synthesis job raises :class:`InjectedFault` before doing work —
    models a worker crash / unhandled optimizer exception.
``hang``
    The job spins past its time budget.  Under a cooperative deadline
    (inline path) it raises :class:`BlockTimeoutError` the moment the
    deadline passes; in a worker process it sleeps :data:`HANG_SECONDS`
    so the executor's hard future timeout fires instead.
``nan``
    The job completes but one returned candidate is NaN-corrupted —
    models a silently diverged optimizer.  Caught by validation.
``kill``
    The process SIGKILLs itself at the job's start — models a hard
    mid-run crash, for resume testing.  (POSIX only.)
``flip-cache``
    One byte of the Nth disk-cache entry written is bit-flipped after
    publish — models at-rest corruption.  Caught by the cache checksum.

Schedules parse from a compact CLI syntax (``--inject-faults``)::

    kind@block[:attempt][,kind@block[:attempt]...]

e.g. ``raise@0,hang@2:1,nan@*,flip-cache@0``.  ``*`` matches every
block; the attempt defaults to 0 so the default two attempts recover on
the retry.  For ``flip-cache`` the "block" field is the 0-based ordinal
of the disk write, since cache entries are content-keyed rather than
block-keyed.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from repro.observability import get_metrics, get_tracer
from repro.resilience.deadline import check_deadline

FAULT_KINDS = (
    "raise",
    "hang",
    "nan",
    "kill",
    "flip-cache",
)

#: How long a ``hang`` fault spins when no cooperative deadline is armed
#: (worker processes); the hard future timeout should be shorter for the
#: fault to behave as a hang rather than a stall.
HANG_SECONDS = 60.0


class InjectedFault(RuntimeError):
    """The exception raised by a scheduled ``raise`` fault.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: it
    models an arbitrary unexpected worker failure, so nothing in the
    library should catch it specifically.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what, where, and on which attempt."""

    kind: str
    #: Block index (or write ordinal for ``flip-cache``); None = every.
    block: int | None = None
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )

    def matches(self, block: int, attempt: int = 0) -> bool:
        return (self.block is None or self.block == block) and (
            self.attempt == attempt
        )


@dataclass
class FaultInjector:
    """Applies a deterministic fault schedule at the pipeline's hooks.

    Instances are picklable (they ship to worker processes); the
    ``fired`` log is best-effort telemetry and only reflects faults
    fired in the process holding this instance.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    fired: list[tuple[str, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        #: Parent-side ordinal of disk-cache writes, for ``flip-cache``.
        self._cache_writes = 0

    def _firing(self, kind: str, block: int, attempt: int = 0) -> FaultSpec | None:
        for spec in self.specs:
            if spec.kind == kind and spec.matches(block, attempt):
                return spec
        return None

    def _rng(self, *context: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([int(self.seed) & 0xFFFFFFFF, *context])
        )

    def _note(self, kind: str, block: int, attempt: int = 0) -> None:
        """Log a fired fault locally and to the ambient tracer/metrics."""
        self.fired.append((kind, block, attempt))
        tracer = get_tracer()
        if tracer.is_enabled:
            tracer.event(
                "fault.injected", kind=kind, block=block, attempt=attempt
            )
        metrics = get_metrics()
        if metrics.is_enabled:
            metrics.inc("faults.injected")

    # ------------------------------------------------------------------
    # Synthesis-job hooks
    # ------------------------------------------------------------------
    def on_synthesis_start(self, block: int, attempt: int) -> None:
        """Fire ``kill`` / ``raise`` / ``hang`` faults for this attempt."""
        if self._firing("kill", block, attempt) is not None:
            self._note("kill", block, attempt)
            os.kill(os.getpid(), signal.SIGKILL)
        if self._firing("raise", block, attempt) is not None:
            self._note("raise", block, attempt)
            raise InjectedFault(
                f"injected worker exception (block {block}, attempt {attempt})"
            )
        if self._firing("hang", block, attempt) is not None:
            self._note("hang", block, attempt)
            end = time.monotonic() + HANG_SECONDS
            while time.monotonic() < end:
                # Raises BlockTimeoutError under a cooperative deadline.
                check_deadline()
                time.sleep(0.01)

    def corrupt_solutions(self, block: int, attempt: int, solutions: list) -> list:
        """Fire a ``nan`` fault: corrupt one candidate of the result."""
        if self._firing("nan", block, attempt) is None or not solutions:
            return solutions
        self._note("nan", block, attempt)
        from dataclasses import replace

        victim = int(self._rng(block, attempt).integers(len(solutions)))
        corrupted = list(solutions)
        corrupted[victim] = replace(corrupted[victim], distance=float("nan"))
        return corrupted

    # ------------------------------------------------------------------
    # Disk hooks
    # ------------------------------------------------------------------
    def on_cache_write(self, path) -> None:
        """Fire a ``flip-cache`` fault: bit-flip one byte of the entry."""
        ordinal = self._cache_writes
        self._cache_writes += 1
        if self._firing("flip-cache", ordinal) is None:
            return
        self._note("flip-cache", ordinal)
        raw = bytearray(path.read_bytes())
        if not raw:
            return
        rng = self._rng(ordinal, len(raw))
        position = int(rng.integers(len(raw)))
        raw[position] ^= 1 << int(rng.integers(8))
        path.write_bytes(bytes(raw))


def parse_fault_spec(text: str, seed: int = 0) -> FaultInjector:
    """Build an injector from the ``--inject-faults`` CLI syntax."""
    specs: list[FaultSpec] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, separator, location = part.partition("@")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {part!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        block: int | None = None
        attempt = 0
        if separator:
            block_text, _, attempt_text = location.partition(":")
            block_text = block_text.strip()
            block = None if block_text in ("", "*") else int(block_text)
            if attempt_text.strip():
                attempt = int(attempt_text)
        specs.append(FaultSpec(kind=kind, block=block, attempt=attempt))
    if not specs:
        raise ValueError(f"no faults found in spec {text!r}")
    return FaultInjector(specs=tuple(specs), seed=seed)
