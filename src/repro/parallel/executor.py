"""Parallel fan-out of per-block LEAP synthesis.

:class:`BlockSynthesisExecutor` takes the partition's blocks plus one
pre-drawn seed per block and returns one :class:`BlockPool` per block.

**Determinism.**  The caller draws the seeds in block order before
dispatch, so neither worker count nor completion order can change a
block's seed.  Blocks whose content key (:mod:`repro.parallel.cache`)
collides take the first occurrence's seed; LEAP is deterministic given
(target, config, seed), so repeats dedup to one job with byte-identical
results, with or without a store, and across the runs of a batch or
daemon through the substrate's in-flight registry.

**Reuse.**  Each entry key synthesizes at most once per run.  With a
store, a key it holds a valid entry for skips to pool assembly, and
each result is published as its job lands, so rerunning a killed run
over its store is a resume made of store hits.  Only the solution list
is shared; pool assembly is cheap and block-specific and always runs in
the parent.

**Resilience.**  With ``max_attempts > 1`` a block whose synthesis
raises, hangs past the hard timeout or fails validation is retried
under its own seed, so a recovered block is bit-identical to a clean
run's.  Candidate sets from workers or the store are validated
(:mod:`repro.resilience.validation`) and quarantined on failure; every
failure lands in a :class:`~repro.resilience.retry.FailureRecord` log.
Only when every attempt fails does a block fall back to its exact
singleton pool, with a :class:`RuntimeWarning`: one bad block costs
approximation quality, never the run.

A run is plan → dispatch → assemble.  The plan builds each block's
unitary and routes the block: trivial, a within-run repeat, a validated
store hit, or a synthesis job.  Dispatch runs the jobs in retry rounds,
over the substrate's worker pool, or inline when it has none, and
settles every attempt through one function that validates, classifies
a failure, and publishes a success.  Assembly builds the pools in block
order.  Matrices are handed on as values, each built once: validation
checks candidates against the plan's block unitary, and the pool takes
that unitary and the matrices validation built.  Nothing is memoized on
a solution, so whatever crosses a process or the store is rebuilt from
its structure and angles on arrival.

Wall-clock time bounds an attempt, never shapes its result.  Workers
are bounded by the future's hard result timeout; the inline path arms a
cooperative deadline (:mod:`repro.resilience.deadline`) that synthesis
checks between optimizer rounds.  A timed-out attempt is a failure, so
a block ends with its full pool or its flagged exact fallback.  When an
enclosing deadline (the service's job deadline) lapses on the inline
path, the run raises :class:`~repro.exceptions.BlockTimeoutError`
instead of falling back.  The substrate's worker pool serves every
retry round of every run sharing it, and is recycled only after a round
observes a hung or killed worker.  All three fault-injection hooks
(:mod:`repro.resilience.faults`) fire here: before each attempt, on its
result, and after each store write.
"""

from __future__ import annotations

import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.pool import (
    BlockPool,
    augment_with_sphere_variants,
    build_pool,
    exact_pool,
)
from repro.exceptions import BlockTimeoutError, ValidationError
from repro.observability import ListSink, Record, get_record, use_record
from repro.observability.trace import current_span_id, within_span
from repro.parallel.cache import content_key, entry_key
from repro.parallel.substrate import Substrate
from repro.partition.blocks import CircuitBlock
from repro.resilience.deadline import block_deadline, check_deadline
from repro.resilience.retry import (
    FAILURE_EXCEPTION,
    FAILURE_FALLBACK,
    FAILURE_TIMEOUT,
    FAILURE_VALIDATION,
    FailureRecord,
)
# No caller here: the benchmark harness (benchmarks/harness/layers.py)
# wraps validate_pool at this lookup site and requires the name.
from repro.resilience.validation import validate_pool  # noqa: F401
from repro.resilience.validation import validate_solutions
from repro.synthesis.leap import LeapConfig, SynthesisSolution, synthesize


def leap_config_for_block(
    original_cnots: int, config, seed: int | None
) -> LeapConfig:
    """The per-block LEAP configuration ``run_quest`` has always used.

    ``config`` is duck-typed (any object with the QuestConfig synthesis
    knobs) so this module never imports :mod:`repro.core.quest`.
    """
    return LeapConfig(
        max_layers=min(config.max_layers_per_block, max(original_cnots - 1, 1)),
        solutions_per_layer=config.solutions_per_layer,
        instantiation_starts=config.instantiation_starts,
        max_optimizer_iterations=config.max_optimizer_iterations,
        seed=seed,
        # Threshold stopping: secondary optimizer starts halt at the
        # per-block threshold, producing dissimilar on-sphere solutions.
        target_distance=config.threshold_per_block,
    )


def _synthesize_solutions_task(
    block: CircuitBlock, config, seed: int
) -> list[SynthesisSolution]:
    """The unit of work shipped to a worker: LEAP on one block's unitary."""
    leap_config = leap_config_for_block(
        block.circuit.cnot_count(), config, seed
    )
    return synthesize(block.unitary(), leap_config)


def _attempt_task(injector, index, attempt, block, config, seed):
    """One synthesis attempt, in its ``synthesis.block`` span:
    :func:`_synthesize_solutions_task` between the injector's fault
    hooks.  Returns ``(solutions, seconds)``, ``seconds`` being the
    span's duration."""
    with get_record().span(
        "synthesis.block", block=index, attempt=attempt, seed=seed
    ) as span:
        if injector is not None:
            injector.on_synthesis_start(index, attempt)
        solutions = _synthesize_solutions_task(block, config, seed)
        if injector is not None:
            solutions = injector.corrupt_solutions(index, attempt, solutions)
    return solutions, span.duration


def _worker_attempt(traced, parent, *task):
    """:func:`_attempt_task` in a worker process, which cannot reach the
    parent's record.

    The attempt counts into a fresh record stamped ``origin="worker"``,
    which traces into a local buffer only when the parent traces
    (``traced``), under the span ``parent`` submitted it from.  Returns
    ``(outcome, records, snapshot)``, raised or not: ``outcome`` is
    ``(solutions, seconds)`` or the exception (see
    :func:`_worker_outcome`).
    """
    record = Record(ListSink() if traced else None, origin="worker")
    with use_record(record), within_span(parent):
        try:
            outcome = _attempt_task(*task)
        except Exception as exc:
            outcome = exc
    return outcome, record.sink.records if traced else [], record.snapshot()


def _worker_outcome(future, timeout):
    """A worker attempt's ``(solutions, seconds)``, or its exception
    raised, once its records are replayed and merged into the ambient
    record.  A hard timeout or a broken pool ships nothing."""
    outcome, records, snapshot = future.result(timeout)
    record = get_record()
    record.replay(records)
    record.merge(snapshot)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _note_failure(
    log: list[FailureRecord], index: int, attempt: int, kind: str, message: str
) -> None:
    """Record a failure in the structured log and mirror it as telemetry."""
    log.append(FailureRecord(index, attempt, kind, message))
    record = get_record()
    record.event("synthesis.failures", block=index, attempt=attempt, kind=kind)
    record.inc(f"synthesis.failures.{kind}")


def assemble_pool(
    block: CircuitBlock,
    solutions: list[SynthesisSolution],
    config,
    seed: int,
    *,
    original_unitary: np.ndarray | None = None,
    unitaries: list[np.ndarray] | None = None,
) -> BlockPool:
    """Build the block's candidate pool from raw LEAP solutions.

    Runs in the parent process: the pool embeds the (position-specific)
    block, so only the solutions themselves are shareable across blocks.
    ``original_unitary`` and ``unitaries`` are the block's and the
    solutions' matrices when the caller built them already (see
    :func:`~repro.core.pool.build_pool`).
    """
    # No single block may eat more than its per-block share of the total
    # threshold — the per-block analogue of Algorithm 1's rejection line.
    pool = build_pool(
        block,
        solutions,
        distance_cap=config.threshold_per_block,
        original_unitary=original_unitary,
        unitaries=unitaries,
    )
    if config.sphere_variants_per_count > 0:
        augment_with_sphere_variants(
            pool,
            threshold=config.threshold_per_block,
            per_count=config.sphere_variants_per_count,
            rng=seed,
        )
    get_record().observe("synthesis.pool_size", pool.size)
    return pool


@dataclass
class BlockSynthesisStats:
    """Per-block records of what the executor did.

    Counts go to the ambient record only: ``cache.hit`` per
    block planned without a synthesis job (a within-run repeat or a
    store hit), ``cache.miss`` per job planned, ``dedup.hits`` per job
    another run of a batch or daemon resolved, ``retry.attempts`` per
    attempt beyond a block's first, and ``pool.rounds`` per process-pool
    round.  Trivial (1-qubit / CNOT-free) blocks count as neither.
    """

    #: Per-block seconds: the block's successful ``synthesis.block``
    #: span; 0.0 for trivial blocks and cache/repeat hits.
    block_seconds: list[float] = field(default_factory=list)
    #: Structured log of every failed attempt (see FailureRecord).
    failure_log: list[FailureRecord] = field(default_factory=list)


@dataclass(frozen=True)
class _BlockPlan:
    """Routing decision for one block, with the block's own unitary."""

    trivial: bool
    unitary: np.ndarray
    key: str | None = None  # entry key (None for trivial blocks)
    seed: int = 0  # canonical synthesis seed


@dataclass
class _RunState:
    """Everything one :meth:`BlockSynthesisExecutor.run` call mutates."""

    config: object
    stats: BlockSynthesisStats
    #: One plan per block, in block order.
    plans: list[_BlockPlan] = field(default_factory=list)
    #: Synthesis jobs by entry key: (first block index, block, seed).
    jobs: dict[str, tuple[int, CircuitBlock, int]] = field(default_factory=dict)
    #: Solutions by entry key, from the store, a job or a joined job.
    resolved: dict[str, list[SynthesisSolution]] = field(default_factory=dict)
    #: The solutions' unitaries by entry key, as validation rebuilt them
    #: (joined results are not validated, so their pools build their own).
    unitaries: dict[str, list[np.ndarray]] = field(default_factory=dict)
    #: Latest failure by entry key.
    failures: dict[str, BaseException] = field(default_factory=dict)
    #: The in-flight registry keys claims by this token, so a crashed
    #: run releases all of its claims at once.
    claim_token: object = field(default_factory=object)


class BlockSynthesisExecutor:
    """Synthesizes a run's blocks on a substrate.

    Parameters
    ----------
    substrate:
        The :class:`~repro.parallel.substrate.Substrate` the run shares.
        Valid entries of its store skip synthesis, and each result is
        published there as its job lands.  Its worker pool runs the
        jobs; without one, every block runs inline in the parent — same
        results, one process.  Blocks whose entry key another run on it
        has in flight, or has resolved, join that job through its
        in-flight registry instead of synthesizing it again.
    hard_timeout:
        Hard per-block wall-clock cap in seconds.  Enforced via the
        future's result timeout on the worker pool and via the
        cooperative deadline (:mod:`repro.resilience.deadline`) on the
        inline path.  A block that exceeds it is retried and ultimately
        falls back to its exact pool.
    max_attempts:
        Synthesis attempts per block before the exact-pool fallback
        (``1``, the default, means no retries).  Every attempt reruns
        the block's seed under the same config.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` whose
        scheduled faults fire around each synthesis attempt and after
        each store write (tests/CI).
    """

    def __init__(
        self,
        substrate: Substrate,
        hard_timeout: float | None = None,
        max_attempts: int = 1,
        fault_injector=None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.substrate = substrate
        self.hard_timeout = hard_timeout
        self.max_attempts = int(max_attempts)
        self.fault_injector = fault_injector

    def run(
        self,
        blocks: list[CircuitBlock],
        config,
        seeds: list[int],
    ) -> tuple[list[BlockPool], BlockSynthesisStats]:
        """Synthesize every block; returns (pools, stats) in block order."""
        if len(seeds) != len(blocks):
            raise ValueError(
                f"got {len(seeds)} seeds for {len(blocks)} blocks"
            )
        state = _RunState(
            config=config,
            stats=BlockSynthesisStats(block_seconds=[0.0] * len(blocks)),
        )
        self._plan(state, blocks, seeds)
        self._dispatch(state)
        return self._assemble(state, blocks), state.stats

    # ------------------------------------------------------------------
    # Plan
    # ------------------------------------------------------------------
    def _plan(
        self, state: _RunState, blocks: list[CircuitBlock], seeds: list[int]
    ) -> None:
        """Route every block; each new entry key becomes one job.

        Each plan lands in ``state.plans`` with its block's unitary,
        built here for every later reader: the key, validation and the
        pool.  Seeds are canonicalized per content key, so repeats of a
        block share its entry key.  A key planned before is a within-run
        repeat and a key the store holds a valid entry for is a store
        hit; both count as ``cache.hit``.
        """
        record = get_record()
        plans = state.plans
        canonical_seed: dict[str, int] = {}
        for index, (block, seed) in enumerate(zip(blocks, seeds)):
            unitary = block.unitary()
            if block.num_qubits == 1 or block.circuit.cnot_count() == 0:
                plans.append(_BlockPlan(trivial=True, unitary=unitary))
                continue
            fingerprint = leap_config_for_block(
                block.circuit.cnot_count(), state.config, seed=None
            ).fingerprint()
            content = content_key(unitary, fingerprint)
            seed = canonical_seed.setdefault(content, seed)
            key = entry_key(content, seed)
            plans.append(
                _BlockPlan(trivial=False, unitary=unitary, key=key, seed=seed)
            )
            if key in state.resolved or key in state.jobs:
                # A within-run repeat.
                record.event("cache.hit", block=index, source="run")
                continue
            if self._cache_hit(state, index, unitary, key):
                continue
            state.jobs[key] = (index, block, seed)
            record.inc("cache.miss")

    def _cache_hit(
        self, state: _RunState, index: int, target: np.ndarray, key: str
    ) -> bool:
        """Resolve ``key`` from the store; a failing entry is quarantined.

        ``target`` is the block's unitary, from its plan.
        """
        cache = self.substrate.cache
        cached = None if cache is None else cache.get(key)
        if cached is None:
            return False
        try:
            unitaries = validate_solutions(target, cached)
        except ValidationError as exc:
            _note_failure(
                state.stats.failure_log,
                index,
                0,
                FAILURE_VALIDATION,
                f"cache entry quarantined: {exc}",
            )
            return False
        state.resolved[key] = cached
        state.unitaries[key] = unitaries
        get_record().event("cache.hit", block=index, source="disk")
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, state: _RunState) -> None:
        """Run the jobs in retry rounds until each resolves or runs out.

        Each round splits the pending jobs into the ones this run owns
        and the ones another run on the substrate has in flight (joined
        through its registry).  The owned jobs run, the joins adopt the
        owner's published result, and a join that came back empty runs
        as this run's own attempt in the *same* round, so retry
        semantics match a solo run exactly.
        """
        record = get_record()
        inflight = self.substrate.inflight
        pending = dict(state.jobs)
        try:
            for attempt in range(self.max_attempts):
                if not pending:
                    break
                if attempt > 0:
                    for index, _, _ in pending.values():
                        record.event(
                            "retry.attempts", block=index, attempt=attempt
                        )
                owned = dict(pending)
                joined: dict[str, tuple] = {}
                for key in list(owned):
                    entry = inflight.claim(key, state.claim_token)
                    if entry is not None:
                        joined[key] = (entry, owned.pop(key))
                succeeded = self._run_round(state, owned, attempt)
                if joined:
                    adopted, leftover = self._adopt_joined(state, joined)
                    succeeded += adopted
                    succeeded += self._run_round(state, leftover, attempt)
                for key in succeeded:
                    del pending[key]
        finally:
            inflight.release(state.claim_token)

    def _run_round(
        self, state: _RunState, jobs: dict, attempt: int
    ) -> list[str]:
        """Run one attempt of each job; returns the keys that succeeded."""
        if not jobs:
            return []
        if self.substrate.worker_pool is None:
            return self._run_round_inline(state, jobs, attempt)
        return self._run_round_pool(state, jobs, attempt)

    def _run_round_inline(
        self, state: _RunState, jobs: dict, attempt: int
    ) -> list[str]:
        """One round in the parent, each attempt under the deadline."""
        succeeded: list[str] = []
        for key, (index, block, seed) in jobs.items():
            def fetch():
                with block_deadline(self.hard_timeout):
                    return _attempt_task(
                        self.fault_injector,
                        index, attempt, block, state.config, seed,
                    )

            if self._settle(state, key, attempt, fetch):
                succeeded.append(key)
        return succeeded

    def _run_round_pool(
        self, state: _RunState, jobs: dict, attempt: int
    ) -> list[str]:
        """One round over the substrate's persistent process pool.

        The pool outlives the round.  A round that observes a hard
        timeout (the hung worker still occupies its process) or a broken
        pool (killed worker) marks it unhealthy so the *next* submission
        gets a fresh pool; healthy pools — including ones whose workers
        merely raised — are reused across rounds and across the runs
        that share the substrate.  Each submission carries the id of the
        span it was made from, the parent of its worker-side spans.
        """
        record = get_record()
        record.inc("pool.rounds")
        traced, parent = record.is_enabled, current_span_id()
        futures = {
            key: self.substrate.worker_pool.submit(
                _worker_attempt, traced, parent, self.fault_injector,
                index, attempt, block, state.config, seed,
            )
            for key, (index, block, seed) in jobs.items()
        }
        succeeded: list[str] = []
        for key, future in futures.items():
            fetch = partial(_worker_outcome, future, self.hard_timeout)
            if self._settle(state, key, attempt, fetch):
                succeeded.append(key)
            else:
                # A timed-out task may still wait in the queue: it must
                # never start.  Cancelling a finished future is a no-op.
                future.cancel()
        return succeeded

    def _settle(self, state: _RunState, key: str, attempt: int, fetch) -> bool:
        """Settle one attempt of job ``key``; True iff it succeeded.

        ``fetch`` returns the attempt's ``(solutions, seconds)`` or
        raises its failure, with a worker's records already in the
        ambient record either way.  A failure is logged as a timeout, a
        validation failure or an exception; a pool timeout or a broken
        pool also marks the pool unhealthy.  An inline timeout whose
        cause is a lapsed *enclosing* deadline ends the run with
        :class:`BlockTimeoutError` instead: the attempt's own deadline is
        disarmed by now, so only an enclosing one can still fire.  A
        success is recorded, published to joiners and put into the store
        as its job lands, so a run killed mid-round has already published
        every finished block.
        """
        index = state.jobs[key][0]
        try:
            solutions, seconds = fetch()
            unitaries = validate_solutions(state.plans[index].unitary, solutions)
        except Exception as exc:
            kind, message = FAILURE_EXCEPTION, f"{type(exc).__name__}: {exc}"
            if isinstance(exc, ValidationError):
                kind, message = FAILURE_VALIDATION, str(exc)
            elif isinstance(exc, BlockTimeoutError):
                check_deadline()
                kind, message = FAILURE_TIMEOUT, str(exc)
            elif self.substrate.worker_pool is not None and isinstance(
                exc, (FutureTimeoutError, BrokenExecutor)
            ):
                # A hung worker still occupies its process and a killed
                # one broke the pool: the next submission recycles it.
                self.substrate.worker_pool.mark_unhealthy()
                if isinstance(exc, FutureTimeoutError):
                    kind = FAILURE_TIMEOUT
                    message = f"hard timeout after {self.hard_timeout}s"
            _note_failure(state.stats.failure_log, index, attempt, kind, message)
            state.failures[key] = exc
            return False
        state.resolved[key] = solutions
        state.unitaries[key] = unitaries
        state.stats.block_seconds[index] = seconds
        # The registry ignores keys this run does not hold (a join re-run
        # as its own attempt), so only claimed keys are published.
        self.substrate.inflight.publish(key, state.claim_token, solutions)
        self._store(key, solutions)
        return True

    def _store(self, key: str, solutions: list[SynthesisSolution]) -> None:
        """Put ``solutions`` into the substrate's store, if it has one;
        the fault injector's ``flip-cache`` faults then corrupt the entry
        just written."""
        cache = self.substrate.cache
        if cache is None or not cache.put(key, solutions):
            return
        if self.fault_injector is not None:
            self.fault_injector.on_cache_write(cache.store.path_for(key))

    def _adopt_joined(
        self, state: _RunState, joined: dict[str, tuple]
    ) -> tuple[list[str], dict[str, tuple[int, CircuitBlock, int]]]:
        """Adopt results published by other runs' in-flight jobs.

        Returns ``(adopted_keys, leftover_jobs)``.  Leftover jobs are
        joins whose owner released the key without a result (it fell
        back or crashed); the caller re-dispatches them as this run's
        own attempt in the same round.
        """
        record = get_record()
        if self.hard_timeout is None:
            timeout = None
        else:
            # Generous: the owner may burn through all of its attempts
            # before the claim resolves either way.  The owner's
            # `finally` release guarantees the event fires eventually.
            timeout = self.hard_timeout * self.max_attempts + 60.0
        adopted: list[str] = []
        leftover: dict[str, tuple[int, CircuitBlock, int]] = {}
        for key, (entry, job) in joined.items():
            if self.substrate.inflight.wait_for(entry, timeout):
                state.resolved[key] = entry.solutions
                # Put under this run's store too: in the daemon the owner
                # may have filled another tenant's namespace.
                self._store(key, entry.solutions)
                record.event("dedup.hits", block=job[0])
                adopted.append(key)
            else:
                leftover[key] = job
        return adopted, leftover

    # ------------------------------------------------------------------
    # Assemble
    # ------------------------------------------------------------------
    def _assemble(
        self, state: _RunState, blocks: list[CircuitBlock]
    ) -> list[BlockPool]:
        """Build every block's pool in the parent, in block order.

        Each pool takes its own block's unitary from the plan (blocks
        under one content key can differ by a global phase) and the
        solution matrices validation rebuilt, which a within-run repeat
        shares with its first occurrence.  A block whose entry key never
        resolved falls back to its exact pool.
        """
        record = get_record()
        attempts = self.max_attempts
        pools: list[BlockPool] = []
        for index, (block, plan) in enumerate(zip(blocks, state.plans)):
            if plan.trivial:
                pools.append(exact_pool(block, plan.unitary))
                continue
            solutions = state.resolved.get(plan.key)
            if solutions is not None:
                pools.append(
                    assemble_pool(
                        block,
                        solutions,
                        state.config,
                        plan.seed,
                        original_unitary=plan.unitary,
                        unitaries=state.unitaries.get(plan.key),
                    )
                )
                continue
            cause = state.failures.get(plan.key)
            reason = (
                f"{type(cause).__name__ if cause else 'worker failure'}: "
                f"{cause}"
            )
            # stacklevel 3 attributes the warning to run()'s caller.
            warnings.warn(
                f"block {index}: synthesis unavailable ({reason}); "
                "falling back to the exact block",
                RuntimeWarning,
                stacklevel=3,
            )
            # The degradation itself is a structured outcome, not
            # just a warning: downstream consumers (CLI, artifacts,
            # trace) must be able to see *which* blocks shipped the
            # exact fallback and why.
            state.stats.failure_log.append(
                FailureRecord(
                    index,
                    attempts,
                    FAILURE_FALLBACK,
                    f"degraded to exact block after {attempts} "
                    f"attempt(s): {reason}",
                )
            )
            record.event("synthesis.fallbacks", block=index, attempts=attempts)
            pools.append(exact_pool(block, plan.unitary))
        return pools
