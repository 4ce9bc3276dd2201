"""Parallel fan-out of per-block LEAP synthesis.

:class:`BlockSynthesisExecutor` takes the partition's blocks plus one
pre-drawn seed per block and returns one :class:`BlockPool` per block.
Four properties make it a drop-in replacement for the old sequential
loop in :func:`repro.core.quest.run_quest`:

**Determinism.**  Seeds are drawn by the caller *before* dispatch, in
block order, so neither worker count nor completion order can change
which seed a block synthesizes under.  Blocks whose content key (see
:mod:`repro.parallel.cache`) collides are canonicalized to the seed of
the *first* occurrence; since LEAP is deterministic given (target,
config, seed), repeated blocks dedup to one synthesis job with
byte-identical results, cache or no cache — and, through a shared
:class:`~repro.batch.workqueue.InflightRegistry`, across concurrently
compiling circuits of a batch.

**Caching.**  With a :class:`~repro.parallel.cache.PoolCache`, each
unique entry key synthesizes at most once per run; repeats and disk hits
skip straight to pool assembly.  Only the LEAP solution list is cached —
pool assembly (original-block candidate, distance re-measurement, sphere
variants) is cheap and block-specific, so it always runs in the parent.
Results are put as each job lands, so a run killed mid-synthesis has
already published every finished block; rerunning it over the same
store is a resume, made of disk hits.

**Resilience.**  With a :class:`~repro.resilience.retry.RetryPolicy`, a
block whose synthesis raises, hangs past the hard timeout, or returns
candidates that fail validation is *retried* — first with the same seed
(so transient faults recover bit-identically), then with
deterministically escalated seeds and optionally larger budgets — before
any downgrade.  Candidate sets from workers or the cache are
health-checked via :mod:`repro.resilience.validation` and quarantined on
failure; every failure lands in a structured
:class:`~repro.resilience.retry.FailureRecord` log.

**Graceful degradation.**  Only when every attempt is exhausted does a
block downgrade to the exact-block singleton pool — the distance-zero
fallback QUEST always keeps — with a :class:`RuntimeWarning`, so one bad
block costs approximation quality, never the run.

Timeouts come in two flavors: worker processes are bounded by the
future's hard result timeout, while the inline (``workers == 1``) path
arms a *cooperative* deadline (:mod:`repro.resilience.deadline`) that
the synthesis loops check between optimizer runs — the only way to bound
work that runs in the parent process itself.

Worker processes live in a :class:`~repro.parallel.pool_manager.
PersistentWorkerPool` that is reused across retry rounds (and, when the
batch driver supplies one, across circuits); a round that observes a
hung or killed worker marks the pool for recycling rather than paying
construction every round.  With ``shm_transport`` the candidate arrays
come home through checksummed shared-memory envelopes
(:mod:`repro.batch.shm`) instead of the result pipe.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

import numpy as np

from repro.core.pool import (
    BlockPool,
    augment_with_sphere_variants,
    build_pool,
    exact_pool,
)
from repro.exceptions import BlockTimeoutError, ValidationError
from repro.observability import (
    ListSink,
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    use_metrics,
    use_tracer,
)
from repro.parallel.cache import PoolCache, content_key, entry_key
from repro.parallel.pool_manager import PersistentWorkerPool
from repro.partition.blocks import CircuitBlock
from repro.resilience.deadline import block_deadline
from repro.resilience.retry import (
    FAILURE_EXCEPTION,
    FAILURE_FALLBACK,
    FAILURE_TIMEOUT,
    FAILURE_VALIDATION,
    FailureRecord,
    RetryLog,
    RetryPolicy,
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
        time_budget=config.block_time_budget,
        # Threshold stopping: secondary optimizer starts halt at the
        # per-block threshold, producing dissimilar on-sphere solutions.
        target_distance=config.threshold_per_block,
    )


class _ScaledBudgetConfig:
    """Duck-typed config view with a replaced ``block_time_budget``.

    Retry attempts may grow the per-block budget; everything else
    delegates to the wrapped config.  Note the budget is part of the
    LEAP fingerprint, so escalated-budget results are never written to
    the content-addressed cache under the base key.
    """

    def __init__(self, base, block_time_budget) -> None:
        self._base = base
        self.block_time_budget = block_time_budget

    def __getattr__(self, name):
        base = self.__dict__.get("_base")
        if base is None:
            raise AttributeError(name)
        return getattr(base, name)


def _synthesize_solutions_task(
    block: CircuitBlock, config, seed: int
) -> tuple[list[SynthesisSolution], float]:
    """The unit of work shipped to a worker: LEAP on one block's unitary.

    Returns the solution list plus the synthesis wall time measured
    inside the worker (queueing and pickling excluded).
    """
    start = time.perf_counter()
    leap_config = leap_config_for_block(
        block.circuit.cnot_count(), config, seed
    )
    report = synthesize(block.unitary(), leap_config)
    return report.solutions, time.perf_counter() - start


def _faulted_task(task, injector, index, attempt, block, config, seed):
    """Worker-side wrapper firing scheduled faults around ``task``."""
    injector.on_synthesis_start(index, attempt)
    solutions, elapsed = task(block, config, seed)
    return injector.corrupt_solutions(index, attempt, solutions), elapsed


def _observed_task(task, injector, index, attempt, block, config, seed):
    """Worker-side wrapper that marshals observability back to the parent.

    A worker process cannot write the parent's trace sink, so it records
    into a local buffer under its own tracer/metrics pair and ships the
    records home with the candidate payload; the parent replays them into
    the real sink (stamped ``origin="worker"``) and folds the metrics
    snapshot into the run registry.  Only reached when the parent tracer
    or metrics is enabled, so untraced runs keep the plain task pickle.
    """
    sink = ListSink()
    tracer = Tracer(sink, origin="worker")
    metrics = MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        with tracer.span(
            "synthesis.block", block=index, attempt=attempt, seed=seed
        ):
            if injector is not None:
                injector.on_synthesis_start(index, attempt)
            solutions, elapsed = task(block, config, seed)
            if injector is not None:
                solutions = injector.corrupt_solutions(
                    index, attempt, solutions
                )
    return solutions, elapsed, sink.records, metrics.snapshot()


def _discard_late_envelope(future) -> None:
    """Done-callback for abandoned (timed-out) shm tasks.

    The driver gave up on this future; if the worker nonetheless
    finishes and hands back an envelope, unlink its segment so abandoned
    results cannot accumulate in ``/dev/shm``.
    """
    try:
        envelope = future.result(timeout=0)
    except Exception:
        return
    from repro.batch.shm import discard_envelope

    discard_envelope(envelope)


def _note_failure(
    log: RetryLog, index: int, attempt: int, kind: str, message: str
) -> None:
    """Record a failure in the structured log and mirror it as telemetry."""
    log.record(index, attempt, kind, message)
    tracer = get_tracer()
    if tracer.is_enabled:
        tracer.event(
            "synthesis.failure", block=index, attempt=attempt, kind=kind
        )
    metrics = get_metrics()
    if metrics.is_enabled:
        metrics.inc("synthesis.failures")
        metrics.inc(f"synthesis.failures.{kind}")


def assemble_pool(
    block: CircuitBlock,
    solutions: list[SynthesisSolution],
    config,
    seed: int,
    solution_unitaries=None,
) -> BlockPool:
    """Build the block's candidate pool from raw LEAP solutions.

    Runs in the parent process: the pool embeds the (position-specific)
    block, so only the solutions themselves are shareable across blocks.
    ``solution_unitaries`` optionally reuses worker-instantiated
    matrices shipped through the shared-memory transport.
    """
    # No single block may eat more than its per-block share of the total
    # threshold — the per-block analogue of Algorithm 1's rejection line.
    pool = build_pool(
        block,
        solutions,
        max_candidates=config.max_candidates_per_block,
        distance_cap=config.threshold_per_block,
        solution_unitaries=solution_unitaries,
    )
    if config.sphere_variants_per_count > 0:
        augment_with_sphere_variants(
            pool,
            threshold=config.threshold_per_block,
            per_count=config.sphere_variants_per_count,
            rng=seed,
        )
    metrics = get_metrics()
    if metrics.is_enabled:
        metrics.observe("synthesis.pool_size", pool.size)
    return pool


def synthesize_block_pool(block: CircuitBlock, config, seed: int) -> BlockPool:
    """Synthesize one block end-to-end, inline (no pool, no cache)."""
    if block.num_qubits == 1 or block.circuit.cnot_count() == 0:
        # Nothing to approximate: the pool is just the block itself.
        return exact_pool(block)
    solutions, _ = _synthesize_solutions_task(block, config, seed)
    return assemble_pool(block, solutions, config, seed)


@dataclass
class BlockSynthesisStats:
    """What the executor did, for the run's telemetry.

    ``cache_hits`` counts blocks served without a synthesis job (within-
    run repeats and disk hits, including the blocks a killed run
    published before it died); ``cache_misses`` counts jobs actually
    dispatched.  Trivial (1-qubit / CNOT-free) blocks count as neither.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    #: Indices of blocks downgraded to their exact-block fallback pool.
    fallback_blocks: list[int] = field(default_factory=list)
    #: Per-block synthesis seconds, measured inside the worker; 0.0 for
    #: trivial blocks and cache/repeat hits.
    block_seconds: list[float] = field(default_factory=list)
    #: Synthesis attempts beyond each block's first, across the run.
    retries: int = 0
    #: Duplicate blocks served by attaching to an existing job instead
    #: of dispatching their own: within-run repeats with the cache
    #: disabled, plus in-flight joins against a shared
    #: :class:`~repro.batch.workqueue.InflightRegistry` (batch mode).
    dedup_joins: int = 0
    #: Disk cache entries that existed but failed integrity checks.
    cache_corrupt_entries: int = 0
    #: Structured log of every failed attempt (see FailureRecord).
    failure_log: list[FailureRecord] = field(default_factory=list)


@dataclass(frozen=True)
class _BlockPlan:
    """Routing decision for one block."""

    trivial: bool
    key: str | None = None  # entry key (None for trivial blocks)
    seed: int = 0  # canonical synthesis seed


class BlockSynthesisExecutor:
    """Fans per-block synthesis out over a process pool, with caching.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) runs every block inline in
        the parent — same results, single process, easiest to debug.
    cache:
        Optional :class:`PoolCache`.  When given, blocks sharing an entry
        key synthesize once per run and may persist across runs; each
        baseline result is put as its job lands.
    hard_timeout:
        Hard per-block wall-clock cap in seconds.  Enforced via the
        future's result timeout when ``workers > 1`` and via the
        cooperative deadline (:mod:`repro.resilience.deadline`) on the
        inline path.  A block that exceeds it is retried (under the
        retry policy) and ultimately falls back to its exact pool.
    synthesize_fn:
        Override of the worker task, for testing/instrumentation.  Must
        be a module-level callable with the signature of
        :func:`_synthesize_solutions_task`.
    retry_policy:
        Optional :class:`RetryPolicy`.  ``None`` (the default) means one
        attempt per block — the executor's historical behaviour.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` whose
        scheduled faults fire around each synthesis attempt (tests/CI).
    validate:
        Health-check candidate sets from workers and the cache (on by
        default; see :mod:`repro.resilience.validation`).
    independent_validation:
        Harden those health checks into independent certification:
        every candidate's unitary is rebuilt through the certifier's
        own contraction path and must agree with the recorded
        artifacts.  Slower, so off by default; ignored when
        ``validate`` is off.
    worker_pool:
        Optional externally owned :class:`PersistentWorkerPool` (the
        batch driver shares one across every circuit of a sweep).
        ``None`` constructs a run-scoped pool on demand and shuts it
        down when the run finishes.
    inflight:
        Optional shared :class:`~repro.batch.workqueue.InflightRegistry`
        for cross-executor dedup: blocks whose entry key another
        executor already has in flight join that job instead of racing
        it to a cache miss.
    shm_transport:
        Ship worker results through checksummed shared-memory envelopes
        (:mod:`repro.batch.shm`) instead of pickling candidate arrays
        through the result pipe.  Ignored on the inline path.
    shm_min_bytes:
        Array-bytes threshold below which the shm transport falls back
        to an inline pickle (default ``DEFAULT_MIN_BYTES``).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: PoolCache | None = None,
        hard_timeout: float | None = None,
        synthesize_fn=None,
        retry_policy: RetryPolicy | None = None,
        fault_injector=None,
        validate: bool = True,
        independent_validation: bool = False,
        worker_pool: PersistentWorkerPool | None = None,
        inflight=None,
        shm_transport: bool = False,
        shm_min_bytes: int | None = None,
        sleep_fn=None,
        backoff_rng=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache = cache
        self.hard_timeout = hard_timeout
        self._synthesize_fn = synthesize_fn
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self.validate = validate
        self.independent_validation = independent_validation
        #: Externally owned pool (the batch driver shares one across
        #: circuits); None constructs a run-scoped pool on demand.
        self.worker_pool = worker_pool
        #: Shared :class:`~repro.batch.workqueue.InflightRegistry`, or
        #: None for solo runs (no cross-executor dedup).
        self.inflight = inflight
        #: Ship worker results through shared-memory envelopes
        #: (:mod:`repro.batch.shm`); ignored on the inline path.
        self.shm_transport = bool(shm_transport)
        self.shm_min_bytes = shm_min_bytes
        #: Injectable clock sleep for the retry backoff (tests pin the
        #: schedule under a fake clock); the backoff RNG is separate
        #: from every synthesis RNG, so jitter cannot perturb results.
        self._sleep = time.sleep if sleep_fn is None else sleep_fn
        self._backoff_rng = (
            np.random.default_rng() if backoff_rng is None else backoff_rng
        )

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
        task = (
            self._synthesize_fn
            if self._synthesize_fn is not None
            else _synthesize_solutions_task
        )
        policy = self.retry_policy or RetryPolicy(max_attempts=1)
        stats = BlockSynthesisStats(block_seconds=[0.0] * len(blocks))
        log = RetryLog()
        tracer = get_tracer()
        metrics = get_metrics()
        base_budget = getattr(config, "block_time_budget", None)
        cache_corrupt_before = (
            self.cache.corrupt_entries if self.cache is not None else 0
        )

        # Phase 1: plan. Canonicalize seeds per content key; decide, per
        # entry key, whether a synthesis job is needed.
        plans: list[_BlockPlan] = []
        canonical_seed: dict[str, int] = {}
        resolved: dict[str, list[SynthesisSolution]] = {}
        resolved_unitaries: dict[str, list] = {}
        jobs: dict[str, tuple[int, CircuitBlock, int]] = {}
        for index, (block, seed) in enumerate(zip(blocks, seeds)):
            if block.num_qubits == 1 or block.circuit.cnot_count() == 0:
                plans.append(_BlockPlan(trivial=True))
                continue
            fingerprint = leap_config_for_block(
                block.circuit.cnot_count(), config, seed=None
            ).fingerprint()
            content = content_key(block.unitary(), fingerprint)
            seed = canonical_seed.setdefault(content, seed)
            key = entry_key(content, seed)
            plans.append(_BlockPlan(trivial=False, key=key, seed=seed))
            if self.cache is not None:
                if key in resolved or key in jobs:
                    stats.cache_hits += 1  # within-run repeat
                    if tracer.is_enabled:
                        tracer.event("cache.hit", block=index, source="run")
                    if metrics.is_enabled:
                        metrics.inc("cache.hit")
                    continue
                cached = self.cache.get(key)
                if cached is not None and self.validate:
                    try:
                        validate_solutions(
                            block.unitary(),
                            cached,
                            independent=self.independent_validation,
                        )
                    except ValidationError as exc:
                        _note_failure(
                            log,
                            index,
                            0,
                            FAILURE_VALIDATION,
                            f"cache entry quarantined: {exc}",
                        )
                        cached = None
                if cached is not None:
                    resolved[key] = cached
                    stats.cache_hits += 1
                    if tracer.is_enabled:
                        tracer.event("cache.hit", block=index, source="disk")
                    if metrics.is_enabled:
                        metrics.inc("cache.hit")
                    continue
                jobs[key] = (index, block, seed)
            else:
                # Cache disabled: within-run repeats still dedup to one
                # job (the canonical seed makes their results identical
                # anyway); nothing is persisted.
                if key in jobs:
                    stats.dedup_joins += 1
                    if tracer.is_enabled:
                        tracer.event("dedup.hit", block=index, source="run")
                    if metrics.is_enabled:
                        metrics.inc("dedup.hits")
                    continue
                jobs[key] = (index, block, seed)
            stats.cache_misses += 1
            if metrics.is_enabled:
                metrics.inc("cache.miss")

        # Phase 2: execute the synthesis jobs, retrying under the policy.
        failures: dict[str, BaseException] = {}
        pending = dict(jobs)
        own_pool: PersistentWorkerPool | None = None
        pool_manager = self.worker_pool
        if self.workers > 1 and pool_manager is None and pending:
            # Run-scoped pool: constructed once, reused across retry
            # rounds, recycled only when a round marks it unhealthy
            # (hung or killed worker — see PersistentWorkerPool).
            own_pool = PersistentWorkerPool(self.workers)
            pool_manager = own_pool
        # One opaque token per run() call: the in-flight registry keys
        # claims by it, so a crashed run releases wholesale in `finally`.
        claim_token = object()
        try:
            for attempt in range(policy.max_attempts):
                if not pending:
                    break
                if attempt > 0:
                    stats.retries += len(pending)
                    if metrics.is_enabled:
                        metrics.inc("retry.attempts", len(pending))
                    if tracer.is_enabled:
                        for pending_key in pending:
                            tracer.event(
                                "retry.attempt",
                                block=pending[pending_key][0],
                                attempt=attempt,
                            )
                    # Full-jitter backoff before the round re-dispatches
                    # (one delay per round, not per block: the round's
                    # jobs fan out together anyway).  Affects wall time
                    # only; seeds and budgets are untouched.
                    delay = policy.backoff_seconds(attempt, self._backoff_rng)
                    if delay > 0:
                        if tracer.is_enabled:
                            tracer.event(
                                "retry.backoff",
                                attempt=attempt,
                                seconds=round(delay, 4),
                            )
                        if metrics.is_enabled:
                            metrics.observe("retry.backoff_seconds", delay)
                        self._sleep(delay)

                # Split this round into jobs we own (we dispatch them)
                # and jobs another executor has in flight (we join and
                # adopt their published result).
                owned = dict(pending)
                joined: dict[str, tuple] = {}
                if self.inflight is not None:
                    for key in list(owned):
                        entry = self.inflight.claim(key, claim_token)
                        if entry is not None:
                            joined[key] = (entry, owned.pop(key))

                def on_success(
                    key: str,
                    attempt: int = attempt,
                    owned: dict = owned,
                ) -> None:
                    # Fires as each job lands (not at round end), so a
                    # run killed mid-round has already published every
                    # finished block.  Only baseline-attempt results
                    # (attempt 0's seed and budget) are interchangeable
                    # with a solo, unfaulted run's, so only those are
                    # shared with joiners or put under the entry key.
                    baseline = policy.is_baseline_attempt(
                        jobs[key][2], attempt, base_budget
                    )
                    if self.inflight is not None and key in owned:
                        if baseline:
                            self.inflight.publish(
                                key,
                                claim_token,
                                resolved[key],
                                resolved_unitaries.get(key),
                            )
                        else:
                            self.inflight.fail(key, claim_token)
                    if baseline and self.cache is not None:
                        self.cache.put(key, resolved[key])

                def run_round(round_jobs, on_success=on_success, attempt=attempt):
                    if not round_jobs:
                        return []
                    if self.workers == 1:
                        return self._run_round_inline(
                            task, config, round_jobs, attempt, policy,
                            base_budget, resolved, stats, log, failures,
                            on_success,
                        )
                    return self._run_round_pool(
                        task, config, round_jobs, attempt, policy,
                        base_budget, resolved, resolved_unitaries, stats,
                        log, failures, on_success, pool_manager,
                    )

                succeeded = run_round(owned)
                if joined:
                    adopted, leftover = self._adopt_joined(
                        joined, policy, resolved, resolved_unitaries, stats,
                    )
                    succeeded += adopted
                    # A join that came back empty (owner failed, or its
                    # result was not publishable) falls back to this
                    # executor's own attempt in the *same* round, so
                    # retry/seed semantics match a solo run exactly.
                    succeeded += run_round(leftover)
                for key in succeeded:
                    del pending[key]
        finally:
            if self.inflight is not None:
                self.inflight.release(claim_token)
            if own_pool is not None:
                own_pool.shutdown()

        # Phase 3: assemble pools (parent process, block order).
        pools: list[BlockPool] = []
        for index, (block, plan) in enumerate(zip(blocks, plans)):
            if plan.trivial:
                pools.append(exact_pool(block))
                continue
            solutions = resolved.get(plan.key)
            if solutions is None:
                cause = failures.get(plan.key)
                reason = (
                    f"{type(cause).__name__ if cause else 'worker failure'}: "
                    f"{cause}"
                )
                warnings.warn(
                    f"block {index}: synthesis unavailable ({reason}); "
                    "falling back to the exact block",
                    RuntimeWarning,
                    stacklevel=2,
                )
                # The degradation itself is a structured outcome, not
                # just a warning: downstream consumers (CLI, artifacts,
                # trace) must be able to see *which* blocks shipped the
                # exact fallback and why.
                log.record(
                    index,
                    policy.max_attempts,
                    FAILURE_FALLBACK,
                    f"degraded to exact block after {policy.max_attempts} "
                    f"attempt(s): {reason}",
                )
                if tracer.is_enabled:
                    tracer.event(
                        "executor.fallback",
                        block=index,
                        attempts=policy.max_attempts,
                    )
                if metrics.is_enabled:
                    metrics.inc("synthesis.fallbacks")
                stats.fallback_blocks.append(index)
                pools.append(exact_pool(block))
                continue
            pool = assemble_pool(
                block, solutions, config, plan.seed,
                solution_unitaries=resolved_unitaries.get(plan.key),
            )
            pools.append(pool)

        stats.failure_log = log.records
        if self.cache is not None:
            stats.cache_corrupt_entries = (
                self.cache.corrupt_entries - cache_corrupt_before
            )
        return pools, stats

    # ------------------------------------------------------------------
    # Attempt rounds
    # ------------------------------------------------------------------
    def _attempt_config(self, config, policy: RetryPolicy, base_budget, attempt):
        budget = policy.attempt_budget(base_budget, attempt)
        if budget == base_budget:
            return config
        return _ScaledBudgetConfig(config, budget)

    def _run_round_inline(
        self,
        task,
        config,
        round_jobs: dict[str, tuple[int, CircuitBlock, int]],
        attempt: int,
        policy: RetryPolicy,
        base_budget,
        resolved,
        stats: BlockSynthesisStats,
        log: RetryLog,
        failures: dict[str, BaseException],
        on_success,
    ) -> list[str]:
        """Run one attempt round inline; returns the keys that succeeded."""
        attempt_config = self._attempt_config(config, policy, base_budget, attempt)
        timeout = policy.attempt_budget(self.hard_timeout, attempt)
        tracer = get_tracer()
        succeeded: list[str] = []
        for key, (index, block, seed) in round_jobs.items():
            attempt_seed = policy.attempt_seed(seed, attempt)
            try:
                # The span wraps synthesis *and* validation, so a block
                # that fails either way closes with status="error"; the
                # except clauses below still see the original exception.
                with tracer.span(
                    "synthesis.block",
                    block=index,
                    attempt=attempt,
                    seed=attempt_seed,
                ):
                    with block_deadline(timeout):
                        if self.fault_injector is not None:
                            self.fault_injector.on_synthesis_start(
                                index, attempt
                            )
                        solutions, elapsed = task(
                            block, attempt_config, attempt_seed
                        )
                    if self.fault_injector is not None:
                        solutions = self.fault_injector.corrupt_solutions(
                            index, attempt, solutions
                        )
                    if self.validate:
                        validate_solutions(
                            block.unitary(),
                            solutions,
                            independent=self.independent_validation,
                        )
            except BlockTimeoutError as exc:
                _note_failure(log, index, attempt, FAILURE_TIMEOUT, str(exc))
                failures[key] = exc
            except ValidationError as exc:
                _note_failure(log, index, attempt, FAILURE_VALIDATION, str(exc))
                failures[key] = exc
            except Exception as exc:
                _note_failure(
                    log, index, attempt, FAILURE_EXCEPTION,
                    f"{type(exc).__name__}: {exc}",
                )
                failures[key] = exc
            else:
                resolved[key] = solutions
                stats.block_seconds[index] = elapsed
                succeeded.append(key)
                on_success(key)
        return succeeded

    def _run_round_pool(
        self,
        task,
        config,
        round_jobs: dict[str, tuple[int, CircuitBlock, int]],
        attempt: int,
        policy: RetryPolicy,
        base_budget,
        resolved,
        resolved_unitaries,
        stats: BlockSynthesisStats,
        log: RetryLog,
        failures: dict[str, BaseException],
        on_success,
        pool_manager: PersistentWorkerPool,
    ) -> list[str]:
        """Run one attempt round over the persistent process pool.

        The pool outlives the round.  A round that observes a hard
        timeout (the hung worker still occupies its process) or a broken
        pool (killed worker) marks it unhealthy so the *next* submission
        gets a fresh pool; healthy pools — including ones whose workers
        merely raised — are reused across rounds and, in batch mode,
        across circuits.
        """
        attempt_config = self._attempt_config(config, policy, base_budget, attempt)
        timeout = policy.attempt_budget(self.hard_timeout, attempt)
        tracer = get_tracer()
        metrics = get_metrics()
        # When observability is on, ship the worker-instrumented wrapper
        # instead of the bare task; disabled runs keep the smaller pickle
        # and pay nothing.
        observed = tracer.is_enabled or metrics.is_enabled
        shm = self.shm_transport
        if shm:
            from repro.batch.shm import (
                DEFAULT_MIN_BYTES,
                decode_payload,
                shm_synthesis_task,
            )

            min_bytes = (
                DEFAULT_MIN_BYTES
                if self.shm_min_bytes is None
                else self.shm_min_bytes
            )
        succeeded: list[str] = []
        pool_manager.begin_round()
        futures = {}
        for key, (index, block, seed) in round_jobs.items():
            attempt_seed = policy.attempt_seed(seed, attempt)
            if observed:
                call = (
                    _observed_task, task, self.fault_injector,
                    index, attempt, block, attempt_config, attempt_seed,
                )
            elif self.fault_injector is not None:
                call = (
                    _faulted_task, task, self.fault_injector,
                    index, attempt, block, attempt_config, attempt_seed,
                )
            else:
                call = (task, block, attempt_config, attempt_seed)
            if shm:
                futures[key] = pool_manager.submit(
                    shm_synthesis_task, call[0], min_bytes, *call[1:]
                )
            else:
                futures[key] = pool_manager.submit(*call)
        for key, future in futures.items():
            index = round_jobs[key][0]
            unitaries = None
            try:
                payload = future.result(timeout=timeout)
                if shm:
                    payload, unitaries = decode_payload(payload)
                if observed:
                    solutions, elapsed, records, snapshot = payload
                    # Replay before validation: worker-side events
                    # must land in the trace even when the returned
                    # candidates are quarantined below.
                    tracer.replay(records)
                    metrics.merge(snapshot)
                else:
                    solutions, elapsed = payload
                if self.validate:
                    validate_solutions(
                        round_jobs[key][1].unitary(),
                        solutions,
                        independent=self.independent_validation,
                    )
            except FutureTimeoutError as exc:
                future.cancel()
                # The hung worker still occupies its process; flag the
                # pool so the next submission recycles it.
                pool_manager.mark_unhealthy()
                if shm:
                    # Should the abandoned task ever finish, unlink its
                    # segment instead of leaking it in /dev/shm.
                    future.add_done_callback(_discard_late_envelope)
                _note_failure(
                    log, index, attempt, FAILURE_TIMEOUT,
                    f"hard timeout after {timeout}s",
                )
                failures[key] = exc
            except BrokenExecutor as exc:  # worker process died
                pool_manager.mark_unhealthy()
                _note_failure(
                    log, index, attempt, FAILURE_EXCEPTION,
                    f"{type(exc).__name__}: {exc}",
                )
                failures[key] = exc
            except ValidationError as exc:
                _note_failure(
                    log, index, attempt, FAILURE_VALIDATION, str(exc)
                )
                failures[key] = exc
            except Exception as exc:  # worker raised
                _note_failure(
                    log, index, attempt, FAILURE_EXCEPTION,
                    f"{type(exc).__name__}: {exc}",
                )
                failures[key] = exc
            else:
                resolved[key] = solutions
                if unitaries is not None:
                    resolved_unitaries[key] = unitaries
                stats.block_seconds[index] = elapsed
                succeeded.append(key)
                on_success(key)
        return succeeded

    def _adopt_joined(
        self,
        joined: dict[str, tuple],
        policy: RetryPolicy,
        resolved,
        resolved_unitaries,
        stats: BlockSynthesisStats,
    ) -> tuple[list[str], dict[str, tuple[int, CircuitBlock, int]]]:
        """Adopt results published by other executors' in-flight jobs.

        Returns ``(adopted_keys, leftover_jobs)``.  Leftover jobs are
        joins whose owner failed (or published nothing usable); the
        caller re-dispatches them as this executor's own attempt in the
        same round.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        if self.hard_timeout is None:
            timeout = None
        else:
            # Generous: the owner may burn through its whole retry
            # budget before the claim resolves either way.  The owner's
            # `finally` release guarantees the event fires eventually.
            timeout = self.hard_timeout * max(policy.max_attempts, 1) + 60.0
        adopted: list[str] = []
        leftover: dict[str, tuple[int, CircuitBlock, int]] = {}
        for key, (entry, job) in joined.items():
            if self.inflight.wait_for(entry, timeout):
                resolved[key] = entry.solutions
                if entry.unitaries is not None:
                    resolved_unitaries[key] = entry.unitaries
                # Published results are baseline by construction, so
                # they are put under the plain entry key too: in the
                # daemon the owner may have filled another tenant's cache.
                if self.cache is not None:
                    self.cache.put(key, entry.solutions)
                stats.dedup_joins += 1
                if tracer.is_enabled:
                    tracer.event("dedup.adopt", block=job[0])
                if metrics.is_enabled:
                    metrics.inc("dedup.hits")
                adopted.append(key)
            else:
                leftover[key] = job
        return adopted, leftover
