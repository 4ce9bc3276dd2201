"""The end-to-end QUEST pipeline (paper Fig. 2).

``run_quest(circuit, config)`` executes the three steps:

1. **Partition** the (measurement-free, basis-lowered) circuit into
   blocks of at most ``max_block_qubits`` qubits with the scan
   partitioner.
2. **Synthesize** an approximation pool per block with the modified LEAP
   compiler, collecting the best circuits at every CNOT count; the
   original block always joins its pool as the distance-zero fallback.
3. **Select** up to M dissimilar low-CNOT full-circuit approximations
   with the dual-annealing engine under the summed-distance threshold,
   and stitch each selection into a runnable circuit.

The result carries per-step wall times (Fig. 12), read from the run's
spans, and the Sec. 3.8 bound of every selected approximation.
:func:`result_payload` is its one serialized form: the CLI writes it to
disk and the daemon returns it.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.qasm import circuit_to_qasm
from repro.core.annealing import SelectionResult, select_approximations
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool
from repro.exceptions import SelectionError
from repro.observability import STAGE_SPANS, Record, counter_property, get_record, use_record
from repro.parallel.executor import BlockSynthesisExecutor
from repro.parallel.substrate import open_substrate
from repro.partition.blocks import CircuitBlock, stitch_blocks
from repro.partition.scan import scan_partition
from repro.resilience.retry import FAILURE_FALLBACK, FailureRecord
from repro.transpile.basis import lower_to_basis
from repro.verify.certifier import (
    CertificationReport,
    certify_result,
    claims_for_choice,
    claims_to_manifest,
)
from repro.verify.independent import DEFAULT_MAX_EXACT_QUBITS

#: Hard per-block timeout is this multiple of ``block_time_budget`` (plus
#: a grace constant) — generous, because a timed-out attempt discards the
#: block's whole pool: it should fire on a stuck attempt, never on a
#: merely slow host.
_HARD_TIMEOUT_FACTOR = 4.0
_HARD_TIMEOUT_GRACE = 30.0

#: The count fields of :class:`QuestConfig`, each with its least value.
_COUNT_FLOORS = {
    "max_block_qubits": 2,
    "max_samples": 1,
    "max_layers_per_block": 1,
    "solutions_per_layer": 1,
    "instantiation_starts": 1,
    "max_optimizer_iterations": 1,
    "sphere_variants_per_count": 0,
    "workers": 1,
    "retry_attempts": 1,
    "certify_max_exact_qubits": 1,
}


@dataclass
class QuestConfig:
    """Knobs of the QUEST pipeline.

    ``threshold_per_block`` implements the paper's scalability rule: the
    full-circuit threshold grows proportionally to the number of blocks
    (Sec. 4.1), so block pools stay shallow as circuits grow.
    """

    max_block_qubits: int = 3
    max_samples: int = 16
    threshold_per_block: float = 0.10
    max_layers_per_block: int = 8
    solutions_per_layer: int = 3
    instantiation_starts: int = 2
    max_optimizer_iterations: int = 200
    seed: int | None = None
    #: Per-block synthesis wall-clock budget in seconds (None = unbounded).
    #: It bounds an attempt, never shapes its result: an attempt running
    #: past the hard timeout (4 x this budget + 30 s) fails, and a block
    #: whose attempts all fail falls back to its exact pool.
    block_time_budget: float | None = 30.0
    #: Epsilon-sphere variants added per kept CNOT count (0 disables).
    sphere_variants_per_count: int = 4
    #: Worker processes for block synthesis (1 = inline, no process pool).
    workers: int = 1
    #: Size bound on the store (entries, LRU-evicted by mtime; None =
    #: unbounded).  Only meaningful with ``store_dir``; applied per
    #: namespace.
    cache_max_entries: int | None = None
    #: Root of the sharded multi-tenant artifact store
    #: (:class:`repro.store.ArtifactStore`), the one switch for
    #: persisting block solutions across runs (None = nothing persists).
    #: A killed run rerun over the same store resumes from every block
    #: it published; several daemon replicas may point at one store
    #: root and share published synthesis results.
    store_dir: str | None = None
    #: Tenant namespace inside the artifact store; entries of different
    #: namespaces never mix even when their content keys collide.
    namespace: str = "default"
    #: Synthesis attempts per block before the exact-pool downgrade
    #: (1 = no retries).  Every attempt reruns the block's seed under the
    #: same config, so a block that recovers is bit-identical to a clean
    #: run's.
    retry_attempts: int = 2
    #: Independently certify every selected approximation after
    #: stitching (see :mod:`repro.verify`): per-block epsilon claims are
    #: re-derived from unitaries rebuilt from the emitted circuits, and
    #: the whole-circuit distance is checked against the claimed total.
    #: Reports land in ``QuestResult.certifications``; a violation never
    #: raises.
    certify: bool = False
    #: Widest circuit the post-run certifier diffs exactly; wider ones
    #: fall to the random-stimulus regime.  An exact diff wider than
    #: :data:`~repro.sim.unitary.MAX_UNITARY_QUBITS` raises
    #: :class:`~repro.exceptions.SimulationError`.
    certify_max_exact_qubits: int = DEFAULT_MAX_EXACT_QUBITS

    def __post_init__(self) -> None:
        """Refuse a count below its floor, a negative or non-finite
        threshold or budget, a seed that is neither None nor an integer
        >= 0, or a non-bool ``certify``, with :class:`ValueError`."""
        for name, floor in _COUNT_FLOORS.items():
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < floor
            ):
                raise ValueError(
                    f"QuestConfig.{name} must be an integer >= {floor}, "
                    f"got {value!r}"
                )
        budgets = {"threshold_per_block": self.threshold_per_block}
        if self.block_time_budget is not None:
            budgets["block_time_budget"] = self.block_time_budget
        for name, value in budgets.items():
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value < 0
            ):
                raise ValueError(
                    f"QuestConfig.{name} must be a finite number >= 0, "
                    f"got {value!r}"
                )
        if self.seed is not None and (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, numbers.Integral)
            or self.seed < 0
        ):
            raise ValueError(
                "QuestConfig.seed must be None or an integer >= 0, "
                f"got {self.seed!r}"
            )
        if not isinstance(self.certify, bool):
            raise ValueError(f"QuestConfig.certify must be a bool, got {self.certify!r}")


@dataclass
class QuestTimings:
    """Per-step wall times (the Fig. 12 breakdown), read from the spans
    of the run's record (:meth:`read_stages`)."""

    partition_seconds: float = 0.0
    synthesis_seconds: float = 0.0
    #: Wall time of the selection phase (Fig. 12's "annealing" bar).
    selection_seconds: float = 0.0
    #: Per-block seconds: each block's successful ``synthesis.block``
    #: span, timed where it ran; 0.0 for trivial blocks, cache hits and
    #: joins.  With ``workers > 1`` the entries overlap in wall time, so
    #: their sum can exceed ``synthesis_seconds``.
    block_synthesis_seconds: list[float] = field(default_factory=list)
    #: Accumulated seconds spent evaluating the selected ensemble under a
    #: noise model: the ``quest.noisy_eval`` spans of
    #: :meth:`QuestResult.noisy_ensemble`.  Post-pipeline work (the
    #: paper's Sec. 5 evaluation loop), so it is tracked separately from
    #: the three pipeline phases and excluded from ``total_seconds``.
    noisy_eval_seconds: float = 0.0
    #: Wall time of the optional post-run certification stage
    #: (``QuestConfig.certify``); a guardrail, not a pipeline phase, so
    #: it is excluded from ``total_seconds`` like noisy evaluation.
    certify_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total pipeline time.

        ``synthesis_seconds`` is the wall time of the whole synthesis
        phase and already covers every per-block entry, so the total is
        the sum of the three phase times regardless of worker count.
        """
        return (
            self.partition_seconds
            + self.synthesis_seconds
            + self.selection_seconds
        )

    def read_stages(self, metrics: dict) -> None:
        """Set each stage's seconds to the total of its span
        (:data:`~repro.observability.STAGE_SPANS`) in a record snapshot."""
        histograms = metrics["histograms"]
        for stage, span in STAGE_SPANS.items():
            if span in histograms:
                setattr(self, f"{stage}_seconds", histograms[span]["sum"])


@dataclass
class QuestResult:
    """Everything the pipeline produced for one input circuit."""

    original: Circuit
    baseline: Circuit
    blocks: list[CircuitBlock] = field(default_factory=list)
    pools: list[BlockPool] = field(default_factory=list)
    selection: SelectionResult = field(default_factory=SelectionResult)
    circuits: list[Circuit] = field(default_factory=list)
    threshold: float = 0.0
    timings: QuestTimings = field(default_factory=QuestTimings)
    #: Structured log of every failed synthesis attempt (block index,
    #: attempt, failure kind, exception text); empty on a clean run.
    failure_log: list[FailureRecord] = field(default_factory=list)
    #: Snapshot of the run's record (counters / gauges / histograms; see
    #: :mod:`repro.observability.trace`), dumped by the CLI via
    #: ``--metrics-json``.
    metrics: dict = field(default_factory=dict)
    #: Independent certification report per selected approximation
    #: (same order as ``circuits``); populated only when
    #: ``QuestConfig.certify`` is set.
    certifications: list[CertificationReport] = field(default_factory=list)

    #: Read-only views of ``metrics``, the run's one record of counts:
    #: blocks planned without a synthesis job (within-run repeats and
    #: store hits, which include every block a killed run published) vs.
    #: jobs planned, attempts beyond each block's first, planned jobs
    #: another run's result served through the shared in-flight
    #: registry, store entries this run loaded that failed integrity
    #: checks, and choice vectors scored one at a time vs. in batches.
    cache_hits = counter_property("cache.hit")
    cache_misses = counter_property("cache.miss")
    retries = counter_property("retry.attempts")
    dedup_joins = counter_property("dedup.hits")
    cache_corrupt_entries = counter_property("cache.corrupt_entries")
    scalar_evals = counter_property("selection.scalar_evals")
    batch_evals = counter_property("selection.batch_evals")

    @property
    def synthesis_fallbacks(self) -> list[int]:
        """Blocks that shipped their exact singleton pool after every
        attempt failed: the ``fallback`` records of ``failure_log``."""
        return [r.block_index for r in self.failure_log if r.kind == FAILURE_FALLBACK]

    @property
    def original_cnot_count(self) -> int:
        """CNOTs in the basis-lowered original circuit."""
        return self.baseline.cnot_count()

    @property
    def cnot_counts(self) -> list[int]:
        """CNOT count of each selected approximation."""
        return [c.cnot_count() for c in self.circuits]

    @property
    def best_cnot_count(self) -> int:
        """CNOTs of the cheapest selected approximation."""
        if not self.circuits:
            raise SelectionError(
                "selection produced no circuits; best_cnot_count is undefined"
            )
        return min(self.cnot_counts)

    @property
    def cnot_reduction(self) -> float:
        """Mean fractional CNOT reduction across the ensemble."""
        if not self.circuits:
            raise SelectionError(
                "selection produced no circuits; cnot_reduction is undefined"
            )
        original = self.original_cnot_count
        if original == 0:
            return 0.0
        mean_cnots = float(np.mean(self.cnot_counts))
        return 1.0 - mean_cnots / original

    @property
    def objective_evaluations(self) -> int:
        """Choice vectors scored during selection (scalar + batched)."""
        return self.scalar_evals + self.batch_evals

    @property
    def certified(self) -> bool | None:
        """Whether every selected approximation certified clean.

        ``None`` when certification did not run
        (``QuestConfig.certify`` off).
        """
        if not self.certifications:
            return None
        return all(report.ok for report in self.certifications)

    def summary(self) -> str:
        """One-line human-readable result summary."""
        text = (
            f"{len(self.circuits)} approximations, CNOTs "
            f"{self.original_cnot_count} -> {sorted(self.cnot_counts)} "
            f"({100 * self.cnot_reduction:.0f}% mean reduction); "
            f"selection scored {self.objective_evaluations} choices "
            f"({self.scalar_evals} scalar + {self.batch_evals} batched) "
            f"in {self.timings.selection_seconds:.2f}s"
        )
        if self.retries or self.failure_log:
            text += (
                f"; {self.retries} retried attempt(s), "
                f"{len(self.failure_log)} logged failure(s)"
            )
        if self.certifications:
            passed = sum(1 for report in self.certifications if report.ok)
            verdict = "CERTIFIED" if self.certified else "VIOLATED"
            text += (
                f"; certification {verdict} "
                f"({passed}/{len(self.certifications)} clean)"
            )
        return text

    def noisy_ensemble(
        self,
        noise,
        rng: np.random.Generator | int | None = None,
        engine: str = "auto",
    ) -> np.ndarray:
        """Averaged noisy output distribution of the selected ensemble.

        Evaluates every selected approximation under ``noise`` and
        returns the pointwise mean — the quantity the paper compares
        against the ideal distribution in Sec. 5.  ``engine`` (one of
        :data:`repro.noise.NOISE_ENGINES`, resolved by
        :func:`repro.noise.resolve_engine`) picks the evaluator: ``ptm``
        contracts the whole ensemble as one batched superoperator pass;
        ``trajectories`` evaluates circuit by circuit via
        :func:`repro.noise.noisy_distribution`, each from
        :data:`repro.noise.trajectories.TRAJECTORIES` samples.  The
        duration of its ``quest.noisy_eval`` span is accumulated into
        ``timings.noisy_eval_seconds``.
        """
        from repro.metrics.distances import average_distributions
        from repro.noise import (
            noisy_distribution,
            resolve_engine,
            run_ptm_ensemble,
        )
        from repro.noise.trajectories import TRAJECTORIES

        if not self.circuits:
            raise SelectionError("no selected circuits to evaluate")
        engine = resolve_engine(engine, self.baseline.num_qubits)
        rng = np.random.default_rng(rng)
        record = get_record()
        with record.span(
            "quest.noisy_eval",
            circuits=len(self.circuits),
            trajectories=TRAJECTORIES,
            engine=engine,
        ) as span:
            if engine == "ptm":
                # One batched contraction over the whole ensemble: the
                # selected approximations share block structure, so they
                # collapse into a handful of PTM batch groups.
                distributions = list(run_ptm_ensemble(self.circuits, noise))
            else:
                distributions = [
                    noisy_distribution(circuit, noise, rng=rng, engine=engine)
                    for circuit in self.circuits
                ]
            averaged = average_distributions(distributions)
        self.timings.noisy_eval_seconds += span.duration
        record.inc("noisy_eval.circuits", len(self.circuits))
        return averaged


def result_payload(result: QuestResult, config: QuestConfig) -> dict:
    """The one serialized form of a compile, JSON-ready: what the daemon
    returns and every CLI front end writes.  Per selected circuit it
    holds the QASM, choice vector, bound, CNOT count and Σε claims
    manifest (paper Sec. 3.8), which ``verify-run`` certifies from the
    files alone; ``degraded`` says a block shipped its exact fallback.
    """
    return {
        "circuits": [circuit_to_qasm(c) for c in result.circuits],
        "claims": [
            claims_to_manifest(
                claims_for_choice(result.pools, choice),
                block_qubits=config.max_block_qubits,
            )
            for choice in result.selection.choices
        ],
        "choices": [[int(i) for i in choice] for choice in result.selection.choices],
        "bounds": [float(b) for b in result.selection.bounds],
        "cnot_counts": list(result.cnot_counts),
        "original_cnot_count": result.original_cnot_count,
        "threshold": float(result.threshold),
        "degraded": bool(result.synthesis_fallbacks),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "dedup_joins": result.dedup_joins,
        "summary": result.summary(),
    }


def _draw_block_seeds(
    rng: np.random.Generator, num_blocks: int
) -> list[int]:
    """Draw one synthesis seed per block, up front and in block order.

    Seeds used to be drawn lazily inside the synthesis loop, which tied
    every block's seed to the order the loop happened to run in — any
    reordering (and any parallel dispatch) would silently change results.
    Drawing the whole stream here pins seed ``i`` to block ``i`` forever.
    """
    return [int(rng.integers(2**31 - 1)) for _ in range(num_blocks)]


def run_quest(
    circuit: Circuit,
    config: QuestConfig | None = None,
    *,
    fault_injector=None,
    shared=None,
) -> QuestResult:
    """Run the full QUEST pipeline on ``circuit``.

    The input may contain measurements; they are stripped for synthesis
    (approximations are measurement-free, like the paper's artifacts —
    measurement is appended by whoever runs them).

    Resume is a store hit: with ``config.store_dir`` every block's
    solutions are published durably as its job lands, so a run killed
    mid-synthesis and rerun over the same store synthesizes only the
    blocks that had not finished, bit-identically to an uninterrupted
    run.  A changed circuit or config maps to different content keys
    and simply misses.  ``fault_injector`` deterministically injects
    faults for testing (see :mod:`repro.resilience.faults`).

    The run counts into a fresh :class:`~repro.observability.Record`
    that shares the ambient record's sink: a caller traces a run by
    installing a record with a sink (``with
    use_record(Record(JsonlSink(path))): run_quest(...)``), which then
    receives a span per pipeline phase plus the inner synthesis and
    selection events.  Recording never touches an RNG, so results are
    bit-identical traced or not.  The run's counts and span times are
    snapshotted into ``QuestResult.metrics``, which ``timings`` reads,
    and, raised or not, merged into the ambient record.

    ``shared`` is the :class:`~repro.parallel.substrate.Substrate` of a
    batch or daemon, whose worker pool, store and in-flight registry
    the run reuses; without it the run opens a private one from
    ``config`` and closes it when it returns.  Sharing never changes
    results: the dedup key pins the synthesis seed, so a shared run's
    selections stay bit-identical to a solo run's.
    """
    config = config or QuestConfig()
    enclosing = get_record()
    record = Record(enclosing.sink)
    try:
        with use_record(record), record.span(
            "quest.run", qubits=circuit.num_qubits, workers=config.workers
        ), (
            nullcontext(shared) if shared is not None else open_substrate(config)
        ) as substrate:
            result = _run_pipeline(circuit, config, fault_injector, record, substrate)
    finally:
        snapshot = record.snapshot()
        enclosing.merge(snapshot)
    result.metrics = snapshot
    result.timings.read_stages(snapshot)
    return result


def _run_pipeline(
    circuit: Circuit,
    config: QuestConfig,
    fault_injector,
    record: Record,
    substrate,
) -> QuestResult:
    """The pipeline body; runs with ``record`` the ambient record."""
    rng = np.random.default_rng(config.seed)
    baseline = lower_to_basis(circuit.without_measurements())
    if baseline.cnot_count() == 0:
        raise SelectionError("circuit has no CNOTs; nothing for QUEST to reduce")

    result = QuestResult(original=circuit, baseline=baseline)

    with record.span("quest.partition"):
        result.blocks = scan_partition(baseline, config.max_block_qubits)
    record.gauge("partition.blocks", len(result.blocks))

    with record.span("quest.synthesis", blocks=len(result.blocks)):
        block_seeds = _draw_block_seeds(rng, len(result.blocks))
        executor = BlockSynthesisExecutor(
            substrate,
            hard_timeout=(
                None
                if config.block_time_budget is None
                else _HARD_TIMEOUT_FACTOR * config.block_time_budget
                + _HARD_TIMEOUT_GRACE
            ),
            max_attempts=config.retry_attempts,
            fault_injector=fault_injector,
        )
        result.pools, synthesis_stats = executor.run(
            result.blocks, config, block_seeds
        )
    result.failure_log = synthesis_stats.failure_log
    result.timings.block_synthesis_seconds = synthesis_stats.block_seconds

    result.threshold = config.threshold_per_block * len(result.blocks)
    objective = SelectionObjective(
        pools=result.pools,
        threshold=result.threshold,
        original_cnot_count=baseline.cnot_count(),
    )
    with record.span("quest.selection", blocks=len(result.pools)):
        result.selection = select_approximations(
            objective,
            max_samples=config.max_samples,
            seed=int(rng.integers(2**31 - 1)),
        )

    with record.span("quest.stitch", circuits=result.selection.num_selected):
        for choice in result.selection.choices:
            chosen_blocks = [
                pool.block.with_circuit(pool.candidates[int(index)].circuit)
                for pool, index in zip(result.pools, choice)
            ]
            result.circuits.append(
                stitch_blocks(chosen_blocks, baseline.num_qubits)
            )

    if config.certify:
        with record.span("quest.certify", circuits=len(result.circuits)):
            result.certifications = certify_result(
                result,
                block_qubits=config.max_block_qubits,
                max_exact_qubits=config.certify_max_exact_qubits,
                seed=config.seed,
            )
            for index, report in enumerate(result.certifications):
                record.event(
                    "certify.passed" if report.ok else "certify.failed",
                    circuit=index,
                    regime=report.regime,
                    claimed_total=report.claimed_total,
                    first_failed_block=report.first_failed_block,
                )
    return result
