"""Selection-engine benchmark: batched scorer vs. the seed scalar loop.

Builds a 14-block TFIM-8 partition with a two-candidate pool per block
(the exact original plus a one-CNOT truncation), then:

* freezes the pre-vectorization selection engine — scalar objective with
  per-block Python sums, ``hs_distance`` pair-loop similarity tables,
  and the odometer exhaustive search — and runs it to completion;
* runs the vectorized engine (`evaluate_batch` + chunked enumeration)
  on the same pools and asserts the selected choice vectors are
  identical;
* times both scorers over the full 2^14-point search space, and asserts
  that selection scored every exhaustive round's whole space through
  ``evaluate_batch`` with one scalar call per round.

An annealed case gives each block its exact circuit and two CNOT
truncations of it, a search space far above the exhaustive cutoff.  It
selects once with the compiled ``SelectionObjective.__call__`` and once
with the frozen per-call scorer of ``tests/objective_oracle.py`` in its
place, asserts identical selections, and records the microseconds per
scalar call of each, replayed over the compiled run's annealer points.

Results are recorded to ``BENCH_selection.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from conftest import print_table

from repro.algorithms import tfim
from repro.circuits import Circuit
from repro.core.annealing import DEFAULT_EXHAUSTIVE_CUTOFF, select_approximations
from repro.core.objective import SelectionObjective
from repro.core.pool import BlockPool, Candidate
from repro.core.similarity import are_similar
from repro.linalg import hs_distance
from repro.partition.scan import scan_partition
from repro.transpile.basis import lower_to_basis
from tests.objective_oracle import FrozenObjective

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_selection.json"

MAX_SAMPLES = 4
THRESHOLD_PER_BLOCK = 0.2


# ----------------------------------------------------------------------
# Frozen seed selection engine (pre-vectorization implementation)
# ----------------------------------------------------------------------

def _seed_tables(pools):
    tables = []
    for pool in pools:
        candidates = [c.unitary for c in pool.candidates]
        original = pool.original_unitary
        count = len(candidates)
        to_original = np.array([hs_distance(c, original) for c in candidates])
        table = np.zeros((count, count), dtype=bool)
        for i in range(count):
            table[i, i] = True
            for j in range(i + 1, count):
                mutual = hs_distance(candidates[i], candidates[j])
                table[i, j] = table[j, i] = are_similar(
                    mutual, to_original[i], to_original[j]
                )
        tables.append(table)
    return tables


class _SeedObjective:
    """The seed's scalar objective: per-block loops, left-to-right sums."""

    def __init__(self, pools, threshold, original_cnot_count, weight=0.5):
        self.pools = pools
        self.threshold = threshold
        self.original_cnot_count = original_cnot_count
        self.weight = weight
        self.selected = []
        self.tables = _seed_tables(pools)
        self._cnots = [pool.cnot_counts() for pool in pools]
        self._distances = [pool.distances() for pool in pools]
        self.num_blocks = len(pools)
        self.evaluations = 0

    def choice_bound(self, choice):
        return float(
            sum(self._distances[b][choice[b]] for b in range(self.num_blocks))
        )

    def choice_cnot_count(self, choice):
        return int(
            sum(self._cnots[b][choice[b]] for b in range(self.num_blocks))
        )

    def _similarity_fraction(self, choice, prior):
        hits = sum(
            1
            for b in range(self.num_blocks)
            if self.tables[b][int(choice[b]), int(prior[b])]
        )
        return hits / self.num_blocks

    def __call__(self, choice):
        self.evaluations += 1
        choice = np.asarray(choice, dtype=int)
        if self.choice_bound(choice) > self.threshold:
            return 1.0
        c_norm = self.choice_cnot_count(choice) / self.original_cnot_count
        if not self.selected:
            return c_norm
        total = sum(
            self._similarity_fraction(choice, prior)
            for prior in self.selected
        )
        m = total / len(self.selected)
        return self.weight * m + (1.0 - self.weight) * c_norm


def _seed_exhaustive_minimum(objective, sizes):
    """The seed's odometer loop (block 0 increments fastest)."""
    best_value = float("inf")
    best_choice = None
    indices = np.zeros(len(sizes), dtype=int)
    while True:
        value = objective(indices)
        if value < best_value:
            best_value = value
            best_choice = indices.copy()
        position = 0
        while position < len(sizes):
            indices[position] += 1
            if indices[position] < sizes[position]:
                break
            indices[position] = 0
            position += 1
        if position == len(sizes):
            break
    return best_choice


def _seed_select(objective, sizes, max_samples):
    """The seed's sequential selection loop on the exhaustive path."""
    choices = []
    objective.selected.clear()
    for _ in range(max_samples):
        choice = _seed_exhaustive_minimum(objective, sizes)
        if objective.choice_bound(choice) > objective.threshold:
            if choices:
                break
            choice = np.zeros(len(sizes), dtype=int)
        if any(np.array_equal(choice, prior) for prior in choices):
            break
        choices.append(choice)
        objective.selected.append(choice)
    return choices


# ----------------------------------------------------------------------
# Pool construction (no LEAP: truncated blocks as cheap approximations)
# ----------------------------------------------------------------------

def _truncated_variant(circuit: Circuit, dropped: int = 1) -> Circuit:
    """Prefix of ``circuit`` ending before its ``dropped``-th last CNOT."""
    kept = []
    cnots_seen = 0
    total = circuit.cnot_count()
    for op in circuit.operations:
        if op.name == "cx":
            cnots_seen += 1
            if cnots_seen > total - dropped:
                break
        kept.append(op)
    return Circuit(circuit.num_qubits, kept)


def _build_pools(blocks, levels: int = 1) -> list[BlockPool]:
    """The exact block plus ``levels`` CNOT truncations of it."""
    pools = []
    for block in blocks:
        original_unitary = block.unitary()
        pool = BlockPool(block=block, original_unitary=original_unitary)
        pool.candidates.append(
            Candidate(
                unitary=original_unitary,
                distance=0.0,
                cnot_count=block.circuit.cnot_count(),
                source=block.circuit,
            )
        )
        for dropped in range(1, levels + 1):
            variant = _truncated_variant(block.circuit, dropped)
            unitary = variant.unitary()
            pool.candidates.append(
                Candidate(
                    unitary=unitary,
                    distance=hs_distance(unitary, original_unitary),
                    cnot_count=variant.cnot_count(),
                    source=variant,
                )
            )
        pools.append(pool)
    return pools


def _record(entries: dict) -> None:
    """Merge ``entries`` into ``BENCH_selection.json``."""
    record = (
        json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    )
    record.update(entries)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")


def test_selection_scaling_smoke():
    baseline = lower_to_basis(tfim(8, steps=2).without_measurements())
    blocks = scan_partition(baseline, 2)
    pools = _build_pools(blocks)
    num_blocks = len(pools)
    assert num_blocks >= 12
    sizes = [pool.size for pool in pools]
    space = int(np.prod(sizes))
    threshold = THRESHOLD_PER_BLOCK * num_blocks
    original_cnots = baseline.cnot_count()

    # --- Selected choices: frozen seed engine vs vectorized engine -----
    seed_objective = _SeedObjective(pools, threshold, original_cnots)
    start = time.perf_counter()
    seed_choices = _seed_select(seed_objective, sizes, MAX_SAMPLES)
    seed_select_seconds = time.perf_counter() - start

    objective = SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
    )
    start = time.perf_counter()
    result = select_approximations(objective, max_samples=MAX_SAMPLES, seed=0)
    new_select_seconds = time.perf_counter() - start

    choices_identical = len(seed_choices) == len(result.choices) and all(
        np.array_equal(a, b) for a, b in zip(seed_choices, result.choices)
    )
    assert choices_identical

    # --- Objective-evaluation throughput: seed scalar loop vs batched --
    # Score the full search space with one prior selected, so the
    # similarity term is exercised alongside the bound and CNOT gathers.
    strides = np.concatenate(([1], np.cumprod(sizes[:-1])))
    ks = np.arange(space)
    all_choices = (ks[:, None] // strides[None, :]) % np.array(sizes)[None, :]

    prior = result.choices[0]
    seed_objective.selected = [prior]
    objective.selected = [prior]

    # Warm both paths (allocator/cache effects), then time: the scalar
    # loop once over the full space, the batched scorer best-of-3.
    for choice in all_choices[:64]:
        seed_objective(choice)
    objective.evaluate_batch(all_choices[:64])

    start = time.perf_counter()
    scalar_values = np.array(
        [seed_objective(choice) for choice in all_choices]
    )
    scalar_seconds = time.perf_counter() - start

    batched_seconds = np.inf
    for _ in range(3):
        start = time.perf_counter()
        batched_values = objective.evaluate_batch(all_choices)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    throughput_speedup = scalar_seconds / batched_seconds

    assert np.array_equal(scalar_values, batched_values)

    rows = [
        ["seed scalar loop", f"{space}", f"{scalar_seconds:.3f}",
         f"{space / scalar_seconds:,.0f}", ""],
        ["evaluate_batch", f"{space}", f"{batched_seconds:.3f}",
         f"{space / batched_seconds:,.0f}", f"{throughput_speedup:.1f}x"],
        ["seed exhaustive selection", "", f"{seed_select_seconds:.3f}", "", ""],
        ["vectorized selection", "", f"{new_select_seconds:.3f}", "",
         f"{seed_select_seconds / new_select_seconds:.1f}x"],
    ]
    print_table(
        f"Selection engine (TFIM-8, {num_blocks} blocks, {space} points)",
        ["path", "points", "seconds", "evals/s", "speedup"],
        rows,
    )

    # The throughput the speed-up reflects, as a count instead of a clock:
    # every exhaustive round scores its whole space through
    # evaluate_batch and makes one scalar call, for the winner's value.
    assert space <= DEFAULT_EXHAUSTIVE_CUTOFF
    assert result.scalar_evaluations == result.annealer_runs
    assert result.batched_evaluations == result.annealer_runs * space

    _record(
        {
                "circuit": "tfim(8, steps=2), max_block_qubits=2",
                "num_blocks": num_blocks,
                "search_space": space,
                "threshold": threshold,
                "scalar_eval_seconds": scalar_seconds,
                "batched_eval_seconds": batched_seconds,
                "scalar_evals_per_second": space / scalar_seconds,
                "batched_evals_per_second": space / batched_seconds,
                "throughput_speedup": throughput_speedup,
                "seed_selection_seconds": seed_select_seconds,
                "vectorized_selection_seconds": new_select_seconds,
                "selection_speedup": seed_select_seconds / new_select_seconds,
                "selected_choices_identical": bool(choices_identical),
                "selected_cnot_counts": [
                    int(count) for count in result.cnot_counts
                ],
                "objective_evaluations": {
                    "scalar": result.scalar_evaluations,
                    "batched": result.batched_evaluations,
                },
        }
    )


class _RecordingObjective(SelectionObjective):
    """The compiled objective, keeping each scalar point and its priors."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.points: list[tuple[np.ndarray, int]] = []

    def __call__(self, x):
        self.points.append((np.array(x, dtype=float), len(self.selected)))
        return super().__call__(x)


def _us_per_call(score, objective, points, choices) -> float:
    """Best-of-3 microseconds per call of ``score`` over ``points``."""
    best = np.inf
    for _ in range(3):
        elapsed = 0.0
        for x, num_priors in points:
            objective.selected = list(choices[:num_priors])
            start = time.perf_counter()
            score(x)
            elapsed += time.perf_counter() - start
        best = min(best, elapsed)
    return 1e6 * best / len(points)


def test_annealed_selection_compiled_vs_oracle(monkeypatch):
    baseline = lower_to_basis(tfim(8, steps=2).without_measurements())
    pools = _build_pools(scan_partition(baseline, 2), levels=2)
    sizes = [pool.size for pool in pools]
    space = int(np.prod(sizes))
    assert space > DEFAULT_EXHAUSTIVE_CUTOFF  # so both runs anneal
    threshold = THRESHOLD_PER_BLOCK * len(pools)
    original_cnots = baseline.cnot_count()

    def select(objective):
        start = time.perf_counter()
        result = select_approximations(
            objective, max_samples=MAX_SAMPLES, seed=0
        )
        return result, time.perf_counter() - start

    compiled = _RecordingObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
    )
    result, compiled_seconds = select(compiled)
    frozen_objective = SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
    )
    oracle = FrozenObjective(frozen_objective)
    with monkeypatch.context() as patch:
        patch.setattr(SelectionObjective, "__call__", lambda self, x: oracle(x))
        frozen, frozen_seconds = select(frozen_objective)

    identical = (
        result.objective_values == frozen.objective_values
        and result.scalar_evaluations == frozen.scalar_evaluations
        and len(result.choices) == len(frozen.choices)
        and all(np.array_equal(a, b) for a, b in zip(result.choices, frozen.choices))
    )
    assert identical

    # Replay the compiled run's points through both scorers, each
    # against the priors that were selected when the point was scored.
    points = compiled.points
    replay = SelectionObjective(
        pools=pools, threshold=threshold, original_cnot_count=original_cnots
    )
    compiled_us = _us_per_call(replay, replay, points, result.choices)
    oracle_us = _us_per_call(FrozenObjective(replay), replay, points, result.choices)

    print_table(
        f"Annealed selection (TFIM-8, {len(pools)} blocks, {space} points)",
        ["scorer", "scalar calls", "us/call", "selection s", "speedup"],
        [
            ["frozen per-call oracle", f"{frozen.scalar_evaluations}",
             f"{oracle_us:.1f}", f"{frozen_seconds:.3f}", ""],
            ["compiled __call__", f"{result.scalar_evaluations}",
             f"{compiled_us:.1f}", f"{compiled_seconds:.3f}",
             f"{oracle_us / compiled_us:.1f}x"],
        ],
    )
    _record(
        {
            "annealed": {
                "circuit": "tfim(8, steps=2), max_block_qubits=2, "
                "exact block + 2 CNOT truncations",
                "num_blocks": len(pools),
                "search_space": space,
                "threshold": threshold,
                "scalar_evaluations": result.scalar_evaluations,
                "selected_cnot_counts": [int(c) for c in result.cnot_counts],
                "selected_choices_identical": bool(identical),
                "oracle_us_per_scalar_call": oracle_us,
                "compiled_us_per_scalar_call": compiled_us,
                "scalar_call_speedup": oracle_us / compiled_us,
                "oracle_selection_seconds": frozen_seconds,
                "compiled_selection_seconds": compiled_seconds,
            }
        }
    )
