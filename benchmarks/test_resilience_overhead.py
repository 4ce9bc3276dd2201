"""Smoke benchmark: what resilience costs — and what resume saves.

Runs the same 5-qubit Trotterized TFIM circuit through QUEST four ways —
baseline (no store, validation on), validation off (the executor's
``validate_solutions`` replaced by a no-op), a cold run over a
``store_dir``, and a rerun over that store (the resume) — and records
the timings to ``BENCH_resilience.json`` at the repo root.  Asserts the
layer's two core claims:

* all four modes produce identical selections (the store and validation
  are observers, not participants), and
* the resumed run synthesizes nothing (every nontrivial block is a store
  hit) and spends less time in synthesis than the cold run.

The store's publish overhead itself (encode + fsync per entry) is
recorded but only sanity-checked, not asserted small: at bench scale
blocks take fractions of a second, so fsync latency is a visible
fraction in a way it never is on real multi-minute blocks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import print_table

import repro.parallel.executor as executor_module
from repro import QuestConfig, run_quest
from repro.algorithms import tfim

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

#: Mirrors BENCH_parallel's scale: heavy enough that synthesis dominates.
SCALING_CONFIG = dict(
    seed=2022,
    max_samples=4,
    max_block_qubits=2,
    threshold_per_block=0.25,
    max_layers_per_block=3,
    solutions_per_layer=3,
    instantiation_starts=2,
    max_optimizer_iterations=120,
    annealing_maxiter=80,
    block_time_budget=20.0,
    sphere_variants_per_count=2,
)


def _timed_run(circuit, **overrides):
    config = QuestConfig(**{**SCALING_CONFIG, **overrides})
    start = time.perf_counter()
    result = run_quest(circuit, config)
    return result, time.perf_counter() - start


def test_resilience_overhead_smoke(tmp_path, monkeypatch):
    circuit = tfim(5, steps=2)

    baseline, baseline_wall = _timed_run(circuit)
    with monkeypatch.context() as patch:
        patch.setattr(
            executor_module, "validate_solutions", lambda *a, **k: None
        )
        unvalidated, unvalidated_wall = _timed_run(circuit)
    store = str(tmp_path / "store")
    cold, cold_wall = _timed_run(circuit, store_dir=store)
    resumed, resumed_wall = _timed_run(circuit, store_dir=store)

    rows = [
        ["baseline", f"{baseline_wall:.2f}",
         f"{baseline.timings.synthesis_seconds:.2f}", baseline.cache_hits],
        ["validation off", f"{unvalidated_wall:.2f}",
         f"{unvalidated.timings.synthesis_seconds:.2f}",
         unvalidated.cache_hits],
        ["store cold", f"{cold_wall:.2f}",
         f"{cold.timings.synthesis_seconds:.2f}", cold.cache_hits],
        ["resumed", f"{resumed_wall:.2f}",
         f"{resumed.timings.synthesis_seconds:.2f}", resumed.cache_hits],
    ]
    print_table(
        "Resilience overhead (TFIM-5, 2 Trotter steps)",
        ["mode", "wall s", "synthesis s", "cache hits"],
        rows,
    )

    # The store and validation never change results.
    signature = [
        baseline.cnot_counts, baseline.selection.bounds,
        [tuple(int(i) for i in c) for c in baseline.selection.choices],
    ]
    for other in (unvalidated, cold, resumed):
        assert [
            other.cnot_counts, other.selection.bounds,
            [tuple(int(i) for i in c) for c in other.selection.choices],
        ] == signature

    # The resume found every nontrivial block in the store: no synthesis.
    assert resumed.cache_misses == 0
    assert resumed.cache_hits == cold.cache_hits + cold.cache_misses
    assert resumed.cache_corrupt_entries == 0
    assert resumed.metrics["counters"].get("leap.synthesis_runs", 0) == 0
    assert resumed.timings.synthesis_seconds < cold.timings.synthesis_seconds
    # No failures anywhere in a clean run.
    for result in (baseline, unvalidated, cold, resumed):
        assert not result.failure_log
        assert not result.synthesis_fallbacks

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "circuit": "tfim(5, steps=2)",
                "blocks": len(baseline.blocks),
                "baseline_seconds": baseline_wall,
                "no_validation_seconds": unvalidated_wall,
                "store_cold_seconds": cold_wall,
                "resumed_seconds": resumed_wall,
                "baseline_synthesis_seconds":
                    baseline.timings.synthesis_seconds,
                "store_cold_synthesis_seconds":
                    cold.timings.synthesis_seconds,
                "resumed_synthesis_seconds":
                    resumed.timings.synthesis_seconds,
                "store_cold_cache_misses": cold.cache_misses,
                "resumed_cache_hits": resumed.cache_hits,
                "resumed_cache_misses": resumed.cache_misses,
                "original_cnot_count": baseline.original_cnot_count,
                "selected_cnot_counts": baseline.cnot_counts,
            },
            indent=1,
        )
    )
