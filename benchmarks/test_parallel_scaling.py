"""Smoke benchmark: serial vs. parallel vs. stored block synthesis.

Runs the same 5-qubit Trotterized TFIM circuit through QUEST four ways —
serial and 2-worker runs without a store, a cold run over a
``store_dir``, and a re-run against that warm store — and records the
timings to ``BENCH_parallel.json`` at the repo root.  Asserts the
subsystem's two core claims:

* all four modes produce identical selections (determinism), and
* the re-run reports cache hits and spends less time in synthesis than
  the cold run.

Absolute speedup from 2 workers is load-dependent (blocks are small at
bench scale, so pool startup is a visible fraction), which is why the
parallel run is recorded but only sanity-checked, not asserted faster.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import print_table

from repro import QuestConfig, run_quest
from repro.algorithms import tfim

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: Deliberately heavier than the unit-test configs so synthesis dominates
#: and the store/parallel effects are visible, but still minutes-free.
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


def test_parallel_scaling_smoke(tmp_path):
    circuit = tfim(5, steps=2)

    serial, serial_wall = _timed_run(circuit, workers=1)
    parallel, parallel_wall = _timed_run(circuit, workers=2)
    store_dir = str(tmp_path / "pool_cache")
    cold, cold_wall = _timed_run(circuit, workers=1, store_dir=store_dir)
    cached, cached_wall = _timed_run(circuit, workers=1, store_dir=store_dir)

    rows = [
        ["serial (no store)", f"{serial_wall:.2f}",
         f"{serial.timings.synthesis_seconds:.2f}", serial.cache_hits],
        ["2 workers (no store)", f"{parallel_wall:.2f}",
         f"{parallel.timings.synthesis_seconds:.2f}", parallel.cache_hits],
        ["store cold", f"{cold_wall:.2f}",
         f"{cold.timings.synthesis_seconds:.2f}", cold.cache_hits],
        ["store re-run", f"{cached_wall:.2f}",
         f"{cached.timings.synthesis_seconds:.2f}", cached.cache_hits],
    ]
    print_table(
        "Parallel/store scaling (TFIM-5, 2 Trotter steps)",
        ["mode", "wall s", "synthesis s", "cache hits"],
        rows,
    )

    # Determinism across all modes.
    signature = [
        serial.cnot_counts, serial.selection.bounds,
        [tuple(int(i) for i in c) for c in serial.selection.choices],
    ]
    for other in (parallel, cold, cached):
        assert [
            other.cnot_counts, other.selection.bounds,
            [tuple(int(i) for i in c) for c in other.selection.choices],
        ] == signature

    # The store re-run must actually hit and actually save time.
    assert cached.cache_hits > 0
    assert cached.cache_misses == 0
    assert (
        cached.timings.synthesis_seconds < cold.timings.synthesis_seconds
    )
    # Within-run repeats (Trotter steps) hit with or without a store.
    assert serial.cache_hits == cold.cache_hits > 0

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "circuit": "tfim(5, steps=2)",
                "blocks": len(serial.blocks),
                "serial_seconds": serial_wall,
                "parallel2_seconds": parallel_wall,
                "cold_cache_seconds": cold_wall,
                "cached_rerun_seconds": cached_wall,
                "serial_synthesis_seconds":
                    serial.timings.synthesis_seconds,
                "parallel2_synthesis_seconds":
                    parallel.timings.synthesis_seconds,
                "cold_synthesis_seconds": cold.timings.synthesis_seconds,
                "cached_synthesis_seconds":
                    cached.timings.synthesis_seconds,
                "cold_cache_hits": cold.cache_hits,
                "cached_cache_hits": cached.cache_hits,
                "original_cnot_count": serial.original_cnot_count,
                "selected_cnot_counts": serial.cnot_counts,
                # Distinct CNOT counts synthesized per block pool — the
                # LEAP levels actually available to the selector.
                "pool_cnot_levels": [
                    sorted({int(c) for c in pool.cnot_counts()})
                    for pool in serial.pools
                ],
            },
            indent=2,
        )
        + "\n"
    )
