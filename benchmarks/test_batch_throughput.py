"""Batch compilation throughput: one shared substrate vs. 8 solo runs.

Compiles an 8-circuit Trotter-family sweep (TFIM / Heisenberg / XY at
two step counts, two instances each — the shape of a parameter sweep
re-run) two ways at ``workers=4``:

* **sequential** — eight independent :func:`repro.run_quest` calls,
  each paying its own worker pool and synthesis;
* **batch** — one :func:`repro.batch.run_quest_batch` call sharing the
  persistent pool and in-flight registry across all eight circuits.

Records ``BENCH_batch.json`` at the repo root and asserts the batch
layer's three claims: per-circuit selections bit-identical to solo,
zero duplicate syntheses (every globally-unique block key dispatched
exactly once), and >= 2x wall-clock speedup.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from conftest import print_table

from repro import QuestConfig, run_quest
from repro.algorithms import heisenberg, tfim, xy_model
from repro.batch import run_quest_batch
from repro.core.quest import _draw_block_seeds
from repro.parallel.cache import content_key, entry_key
from repro.parallel.executor import leap_config_for_block
from repro.partition.scan import scan_partition
from repro.transpile.basis import lower_to_basis

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

#: 3-qubit blocks make each LEAP job heavy enough that synthesis (the
#: part the batch layer parallelizes and dedups) dominates the
#: GIL-bound parent-side work; annealing is kept deliberately light.
BATCH_CONFIG = dict(
    seed=2022,
    max_samples=3,
    max_block_qubits=3,
    threshold_per_block=0.25,
    max_layers_per_block=4,
    solutions_per_layer=3,
    instantiation_starts=2,
    max_optimizer_iterations=150,
    annealing_maxiter=40,
    block_time_budget=None,
    sphere_variants_per_count=2,
)
WORKERS = 4
WINDOW = 4


def _family():
    sweep = [
        tfim(4, steps=2),
        tfim(4, steps=3),
        heisenberg(4, steps=2),
        xy_model(4, steps=2),
    ]
    return sweep + [circuit.copy() for circuit in sweep]


def _signature(result):
    return {
        "choices": [
            tuple(int(i) for i in choice)
            for choice in result.selection.choices
        ],
        "cnot_counts": result.cnot_counts,
        "bounds": result.selection.bounds,
    }


def _planned_entry_keys(circuit, config):
    """The executor's planning recipe, replayed independently: the entry
    keys a solo run of ``circuit`` would synthesize (first occurrence of
    each content key claims its positional seed)."""
    blocks = scan_partition(
        lower_to_basis(circuit.without_measurements()),
        config.max_block_qubits,
    )
    drawn = _draw_block_seeds(
        np.random.default_rng(config.seed), len(blocks)
    )
    keys, first = [], {}
    for index, block in enumerate(blocks):
        if block.num_qubits == 1 or block.circuit.cnot_count() == 0:
            continue
        fingerprint = leap_config_for_block(
            block.circuit.cnot_count(), config, seed=None
        ).fingerprint()
        content = content_key(block.unitary(), fingerprint)
        keys.append(entry_key(content, first.setdefault(content, drawn[index])))
    return keys


def test_batch_throughput(tmp_path):
    config = QuestConfig(**BATCH_CONFIG, workers=WORKERS)

    start = time.perf_counter()
    solo = [run_quest(circuit, config) for circuit in _family()]
    sequential_wall = time.perf_counter() - start

    start = time.perf_counter()
    batch = run_quest_batch(_family(), config, window=WINDOW)
    batch_wall = time.perf_counter() - start
    speedup = sequential_wall / batch_wall

    # Expected dedup structure, computed independently of the runtime.
    per_circuit = [_planned_entry_keys(circuit, config) for circuit in _family()]
    total_nontrivial = sum(len(keys) for keys in per_circuit)
    unique_global = len(set().union(*map(set, per_circuit)))
    expected_collisions = total_nontrivial - unique_global
    # Blocks that actually synthesized: planned jobs minus the planned
    # jobs that ended up adopting another circuit's in-flight result.
    synthesized = batch.cache_misses - batch.inflight_joins

    print_table(
        "Batch vs sequential (8-circuit Trotter family, 4 workers)",
        ["mode", "wall s", "synthesized", "dedup hits"],
        [
            [
                "sequential x8",
                f"{sequential_wall:.2f}",
                sum(r.cache_misses for r in solo),
                sum(r.cache_hits + r.dedup_joins for r in solo),
            ],
            [
                "batch",
                f"{batch_wall:.2f}",
                synthesized,
                batch.cache_hits + batch.dedup_joins,
            ],
            ["speedup", f"{speedup:.2f}x", "", ""],
        ],
    )

    # Bit-identical per-circuit selections.
    for got, want in zip(batch.results, solo):
        assert _signature(got) == _signature(want)
    # Zero duplicate syntheses: every globally-unique key exactly once.
    assert synthesized == unique_global
    # The dedup counters account for every expected collision.
    assert batch.cache_hits + batch.dedup_joins == expected_collisions
    assert expected_collisions > 0
    assert batch.pools_created >= 1
    # The headline claim: >= 2x over sequential at 4 workers.
    assert speedup >= 2.0, f"batch speedup {speedup:.2f}x < 2x"

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "family": "tfim/heisenberg/xy_model(4), 8 circuits",
                "workers": WORKERS,
                "window": WINDOW,
                "sequential_seconds": sequential_wall,
                "batch_seconds": batch_wall,
                "speedup": speedup,
                "total_nontrivial_blocks": total_nontrivial,
                "unique_block_keys": unique_global,
                "blocks_synthesized": synthesized,
                "dedup_hits": batch.cache_hits + batch.dedup_joins,
                "inflight_joins": batch.inflight_joins,
                "cache_hits": batch.cache_hits,
                "pools_created": batch.pools_created,
                "pool_reuses": batch.pool_reuses,
            },
            indent=2,
        )
        + "\n"
    )
