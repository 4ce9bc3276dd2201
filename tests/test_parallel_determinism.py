"""Determinism regression tests for parallel and stored synthesis.

The contract: for a fixed ``QuestConfig.seed``, worker count and store
state are pure performance knobs — selections, CNOT counts, and bounds
are byte-identical across every combination.  This holds because
(a) per-block seeds are drawn up front in block order, (b) blocks with
identical content keys canonicalize to the first occurrence's seed, and
(c) LEAP is deterministic given (target, config, seed).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.executor as executor_module
from repro.algorithms import qft, tfim
from repro.circuits.random_circuits import random_circuit
from repro.core.quest import QuestConfig, _draw_block_seeds, run_quest

BASE = dict(
    seed=11,
    max_samples=3,
    max_block_qubits=2,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)

CIRCUITS = {
    "tfim": lambda: tfim(4, steps=2),
    "qft": lambda: qft(4),
    "random": lambda: random_circuit(4, depth=3, rng=5),
}


def _signature(result):
    """Everything the acceptance contract pins, as plain comparables."""
    return {
        "choices": [
            tuple(int(i) for i in choice)
            for choice in result.selection.choices
        ],
        "cnot_counts": result.cnot_counts,
        "bounds": result.selection.bounds,
        "pool_distances": [
            pool.distances().tolist() for pool in result.pools
        ],
    }


@pytest.fixture(scope="module")
def reference():
    """Serial runs without a store: the baseline every variant must match."""
    return {
        name: run_quest(make(), QuestConfig(**BASE, workers=1))
        for name, make in CIRCUITS.items()
    }


@pytest.mark.parametrize("name", list(CIRCUITS))
@pytest.mark.parametrize(
    "workers,store",
    [(1, True), (4, False), (4, True)],
    ids=["serial-store", "parallel", "parallel-store"],
)
def test_selections_identical_across_modes(
    reference, tmp_path, name, workers, store
):
    store_dir = str(tmp_path) if store else None
    config = QuestConfig(**BASE, workers=workers, store_dir=store_dir)
    result = run_quest(CIRCUITS[name](), config)
    assert _signature(result) == _signature(reference[name])


def test_trotterized_repeats_hit_the_cache(reference):
    """TFIM's repeated Trotter-step blocks synthesize once per run."""
    result = reference["tfim"]
    assert result.cache_hits > 0
    assert result.cache_misses < len(result.blocks)


def test_disk_cache_preserves_results(tmp_path, reference):
    config = QuestConfig(**BASE, store_dir=str(tmp_path))
    cold = run_quest(CIRCUITS["tfim"](), config)
    warm = run_quest(CIRCUITS["tfim"](), config)
    assert _signature(cold) == _signature(reference["tfim"])
    assert _signature(warm) == _signature(reference["tfim"])
    # Within-run Trotter repeats hit with or without a store.
    assert cold.cache_hits == reference["tfim"].cache_hits > 0
    assert warm.cache_misses == 0
    assert warm.cache_hits > 0


def test_repeated_runs_are_reproducible(reference):
    again = run_quest(CIRCUITS["qft"](), QuestConfig(**BASE, workers=1))
    assert _signature(again) == _signature(reference["qft"])


def test_time_budget_cannot_change_the_output():
    """The time budget bounds an attempt but never shapes its result.

    A 1e-9 s budget once stopped LEAP after its first layer and kept the
    truncated pool.  Only the hard timeout (4 x budget + 30 s) reads the
    clock now, so the pools equal an unbounded run's.  The blocks are
    three-qubit, as in the paper workload: two-qubit blocks reach their
    layer cap before such a stop could bind.
    """
    settings = dict(
        seed=2022,
        max_samples=8,
        max_block_qubits=3,
        threshold_per_block=0.2,
        max_layers_per_block=5,
        solutions_per_layer=3,
        instantiation_starts=2,
        max_optimizer_iterations=150,
    )
    circuit = tfim(4, steps=2)
    unbounded = run_quest(circuit, QuestConfig(**settings, block_time_budget=None))
    tight = run_quest(circuit, QuestConfig(**settings, block_time_budget=1e-9))
    assert not tight.synthesis_fallbacks
    assert _signature(tight) == _signature(unbounded)
    for a, b in zip(tight.pools, unbounded.pools):
        assert len(a.candidates) == len(b.candidates)
        for ca, cb in zip(a.candidates, b.candidates):
            assert np.array_equal(ca.unitary, cb.unitary)


@pytest.mark.slow
def test_full_matrix_determinism_at_scale(tmp_path):
    """Heavier cross-product (TFIM-5, cold and warm store, 4 workers): same
    contract.

    Excluded from tier-1 by the ``slow`` marker; run with ``-m slow``.
    """
    heavy = dict(BASE, max_layers_per_block=3, max_optimizer_iterations=80)
    circuit = tfim(5, steps=2)
    reference = run_quest(circuit, QuestConfig(**heavy))
    variants = [
        QuestConfig(**heavy, workers=4),
        QuestConfig(**heavy, store_dir=str(tmp_path / "serial")),
        QuestConfig(**heavy, workers=4, store_dir=str(tmp_path / "parallel")),
        QuestConfig(**heavy, workers=4, store_dir=str(tmp_path / "serial")),
    ]
    for config in variants:
        assert _signature(run_quest(circuit, config)) == _signature(
            reference
        )


# ----------------------------------------------------------------------
# The seed stream (regression for the lazy-draw bug)
# ----------------------------------------------------------------------
def test_block_seed_stream_is_pinned():
    """The per-block seed stream for a given config seed never changes.

    Seeds used to be drawn lazily inside the synthesis loop; these
    literals pin the pre-computed stream (PCG64 is stable across numpy
    versions) so any change to draw order or count is caught here.
    """
    rng = np.random.default_rng(7)
    assert _draw_block_seeds(rng, 6) == [
        2029167940,
        1342382291,
        1469265225,
        1926751965,
        1241873584,
        1665772334,
    ]
    # The annealing seed is drawn *after* the full block stream, so it is
    # independent of how many blocks synthesized, in which order, or on
    # how many workers.
    assert int(rng.integers(2**31 - 1)) == 1790251936


def test_blocks_receive_position_pinned_canonical_seeds(monkeypatch):
    """Each block synthesizes under the seed drawn for its position —
    except repeats, which canonicalize to the first occurrence's seed."""
    received: list[tuple[int, int]] = []
    real_task = executor_module._synthesize_solutions_task

    def recording_task(block, config, seed):
        received.append((block.index, seed))
        return real_task(block, config, seed)

    monkeypatch.setattr(
        executor_module, "_synthesize_solutions_task", recording_task
    )
    config = QuestConfig(**BASE, workers=1)
    result = run_quest(CIRCUITS["tfim"](), config)

    drawn = _draw_block_seeds(
        np.random.default_rng(config.seed), len(result.blocks)
    )
    # Recompute the canonicalization independently: the first occurrence
    # of each content key claims its positional draw and dispatches the
    # one job that serves every repeat (repeats dedup, with no store).
    from repro.parallel.cache import content_key

    expected: dict[int, int] = {}
    nontrivial = 0
    first_by_content: dict[str, int] = {}
    for index, block in enumerate(result.blocks):
        if block.num_qubits == 1 or block.circuit.cnot_count() == 0:
            continue
        nontrivial += 1
        fingerprint = executor_module.leap_config_for_block(
            block.circuit.cnot_count(), config, seed=None
        ).fingerprint()
        content = content_key(block.unitary(), fingerprint)
        if content not in first_by_content:
            first_by_content[content] = drawn[index]
            expected[index] = drawn[index]

    by_index = dict(received)
    assert by_index == expected
    # TFIM Trotter steps repeat blocks, so dedup must have actually
    # collapsed some jobs (the test would be vacuous otherwise).
    assert len(expected) < nontrivial
    assert result.cache_hits == nontrivial - len(expected)
    assert result.dedup_joins == 0
