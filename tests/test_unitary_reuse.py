"""Each unitary of a warm run is built once, and pools do not change.

A warm run (every block a store hit) hands matrices along instead of
rebuilding them: the plan's block unitary feeds validation and the pool,
validation's rebuilt solution matrices feed the pool, and an accepted
epsilon-sphere probe's matrix becomes its variant's.  These tests count
every matrix the two builders return — ``circuit_unitary`` for circuits,
``solution_unitaries`` for each row of a LEAP stack — and check that the
pools equal ones assembled with no matrices handed over.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.core.pool as pool_module
import repro.parallel.executor as executor_module
import repro.sim.unitary as unitary_module
import repro.synthesis.leap as leap_module
import repro.synthesis.sphere as sphere_module
from repro.algorithms import tfim
from repro.core.pool import exact_pool
from repro.core.quest import QuestConfig, run_quest
from repro.parallel.cache import PoolCache
from repro.parallel.executor import assemble_pool
from repro.partition.scan import scan_partition
from repro.resilience.validation import validate_pool
from repro.sim.unitary import circuit_unitary
from repro.transpile.basis import lower_to_basis
from tests.helpers import run_executor

CONFIG = QuestConfig(
    seed=3,
    max_samples=3,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=1,
    max_optimizer_iterations=40,
    threshold_per_block=0.25,
    sphere_variants_per_count=2,
    block_time_budget=None,
)


@pytest.fixture(
    scope="module",
    params=[(4, 3), (5, 2)],
    ids=["tfim4-3q-blocks", "tfim5-2q-blocks-repeats"],
)
def warm_run(request, tmp_path_factory):
    """A warm executor run over a store filled by a cold one.

    Records every matrix either builder returns (a stack counts each
    row), every solution list the store hands out and every
    ``assemble_pool`` call.
    """
    width, block_qubits = request.param
    baseline = lower_to_basis(tfim(width, steps=2).without_measurements())
    blocks = scan_partition(baseline, block_qubits)
    rng = np.random.default_rng(CONFIG.seed)
    seeds = [int(rng.integers(2**31 - 1)) for _ in blocks]
    store = tmp_path_factory.mktemp("store")
    run_executor(blocks, CONFIG, seeds, store=store)

    built: Counter = Counter()
    loaded: list = []
    assembled: dict = {}
    real_circuit_unitary = unitary_module.circuit_unitary
    real_solution_unitaries = leap_module.solution_unitaries
    real_get = PoolCache.get

    def counting_circuit_unitary(circuit):
        unitary = real_circuit_unitary(circuit)
        built[unitary.tobytes()] += 1
        return unitary

    def counting_solution_unitaries(solutions):
        unitaries = real_solution_unitaries(solutions)
        for unitary in unitaries:
            built[unitary.tobytes()] += 1
        return unitaries

    def recording_get(self, key):
        solutions = real_get(self, key)
        if solutions is not None:
            loaded.append(solutions)
        return solutions

    def recording_assemble(block, solutions, config, seed, **matrices):
        pool = assemble_pool(block, solutions, config, seed, **matrices)
        assembled[block.index] = (solutions, seed)
        return pool

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unitary_module, "circuit_unitary", counting_circuit_unitary)
        # Every module that binds the stack builder's name.
        for module in (leap_module, pool_module, sphere_module):
            patch.setattr(
                module, "solution_unitaries", counting_solution_unitaries
            )
        patch.setattr(PoolCache, "get", recording_get)
        patch.setattr(executor_module, "assemble_pool", recording_assemble)
        pools, stats = run_executor(blocks, CONFIG, seeds, store=store)
    assert not stats.failure_log
    return blocks, pools, built, loaded, assembled


def test_warm_run_builds_each_unitary_once(warm_run):
    blocks, pools, built, loaded, _ = warm_run
    assert loaded, "the warm run made no store hit"
    # Who owns each matrix: every block, every stored solution (a
    # within-run repeat shares its first occurrence's list) and every
    # accepted sphere variant.  Byte-identical owners share one count.
    owners: Counter = Counter()
    for block in blocks:
        owners[circuit_unitary(block.circuit).tobytes()] += 1
    stored = set()
    for solutions in loaded:
        for solution in solutions:
            owners[circuit_unitary(solution.circuit).tobytes()] += 1
            stored.add(id(solution))
    variants = 0
    for pool in pools:
        for candidate in pool.candidates:
            if candidate.source is pool.block.circuit:
                continue
            if id(candidate.source) in stored:
                continue
            owners[candidate.unitary.tobytes()] += 1
            variants += 1
    assert variants, "the warm run accepted no sphere variant"
    for matrix, count in owners.items():
        assert built[matrix] == count


def test_warm_pools_equal_pools_assembled_without_handed_matrices(warm_run):
    blocks, pools, _, _, assembled = warm_run
    assert assembled
    for block, pool in zip(blocks, pools):
        validate_pool(pool)
        if block.index in assembled:
            solutions, seed = assembled[block.index]
            reference = assemble_pool(block, solutions, CONFIG, seed)
        else:
            reference = exact_pool(block)
        assert pool.original_unitary.tobytes() == (
            reference.original_unitary.tobytes()
        )
        assert pool.size == reference.size
        for candidate, expected in zip(pool.candidates, reference.candidates):
            assert list(candidate.circuit) == list(expected.circuit)
            assert candidate.unitary.tobytes() == expected.unitary.tobytes()
            assert candidate.distance == expected.distance
            assert candidate.cnot_count == expected.cnot_count


def test_a_run_without_validation_selects_the_same(monkeypatch):
    # Validation checks each solution and hands its matrices on; with it
    # switched off the pools build their own, and nothing moves.
    config = replace(CONFIG, max_block_qubits=2)
    validated = run_quest(tfim(4, steps=2), config)
    monkeypatch.setattr(
        executor_module, "validate_solutions", lambda *args, **kwargs: None
    )
    unvalidated = run_quest(tfim(4, steps=2), config)
    assert [choice.tolist() for choice in unvalidated.selection.choices] == [
        choice.tolist() for choice in validated.selection.choices
    ]
    assert unvalidated.selection.bounds == validated.selection.bounds
    assert unvalidated.cnot_counts == validated.cnot_counts
    for ours, reference in zip(unvalidated.pools, validated.pools):
        assert [c.unitary.tobytes() for c in ours.candidates] == [
            c.unitary.tobytes() for c in reference.candidates
        ]
