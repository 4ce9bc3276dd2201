"""The deterministic fault-injection matrix.

Every recovery path gets a scheduled fault and must recover — retry,
quarantine, or recompute — with results bit-identical to an unfaulted
run whenever a retry succeeds: every attempt reruns the block's seed.
The mid-run SIGKILL leg of the matrix lives in
``test_resilience_kill.py`` (it needs a subprocess harness).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

import repro.synthesis.leap as leap_module
from repro.algorithms import tfim
from repro.batch import run_quest_batch
from repro.circuits import circuit_to_qasm
from repro.core.pool import exact_pool
from repro.core.quest import QuestConfig, run_quest
from repro.exceptions import BlockTimeoutError, ValidationError
from repro.observability import ListSink, Record, use_record
from repro.parallel.cache import PoolCache
from repro.partition.scan import scan_partition
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    block_deadline,
    check_deadline,
    parse_fault_spec,
)
from repro.resilience import faults
from repro.resilience.deadline import _DEADLINE
from repro.resilience.faults import InjectedFault
from repro.resilience.retry import FAILURE_TIMEOUT, FAILURE_VALIDATION
from repro.linalg import hs_distance
from repro.resilience.validation import validate_pool, validate_solutions
from repro.sim.unitary import circuit_unitary
from repro.synthesis.leap import SynthesisSolution
from repro.transpile.basis import lower_to_basis
from tests.helpers import fallback_blocks, run_executor
from tests.test_service import running_service

FAST = dict(
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
CONFIG = QuestConfig(seed=3, **FAST)


def _blocks():
    baseline = lower_to_basis(tfim(4, steps=1).without_measurements())
    return scan_partition(baseline, CONFIG.max_block_qubits)


def _seeds(blocks):
    rng = np.random.default_rng(CONFIG.seed)
    return [int(rng.integers(2**31 - 1)) for _ in blocks]


def _pools_equal(pools_a, pools_b):
    assert len(pools_a) == len(pools_b)
    for a, b in zip(pools_a, pools_b):
        assert a.cnot_counts().tolist() == b.cnot_counts().tolist()
        assert a.distances().tolist() == b.distances().tolist()
        for ca, cb in zip(a.candidates, b.candidates):
            assert np.array_equal(ca.unitary, cb.unitary)


# ----------------------------------------------------------------------
# Cooperative deadline primitives
# ----------------------------------------------------------------------
def test_check_deadline_is_a_noop_without_a_deadline():
    check_deadline()
    assert _DEADLINE.get() is None


def test_block_deadline_none_is_a_noop():
    with block_deadline(None):
        check_deadline()
        assert _DEADLINE.get() is None


def test_expired_deadline_raises():
    with block_deadline(0.0):
        with pytest.raises(BlockTimeoutError):
            check_deadline()


def test_deadline_restores_on_exit():
    with block_deadline(0.0):
        pass
    check_deadline()  # must not raise


def test_nested_deadlines_take_the_minimum():
    with block_deadline(60.0):
        outer = _DEADLINE.get()
        with block_deadline(0.0):
            with pytest.raises(BlockTimeoutError):
                check_deadline()
        # Inner expiry never tightens the outer deadline, and a looser
        # inner deadline never extends it.
        assert _DEADLINE.get() == outer
        with block_deadline(3600.0):
            assert _DEADLINE.get() == outer
        check_deadline()


# ----------------------------------------------------------------------
# Validation primitives
# ----------------------------------------------------------------------
def _honest_solution(block):
    """A one-CNOT LEAP structure recording its true distance to ``block``."""
    angles = tuple(np.random.default_rng(7).uniform(-np.pi, np.pi, 10).tolist())
    solution = SynthesisSolution(2, ((0, 1),), angles, 0.0)
    return replace(
        solution, distance=hs_distance(solution.unitary(), block.unitary())
    )


def test_honest_solutions_validate():
    block = next(b for b in _blocks() if b.num_qubits > 1)
    solution = _honest_solution(block)
    (unitary,) = validate_solutions(block.unitary(), [solution])
    assert unitary.tobytes() == circuit_unitary(solution.circuit).tobytes()
    validate_pool(exact_pool(block))


@pytest.mark.parametrize(
    "change, match",
    [
        (dict(placements=((0, 2),)), "bad CNOT placement"),
        (dict(placements=((-1, 0),)), "bad CNOT placement"),
        (dict(placements=((1, 1),)), "bad CNOT placement"),
        (dict(params=np.zeros(9)), "not 10"),
        (dict(params=np.zeros(11)), "not 10"),
        (dict(params=np.zeros(10, dtype=np.float32)), "not finite float64"),
        (dict(params=np.full(10, np.inf)), "not finite float64"),
        (dict(num_qubits=3), "does not match the block"),
    ],
    ids=[
        "qubit-out-of-range", "negative-qubit", "control-is-target",
        "short-angles", "long-angles", "float32-angles",
        "infinite-angles", "wider-structure",
    ],
)
def test_malformed_structures_are_rejected_before_any_build(change, match):
    """No row of an entry is built before every structure of the entry
    passes: an honest solution ahead of the malformed one stays unbuilt."""
    block = next(b for b in _blocks() if b.num_qubits > 1)
    honest = _honest_solution(block)
    bad = replace(honest, **change)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(leap_module, "solution_unitaries", _never_called)
        with pytest.raises(ValidationError, match=match):
            validate_solutions(block.unitary(), [honest, bad])


def _never_called(*args):
    raise AssertionError("a malformed structure reached the matrix build")


def test_cnot_count_is_derived_from_the_placements():
    """A solution cannot claim fewer CNOTs than its circuit has: the count
    is derived from the placements, and the constructor takes none."""
    solution = SynthesisSolution(
        3, ((0, 1), (1, 2)), (0.0,) * 17, 0.0
    )
    assert solution.cnot_count == 2 == solution.circuit.cnot_count()
    with pytest.raises(TypeError):
        SynthesisSolution(
            3, ((0, 1), (1, 2)), (0.0,) * 17, 0.0, cnot_count=0
        )
    with pytest.raises(TypeError):
        replace(solution, cnot_count=0)


def test_nan_distance_is_rejected():
    block = next(b for b in _blocks() if b.num_qubits > 1)
    bad = replace(_honest_solution(block), distance=float("nan"))
    with pytest.raises(ValidationError, match="not finite"):
        validate_solutions(block.unitary(), [bad])


def test_wrong_distance_is_rejected():
    block = next(b for b in _blocks() if b.num_qubits > 1)
    bad = replace(_honest_solution(block), distance=0.5)
    with pytest.raises(ValidationError, match="disagrees with recorded"):
        validate_solutions(block.unitary(), [bad])


def test_non_list_payload_is_rejected():
    block = next(b for b in _blocks() if b.num_qubits > 1)
    with pytest.raises(ValidationError, match="expected list"):
        validate_solutions(block.unitary(), "garbage")


def _narrow_solution():
    """A well-formed 2-qubit solution: one CNOT, recording distance 0."""
    return SynthesisSolution(2, ((0, 1),), (0.0,) * 10, 0.0)


def test_wrong_width_solution_is_rejected():
    target = np.eye(8, dtype=complex)
    with pytest.raises(ValidationError, match="does not match the block"):
        validate_solutions(target, [_narrow_solution()])


def test_non_solution_element_is_rejected():
    block = next(b for b in _blocks() if b.num_qubits > 1)
    with pytest.raises(ValidationError, match="expected SynthesisSolution"):
        validate_solutions(block.unitary(), [object()])


def test_non_unitary_candidate_is_rejected():
    block = next(b for b in _blocks() if b.num_qubits > 1)
    pool = exact_pool(block)
    # The exact candidate shares its array with pool.original_unitary,
    # so corrupt a copy — this targets the *candidate* check.
    pool.candidates[0] = replace(
        pool.candidates[0], unitary=pool.candidates[0].unitary * 1.5
    )
    with pytest.raises(ValidationError, match="unitarity defect"):
        validate_pool(pool)


def test_empty_pool_is_rejected():
    block = next(b for b in _blocks() if b.num_qubits > 1)
    pool = exact_pool(block)
    pool.candidates.clear()
    with pytest.raises(ValidationError, match="no candidates"):
        validate_pool(pool)


# ----------------------------------------------------------------------
# Fault schedule parsing
# ----------------------------------------------------------------------
def test_parse_fault_spec_full_syntax():
    injector = parse_fault_spec("raise@0, hang@2:1, nan@*", seed=7)
    assert injector.seed == 7
    assert injector.specs == (
        FaultSpec("raise", 0, 0),
        FaultSpec("hang", 2, 1),
        FaultSpec("nan", None, 0),
    )


def test_parse_fault_spec_bare_kind_matches_everywhere():
    injector = parse_fault_spec("raise")
    assert injector.specs == (FaultSpec("raise", None, 0),)
    assert injector.specs[0].matches(0) and injector.specs[0].matches(17)
    assert not injector.specs[0].matches(0, attempt=1)


@pytest.mark.parametrize("bad", ["explode@1", "", " , "])
def test_parse_fault_spec_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_fault_spec(bad)


def test_fault_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("explode")


def _fired(sink: ListSink) -> list[dict]:
    """The attributes of every ``faults.injected`` event in ``sink``."""
    return [r["attrs"] for r in sink.records if r["name"] == "faults.injected"]


def test_raise_fault_fires_only_at_its_coordinates():
    injector = FaultInjector(specs=(FaultSpec("raise", 2, 1),))
    sink = ListSink()
    with use_record(Record(sink)):
        injector.on_synthesis_start(2, 0)  # wrong attempt: no fire
        injector.on_synthesis_start(1, 1)  # wrong block: no fire
        with pytest.raises(InjectedFault):
            injector.on_synthesis_start(2, 1)
    assert _fired(sink) == [{"kind": "raise", "block": 2, "attempt": 1}]


def test_hang_fault_honours_the_cooperative_deadline():
    injector = FaultInjector(specs=(FaultSpec("hang", 0, 0),))
    start = time.monotonic()
    with block_deadline(0.2):
        with pytest.raises(BlockTimeoutError):
            injector.on_synthesis_start(0, 0)
    assert time.monotonic() - start < 5.0  # interrupted, not slept out


# ----------------------------------------------------------------------
# Matrix leg: hang -> cooperative timeout on the inline path
# ----------------------------------------------------------------------
def test_inline_hang_times_out_and_recovers_bit_identically(counters):
    """Satellite (c): the inline path enforces the block time budget.

    A hang on attempt 0 is cut off by the cooperative deadline (no
    worker process to abandon), logged as a timeout, and the same-seed
    retry recovers bit-identically.
    """
    blocks = _blocks()
    seeds = _seeds(blocks)
    clean_pools, _ = run_executor(blocks, CONFIG, seeds)

    injector = FaultInjector(specs=(FaultSpec("hang", None, 0),))
    start = time.monotonic()
    pools, stats = run_executor(
        blocks,
        CONFIG,
        seeds,
        hard_timeout=0.5,
        max_attempts=2,
        fault_injector=injector,
    )
    # Cut off cooperatively: nowhere near the 60s the hang would take.
    assert time.monotonic() - start < 30.0
    assert not fallback_blocks(stats.failure_log)
    assert counters()["retry.attempts"] > 0
    assert stats.failure_log
    assert all(r.kind == FAILURE_TIMEOUT for r in stats.failure_log)
    _pools_equal(clean_pools, pools)


def test_lapsed_enclosing_deadline_ends_the_inline_run():
    """A caller's deadline (the service's job deadline) that lapses
    mid-synthesis raises instead of falling back silently.

    The hang on attempt 0 outlasts the enclosing deadline.  Retrying
    could only time out at once and ship exact fallbacks as a normal
    result, so the run ends with :class:`BlockTimeoutError`.
    """
    injector = FaultInjector(specs=(FaultSpec("hang", None, 0),))
    start = time.monotonic()
    with block_deadline(0.5):
        with pytest.raises(BlockTimeoutError):
            run_quest(tfim(4, steps=2), CONFIG, fault_injector=injector)
    assert time.monotonic() - start < 30.0


@pytest.mark.slow
def test_pool_hang_hits_the_hard_timeout_and_recovers(counters, monkeypatch):
    """The process-pool path bounds a hung worker via the future timeout."""
    blocks = _blocks()
    seeds = _seeds(blocks)
    clean_pools, _ = run_executor(blocks, CONFIG, seeds, workers=2)

    # Workers fork after the patch, so a hung one exits within 45 s.
    monkeypatch.setattr(faults, "HANG_SECONDS", 45.0)
    injector = FaultInjector(specs=(FaultSpec("hang", None, 0),))
    pools, stats = run_executor(
        blocks,
        CONFIG,
        seeds,
        workers=2,
        hard_timeout=3.0,
        max_attempts=2,
        fault_injector=injector,
    )
    assert not fallback_blocks(stats.failure_log)
    assert counters()["retry.attempts"] > 0
    assert all(r.kind == FAILURE_TIMEOUT for r in stats.failure_log)
    _pools_equal(clean_pools, pools)


# ----------------------------------------------------------------------
# Matrix leg: corrupt disk-cache entry
# ----------------------------------------------------------------------
def test_flipped_cache_entry_is_quarantined_and_recomputed(tmp_path):
    blocks = _blocks()
    seeds = _seeds(blocks)
    clean_pools, _ = run_executor(blocks, CONFIG, seeds, store=tmp_path / "clean")

    cache_dir = tmp_path / "cache"
    # Run 1 populates the disk tier; the injector bit-flips the first
    # entry written, after its atomic publish (at-rest corruption).
    injector = FaultInjector(specs=(FaultSpec("flip-cache", 0),), seed=5)
    sink = ListSink()
    with use_record(Record(sink)):
        run_executor(blocks, CONFIG, seeds, store=cache_dir, fault_injector=injector)
    assert _fired(sink) == [{"kind": "flip-cache", "block": 0, "attempt": 0}]

    # Run 2 reads the poisoned tier: the checksum catches the flip, the
    # entry is counted corrupt and recomputed, results stay identical.
    with use_record(Record()) as registry:
        pools, stats = run_executor(blocks, CONFIG, seeds, store=cache_dir)
    assert registry.snapshot()["counters"]["cache.corrupt_entries"] == 1
    assert not fallback_blocks(stats.failure_log)
    _pools_equal(clean_pools, pools)

    # Run 3: the recompute overwrote the bad file, so the tier is clean.
    with use_record(Record()) as registry:
        pools, _ = run_executor(blocks, CONFIG, seeds, store=cache_dir)
    counts = registry.snapshot()["counters"]
    assert "cache.corrupt_entries" not in counts
    assert "cache.miss" not in counts
    _pools_equal(clean_pools, pools)


def _compile_counts(front_end, circuit, config, injector, tmp_path) -> dict:
    """The counters of one compile of ``circuit`` under ``injector``
    through ``front_end``: a solo run, a batch or a served job."""
    if front_end == "solo":
        result = run_quest(circuit, config, fault_injector=injector)
        return result.metrics["counters"]
    if front_end == "batch":
        batch = run_quest_batch([circuit], config, fault_injector=injector)
        return batch.metrics["counters"]
    with running_service(
        tmp_path / "ledger", config=config, fault_injector=injector
    ) as (_, client):
        client.submit_and_wait(circuit_to_qasm(circuit), timeout=300.0)
        return client.status()["metrics"]["counters"]


@pytest.mark.parametrize("front_end", ["solo", "batch", "daemon"])
def test_every_front_end_flips_the_first_store_write(tmp_path, front_end):
    """Each front end compiles over a fresh store and sees the fault
    once; a rerun over that store finds the one corrupt entry,
    recomputes it and selects what a clean run selects."""
    circuit = tfim(4, steps=1)
    config = replace(CONFIG, store_dir=str(tmp_path / "store"))
    injector = FaultInjector(specs=(FaultSpec("flip-cache", 0),), seed=5)
    counts = _compile_counts(front_end, circuit, config, injector, tmp_path)
    assert counts["faults.injected"] == 1

    rerun = run_quest(circuit, config)
    assert rerun.cache_corrupt_entries == 1
    clean = run_quest(circuit, CONFIG)
    assert [c.tolist() for c in rerun.selection.choices] == [
        c.tolist() for c in clean.selection.choices
    ]


def test_wrong_width_store_entries_are_quarantined(tmp_path):
    """A store entry that parses fine but holds a narrower block's
    solution fails validation: the warm run quarantines every such
    entry, recomputes, and equals the cold run."""
    config = QuestConfig(seed=3, **{**FAST, "max_block_qubits": 3})
    baseline = lower_to_basis(tfim(4, steps=1).without_measurements())
    blocks = scan_partition(baseline, 3)
    assert max(block.num_qubits for block in blocks) == 3
    seeds = _seeds(blocks)
    cold_pools, _ = run_executor(blocks, config, seeds, store=tmp_path)

    cache = PoolCache(tmp_path)
    keys = [path.stem for path in cache.store.directory.rglob("*.qpool")]
    assert keys
    for key in keys:
        cache.put(key, [_narrow_solution()])
    with use_record(Record()) as registry:
        warm_pools, stats = run_executor(blocks, config, seeds, store=tmp_path)
    _pools_equal(cold_pools, warm_pools)
    assert registry.snapshot()["counters"]["cache.miss"] == len(keys)
    assert stats.failure_log
    assert {record.kind for record in stats.failure_log} == {FAILURE_VALIDATION}
    assert not fallback_blocks(stats.failure_log)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_inject_faults_flag(tmp_path, capsys):
    from repro.circuits import circuit_to_qasm
    from repro.cli import main

    qasm_path = tmp_path / "tfim.qasm"
    qasm_path.write_text(circuit_to_qasm(tfim(3, steps=1)))
    code = main(
        [
            str(qasm_path),
            "--out-dir", str(tmp_path / "out"),
            "--threshold", "0.3",
            "--max-samples", "2",
            "--block-qubits", "2",
            "--time-budget", "10",
            "--seed", "1",
            "--inject-faults", "raise@*:0",
            "--fault-seed", "3",
        ]
    )
    assert code == 0  # the default retry policy absorbs the fault
    captured = capsys.readouterr()
    assert "CNOTs" in captured.out
    assert "[exception]" in captured.err  # failure log reaches stderr


def test_cli_rejects_a_bad_fault_spec(tmp_path, capsys):
    from repro.circuits import circuit_to_qasm
    from repro.cli import main

    qasm_path = tmp_path / "tfim.qasm"
    qasm_path.write_text(circuit_to_qasm(tfim(3, steps=1)))
    code = main([str(qasm_path), "--inject-faults", "explode@1"])
    assert code == 2
    assert "unknown fault kind" in capsys.readouterr().err
