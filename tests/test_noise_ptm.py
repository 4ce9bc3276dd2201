"""Tests for the superoperator (PTM) noise engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import qft, tfim
from repro.circuits import Circuit, random_circuit
from repro.core import QuestConfig, run_quest
from repro.exceptions import (
    SimulationCapacityError,
    SimulationError,
    ValidationError,
)
from repro.metrics.distances import average_distributions
from repro.noise import (
    MAX_PTM_QUBITS,
    NoiseModel,
    PtmCache,
    fake_manila,
    noisy_distribution,
    resolve_engine,
    run_ptm,
    run_ptm_ensemble,
)
from repro.noise import ptm as ptm_module
from repro.noise.ptm import (
    PtmProgram,
    channel_diagonal,
    compile_circuit,
    unitary_ptm,
)
from repro.noise import trajectories as trajectories_module
from repro.noise.trajectories import MAX_TRAJECTORY_QUBITS, run_trajectories
from repro.observability import MetricsRegistry, use_metrics
from repro.resilience.validation import validate_ptm
from repro.sim import ideal_distribution
from repro.transpile import transpile
from tests.density_oracle import PTM_DENSITY_AGREEMENT_ATOL, run_density

NOISE = NoiseModel.from_noise_level(0.01)
FULL_NOISE = NoiseModel(
    one_qubit_error=0.002,
    two_qubit_error=0.02,
    readout_error=0.015,
)


@pytest.fixture
def fresh_cache(monkeypatch) -> None:
    """An empty process-wide PTM compile cache for one test."""
    monkeypatch.setattr(ptm_module, "_DEFAULT_CACHE", PtmCache())


# ---------------------------------------------------------------------------
# PTM compilation primitives


def test_unitary_ptm_of_identity_is_identity():
    np.testing.assert_allclose(unitary_ptm(np.eye(2), 1), np.eye(4), atol=1e-14)


def test_unitary_ptm_of_x_flips_y_and_z():
    ptm = unitary_ptm(np.array([[0, 1], [1, 0]], dtype=complex), 1)
    np.testing.assert_allclose(ptm, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-14)


def test_channel_diagonal_depolarizing():
    # Symmetric depolarizing at rate p: X/Y/Z components shrink by 1-4p/3.
    p = 0.03
    diag = channel_diagonal(tuple((p / 3.0, label) for label in "XYZ"), 1)
    np.testing.assert_allclose(
        diag, [1.0, 1 - 4 * p / 3, 1 - 4 * p / 3, 1 - 4 * p / 3], atol=1e-14
    )


def test_ptm_is_phase_invariant():
    gate = np.array([[1, 0], [0, np.exp(1j * 0.7)]], dtype=complex)
    np.testing.assert_allclose(
        unitary_ptm(gate, 1),
        unitary_ptm(np.exp(1j * 1.3) * gate, 1),
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# Agreement with the density-matrix reference


def _assert_matches_density(circuit: Circuit, noise: NoiseModel):
    expected = run_density(circuit, noise)
    actual = run_ptm(circuit, noise)
    np.testing.assert_allclose(
        actual, expected, atol=PTM_DENSITY_AGREEMENT_ATOL, rtol=0.0
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ptm_matches_density_on_random_circuits(seed):
    circuit = random_circuit(3, 4, rng=seed)
    _assert_matches_density(circuit, NOISE)


def test_ptm_matches_density_on_tfim_and_qft():
    _assert_matches_density(tfim(4, steps=2), NOISE)
    _assert_matches_density(qft(4), NOISE)
    # The Manila path that benchmarks/conftest.py::run_on_manila and
    # examples/tfim_case_study.py evaluate: measured, routed, device noise.
    manila = fake_manila()
    prepared = tfim(4, steps=2)
    prepared.measure_all()
    routed = transpile(prepared, backend=manila, optimization_level=2, rng=0)
    _assert_matches_density(routed.circuit, manila.noise)


def test_ptm_matches_density_with_full_noise_and_readout():
    _assert_matches_density(random_circuit(4, 3, rng=11), FULL_NOISE)


def test_ptm_matches_density_on_wide_gate():
    # ccx exercises the arity>=3 path: bare gate PTM + per-pair channels.
    circuit = Circuit(3)
    circuit.h(0)
    circuit.ccx(0, 1, 2)
    circuit.h(2)
    _assert_matches_density(circuit, FULL_NOISE)


def test_ptm_noiseless_matches_ideal_distribution():
    circuit = random_circuit(3, 4, rng=5)
    np.testing.assert_allclose(
        run_ptm(circuit, NoiseModel(0.0, 0.0, 0.0)),
        ideal_distribution(circuit),
        atol=1e-10,
    )


def test_ptm_matches_trajectories_statistically(monkeypatch):
    # Trajectories converge to the PTM answer (both average the same
    # channel); loose tolerance, T=2000 keeps it fast but stable.
    circuit = tfim(3, steps=1)
    exact = run_ptm(circuit, NOISE)
    monkeypatch.setattr(trajectories_module, "TRAJECTORIES", 2000)
    sampled = run_trajectories(circuit, NOISE, rng=3)
    assert np.max(np.abs(exact - sampled)) < 0.05


# ---------------------------------------------------------------------------
# Ensemble batching


def test_ensemble_rows_equal_single_circuit_runs():
    circuits = [random_circuit(3, 3, rng=seed) for seed in range(5)]
    batch = run_ptm_ensemble(circuits, FULL_NOISE)
    assert batch.shape == (5, 8)
    for row, circuit in zip(batch, circuits):
        np.testing.assert_array_equal(row, run_ptm(circuit, FULL_NOISE))


def test_ensemble_batches_structurally_identical_circuits():
    # Same gate skeleton, different angles: one signature group, with
    # per-member PTM stacks where the angles differ.
    circuits = []
    for i in range(4):
        c = Circuit(2)
        c.ry(0.3 + 0.1 * i, 0)
        c.cx(0, 1)
        c.rz(0.5, 1)
        circuits.append(c)
    signatures = {
        compile_circuit(c, NOISE).signature for c in circuits
    }
    assert len(signatures) == 1
    batch = run_ptm_ensemble(circuits, NOISE)
    for row, circuit in zip(batch, circuits):
        np.testing.assert_allclose(
            row, run_density(circuit, NOISE),
            atol=PTM_DENSITY_AGREEMENT_ATOL, rtol=0.0,
        )


def test_ensemble_contracts_each_group_once_per_operation(fresh_cache):
    # Sixteen members over five gate skeletons (the trailing rz lands on
    # qubit index % 5): each skeleton is one group, and a group costs one
    # contraction per operation position however many members it holds.
    def member(index):
        circuit = tfim(5, steps=2)
        circuit.rz(0.1 + 0.05 * index, index % 5)
        return circuit

    circuits = [member(index) for index in range(16)]
    with use_metrics(MetricsRegistry()) as registry:
        run_ptm_ensemble(circuits, NOISE)
    counters = registry.snapshot()["counters"]
    operations = len(compile_circuit(circuits[0], NOISE).ops)
    assert counters["ptm.ensemble_groups"] == 5
    assert counters["ptm.contractions"] == 5 * operations


def test_ensemble_rejects_empty_and_mixed_widths():
    with pytest.raises(SimulationError, match="no circuits"):
        run_ptm_ensemble([], NOISE)
    with pytest.raises(SimulationError, match="share a qubit count"):
        run_ptm_ensemble([Circuit(2), Circuit(3)], NOISE)


# ---------------------------------------------------------------------------
# Compile cache


def _compile_counts(registry: MetricsRegistry) -> tuple[int, int]:
    counters = registry.snapshot()["counters"]
    return (
        counters.get("ptm.compile_cache_hits", 0),
        counters.get("ptm.compile_cache_misses", 0),
    )


def test_compile_cache_hits_on_repeated_gates(fresh_cache):
    circuit = tfim(3, steps=3)  # Trotter layers repeat the same gates
    with use_metrics(MetricsRegistry()) as registry:
        program = compile_circuit(circuit, NOISE)
        assert isinstance(program, PtmProgram)
        hits, misses = _compile_counts(registry)
        assert misses > 0
        assert hits > misses  # repeats dominate distinct gates
        compile_circuit(circuit, NOISE)  # fully cached second pass
        assert _compile_counts(registry)[1] == misses


def test_compile_cache_distinguishes_noise_models(fresh_cache):
    circuit = Circuit(1)
    circuit.h(0)
    with use_metrics(MetricsRegistry()) as registry:
        compile_circuit(circuit, NoiseModel.from_noise_level(0.01))
        _, misses = _compile_counts(registry)
        compile_circuit(circuit, NoiseModel.from_noise_level(0.05))
        # A different channel is a different entry.
        assert _compile_counts(registry)[1] > misses


def test_compile_cache_does_not_merge_nearby_gates(fresh_cache):
    # Regression: the synthesis cache's 8-decimal rounding would merge
    # these two rotations and silently reuse the wrong PTM.
    a = Circuit(1)
    a.rz(0.5, 0)
    b = Circuit(1)
    b.rz(0.5 + 1e-7, 0)
    run_ptm(a, NOISE)  # warm the cache with the nearby gate
    np.testing.assert_allclose(
        run_ptm(b, NOISE),
        run_density(b, NOISE),
        atol=PTM_DENSITY_AGREEMENT_ATOL, rtol=0.0,
    )


def test_compile_cache_metrics_counters(fresh_cache):
    registry = MetricsRegistry()
    with use_metrics(registry):
        run_ptm_ensemble([tfim(3, steps=2), tfim(3, steps=2)], NOISE)
    snapshot = registry.snapshot()
    counters = snapshot.get("counters", snapshot)
    assert counters.get("ptm.compile_cache_hits", 0) > 0
    assert counters.get("ptm.compile_cache_misses", 0) > 0
    assert counters.get("ptm.contractions", 0) > 0
    assert counters.get("ptm.ensemble_groups", 0) >= 1


# ---------------------------------------------------------------------------
# Validation (resilience integration)


def test_validate_ptm_accepts_honest_ptm():
    gate = np.array([[0, 1], [1, 0]], dtype=complex)
    ptm = unitary_ptm(gate, 1)
    validate_ptm(ptm, 1)  # must not raise


def test_validate_ptm_rejects_trace_violation():
    ptm = unitary_ptm(np.eye(2, dtype=complex), 1)
    ptm = ptm.copy()
    ptm[0, 0] = 1.5  # r_0 no longer preserved
    with pytest.raises(ValidationError, match="trace"):
        validate_ptm(ptm, 1)


def test_validate_ptm_rejects_non_cp_map():
    # Transpose map: trace-preserving but famously not CP.
    ptm = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(ValidationError, match="positiv"):
        validate_ptm(ptm, 1)


def test_validate_ptm_rejects_bad_shape_and_nan():
    with pytest.raises(ValidationError):
        validate_ptm(np.eye(3), 1)
    bad = unitary_ptm(np.eye(2, dtype=complex), 1).copy()
    bad[2, 2] = np.nan
    with pytest.raises(ValidationError):
        validate_ptm(bad, 1)


# ---------------------------------------------------------------------------
# Capacity ceilings (structured refusals)


def test_ptm_over_cap_suggests_trajectories():
    circuit = Circuit(MAX_PTM_QUBITS + 1)
    circuit.h(0)
    with pytest.raises(SimulationCapacityError) as excinfo:
        run_ptm(circuit, NOISE)
    error = excinfo.value
    assert error.engine == "ptm"
    assert error.suggested_engine == "trajectories"


def test_trajectories_over_qubit_cap_refuses():
    circuit = Circuit(MAX_TRAJECTORY_QUBITS + 1)
    circuit.h(0)
    with pytest.raises(SimulationCapacityError) as excinfo:
        run_trajectories(circuit, NOISE)
    assert excinfo.value.engine == "trajectories"
    assert "partition" in str(excinfo.value)


def test_capacity_error_is_a_simulation_error():
    assert issubclass(SimulationCapacityError, SimulationError)


# ---------------------------------------------------------------------------
# Engine dispatch


def test_noisy_distribution_engine_dispatch():
    circuit = tfim(3, steps=1)
    via_ptm = noisy_distribution(circuit, NOISE, engine="ptm")
    via_auto = noisy_distribution(circuit, NOISE, engine="auto")
    np.testing.assert_array_equal(via_auto, via_ptm)  # auto == ptm here
    np.testing.assert_allclose(
        via_ptm,
        run_density(circuit, NOISE),
        atol=PTM_DENSITY_AGREEMENT_ATOL,
        rtol=0.0,
    )


def test_auto_engine_resolves_by_width():
    assert resolve_engine("auto", MAX_PTM_QUBITS) == "ptm"
    assert resolve_engine("auto", MAX_PTM_QUBITS + 1) == "trajectories"
    assert resolve_engine("trajectories", 2) == "trajectories"


def test_noisy_distribution_rejects_unknown_engine():
    # The density simulator is the PTM engine's oracle, not an engine.
    for engine in ("exact", "density"):
        with pytest.raises(SimulationError, match="unknown noise engine"):
            noisy_distribution(tfim(3, steps=1), NOISE, engine=engine)


# ---------------------------------------------------------------------------
# Full-pipeline regression: the engine only touches noisy evaluation


_FAST = dict(
    seed=7,
    max_samples=4,
    max_block_qubits=2,
    max_layers_per_block=3,
    solutions_per_layer=2,
    instantiation_starts=2,
    max_optimizer_iterations=120,
    block_time_budget=10.0,
    threshold_per_block=0.3,
)


def _choices(result):
    return tuple(tuple(int(i) for i in choice) for choice in result.selection.choices)


@pytest.mark.parametrize("circuit_factory", [lambda: tfim(4, steps=2), lambda: qft(4)])
def test_selections_bit_identical_across_engines(circuit_factory):
    result = run_quest(circuit_factory(), QuestConfig(**_FAST))
    choices = _choices(result)

    # The PTM evaluation of the selected ensemble agrees with the exact
    # density reference while attributing its wall time, ``auto`` takes
    # the same batched PTM path, and noisy evaluation leaves the
    # selection untouched.
    ptm_avg = result.noisy_ensemble(NOISE, engine="ptm")
    assert result.timings.noisy_eval_seconds > 0.0
    np.testing.assert_array_equal(result.noisy_ensemble(NOISE), ptm_avg)
    density_avg = average_distributions(
        [run_density(circuit, NOISE) for circuit in result.circuits]
    )
    np.testing.assert_allclose(
        ptm_avg, density_avg, atol=PTM_DENSITY_AGREEMENT_ATOL, rtol=0.0
    )
    assert _choices(result) == choices
