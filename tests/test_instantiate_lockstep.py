"""The lockstep L-BFGS-B driver against its sequential oracle, bit for bit.

``tests/instantiate_oracle.py`` keeps the path the driver replaced: one
``scipy.optimize.minimize`` per start and one instantiation call per
LEAP placement.  Pools, optimizer results and work counters must match
it exactly.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.circuits import random_unitary
from repro.exceptions import BlockTimeoutError, SynthesisError
from repro.observability import MetricsRegistry, use_metrics
from repro.resilience.deadline import block_deadline
from repro.synthesis import Ansatz, LeapConfig, build_leap_ansatz, synthesize
from repro.synthesis.ansatz import AnsatzStack
from repro.synthesis.instantiate import (
    _LbfgsbRun,
    _run_lockstep,
    instantiate_multi,
)
from tests.instantiate_oracle import (
    cost_and_gradient,
    sequential_instantiate_multi,
    sequential_synthesize,
)


def _pool_key(solutions):
    return [
        (
            solution.cnot_count,
            solution.distance,
            [(op.name, tuple(op.qubits)) for op in solution.circuit.operations],
            np.array(
                [p for op in solution.circuit.operations for p in op.params]
            ).tobytes(),
        )
        for solution in solutions
    ]


_POOL_CASES = [
    # (qubits, target_distance, starts, max_layers, other LeapConfig fields)
    (2, 0.05, 1, 3, None),
    (2, 0.05, 3, 3, None),
    (2, None, 2, 3, None),
    (2, None, 3, 2, None),
    (3, 0.1, 2, 2, None),
    (3, 0.1, 3, 3, None),
    (3, None, 1, 2, None),
    (3, None, 3, 2, None),
    (3, 0.2, 2, 3, dict(solutions_per_layer=5, max_optimizer_iterations=60)),
]


@pytest.mark.parametrize(
    "num_qubits, target_distance, starts, max_layers, config_fields", _POOL_CASES
)
def test_pools_are_byte_identical_to_the_sequential_oracle(
    num_qubits, target_distance, starts, max_layers, config_fields
):
    target = random_unitary(2**num_qubits, np.random.default_rng(starts + 10 * num_qubits))
    config = LeapConfig(
        max_layers=max_layers,
        seed=num_qubits + starts,
        instantiation_starts=starts,
        target_distance=target_distance,
        **(config_fields or {}),
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        ours = synthesize(target, config)
    reference = sequential_synthesize(target, config)
    assert _pool_key(ours) == _pool_key(reference)
    # Every layer runs, and tries every qubit pair once.
    pairs = num_qubits * (num_qubits - 1) // 2
    counters = registry.snapshot()["counters"]
    assert counters["leap.layers"] == max_layers
    assert counters["leap.instantiations"] == 1 + max_layers * pairs


def _driver_rows():
    """Same-shape rows that end each way a run can end."""
    ansatz = build_leap_ansatz(2, [(0, 1)])
    # A Clifford target with U(0) = CNOT: Tr(V^dag U(0)) is exactly 0.
    z0 = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    cnot = ansatz.build_circuit(np.zeros(ansatz.num_params)).unitary()
    target = (cnot @ z0).astype(complex)
    rng = np.random.default_rng(7)
    rows = {
        "converges": (rng.uniform(-np.pi, np.pi, ansatz.num_params), 400, None),
        "callback_halt": (rng.uniform(-np.pi, np.pi, ansatz.num_params), 400, 0.2),
        "maxiter": (rng.uniform(-np.pi, np.pi, ansatz.num_params), 3, None),
        "zero_gradient": (np.zeros(ansatz.num_params), 400, None),
    }
    return ansatz, target, rows


def _minimize(ansatz, target, x0, maxiter, halt_below):
    callback = None
    if halt_below is not None:

        def callback(intermediate_result):
            if intermediate_result.fun < halt_below:
                raise StopIteration

    return minimize(
        cost_and_gradient,
        x0,
        args=(ansatz, target.conj(), target.shape[0]),
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": maxiter, "ftol": 1e-15, "gtol": 1e-12},
    )


def test_driver_equals_scipy_minimize_on_every_exit():
    ansatz, target, rows = _driver_rows()
    runs = {
        name: _LbfgsbRun(ansatz, x0, maxiter, halt)
        for name, (x0, maxiter, halt) in rows.items()
    }
    # All four in one lockstep batch: rows must not see each other.
    _run_lockstep(list(runs.values()), target.conj())
    messages = {}
    for name, (x0, maxiter, halt) in rows.items():
        fit = _minimize(ansatz, target, x0, maxiter, halt)
        run = runs[name]
        assert run.x.tobytes() == fit.x.tobytes(), name
        assert run.f == fit.fun, name
        assert run.nit == fit.nit, name
        assert run.nfev == fit.nfev, name
        messages[name] = fit.message
    # Each row really ended the way its name says.
    assert messages["converges"].startswith("CONVERGENCE")
    assert "StopIteration" in messages["callback_halt"]
    assert "ITERATIONS REACHED LIMIT" in messages["maxiter"]
    assert runs["maxiter"].nit == 3
    assert runs["zero_gradient"].nit == 0
    trace, _ = ansatz.trace_and_gradient(rows["zero_gradient"][0], target.conj())
    assert abs(trace) < 1e-14


@pytest.mark.parametrize("stop_at_cost", [None, 1e-3])
def test_multi_template_call_matches_per_template_oracle(stop_at_cost):
    rng = np.random.default_rng(4)
    target = random_unitary(8, rng)
    ansatze = [build_leap_ansatz(3, [(0, 1), p]) for p in [(0, 1), (0, 2), (1, 2)]]
    warm = rng.uniform(-np.pi, np.pi, ansatze[0].num_params - 4)
    kwargs = dict(starts=3, maxiter=60, stop_at_cost=stop_at_cost)
    ours = instantiate_multi(
        ansatze, target, rng=5, initial_params=warm, **kwargs
    )
    oracle_rng = np.random.default_rng(5)
    for ansatz, fits in zip(ansatze, ours):
        padded = np.concatenate([warm, oracle_rng.uniform(-0.1, 0.1, size=4)])
        reference = sequential_instantiate_multi(
            ansatz, target, rng=oracle_rng, initial_params=padded, **kwargs
        )
        assert [f.params.tobytes() for f in fits] == [
            r.params.tobytes() for r in reference
        ]
        assert [f.cost for f in fits] == [r.cost for r in reference]


def test_a_layer_evaluates_every_running_row_in_one_kernel_call(monkeypatch):
    # One LEAP layer, 3 placements x 3 starts.  The sequential oracle
    # makes one kernel call per evaluation; the lockstep driver makes one
    # per round, over every row still running, so its calls number the
    # longest row's evaluations and its rows sum to all of them.
    rng = np.random.default_rng(7)
    target = random_unitary(8, rng)
    ansatze = [build_leap_ansatz(3, [(0, 1), (1, 2), p]) for p in [(0, 1), (0, 2), (1, 2)]]
    warm = rng.uniform(-np.pi, np.pi, ansatze[0].num_params - 4)
    kwargs = dict(starts=3, maxiter=400, stop_at_cost=1e-3)
    log: list = []
    oracle_rng = np.random.default_rng(5)
    for ansatz in ansatze:
        padded = np.concatenate([warm, oracle_rng.uniform(-0.1, 0.1, size=4)])
        sequential_instantiate_multi(
            ansatz, target, rng=oracle_rng, initial_params=padded, log=log, **kwargs
        )
    evaluations = [fit.nfev for fit in log]

    rows_per_call = []
    kernel = Ansatz.trace_and_gradient

    def counting(self, params, target_conj):
        rows_per_call.append(len(params))
        return kernel(self, params, target_conj)

    monkeypatch.setattr(Ansatz, "trace_and_gradient", counting)
    instantiate_multi(ansatze, target, rng=5, initial_params=warm, **kwargs)
    assert len(evaluations) == rows_per_call[0] == 9
    assert rows_per_call == sorted(rows_per_call, reverse=True)
    assert len(rows_per_call) == max(evaluations) < sum(evaluations)
    assert sum(rows_per_call) == sum(evaluations)


def test_work_counters_equal_the_oracle_sums():
    target = random_unitary(8, np.random.default_rng(2))
    config = LeapConfig(max_layers=2, seed=3, target_distance=0.1)
    registry = MetricsRegistry()
    with use_metrics(registry):
        synthesize(target, config)
    log: list = []
    sequential_synthesize(target, config, log=log)
    counters = registry.snapshot()["counters"]
    assert counters["instantiate.iterations"] == sum(fit.nit for fit in log)
    assert counters["costgrad.calls"] == sum(fit.nfev for fit in log)
    assert counters["instantiate.starts"] == len(log)


def test_counters_are_not_recorded_without_metrics(monkeypatch):
    # Under the disabled registry nothing is counted at all.
    calls = []
    monkeypatch.setattr(
        "repro.observability.metrics.NullMetrics.inc",
        lambda self, name, value=1: calls.append(name),
    )
    synthesize(random_unitary(4, np.random.default_rng(0)), LeapConfig(max_layers=1, seed=0))
    assert calls == []


def test_expired_deadline_raises_within_one_round(monkeypatch):
    kernel = Ansatz.trace_and_gradient
    batches = []

    def slow_kernel(self, params, target_conj):
        batches.append(np.shape(params))
        time.sleep(0.2)  # the first round outlives the deadline
        return kernel(self, params, target_conj)

    monkeypatch.setattr(Ansatz, "trace_and_gradient", slow_kernel)
    target = random_unitary(8, np.random.default_rng(1))
    ansatze = [build_leap_ansatz(3, [p]) for p in [(0, 1), (0, 2), (1, 2)]]
    with block_deadline(0.1), pytest.raises(BlockTimeoutError):
        instantiate_multi(ansatze, target, rng=0, starts=3, stop_at_cost=1e-6)
    # One stacked call over all nine rows, then the next round's check.
    assert batches == [(9, ansatze[0].num_params)]


def test_stack_rejects_templates_of_different_shape():
    with pytest.raises(SynthesisError, match="share"):
        AnsatzStack([build_leap_ansatz(2, [(0, 1)]), build_leap_ansatz(2, [])])
    with pytest.raises(SynthesisError, match="at least one"):
        AnsatzStack([])
