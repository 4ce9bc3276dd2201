"""Frozen sequential reference for instantiation and the LEAP layer loop.

:mod:`repro.synthesis.instantiate` runs every start of every placement of
a LEAP layer in lockstep on scipy's L-BFGS-B core.  This module keeps
the path it replaced — one ``scipy.optimize.minimize`` call per start,
one ``instantiate_multi`` call per placement — as the oracle the tests
hold it to, bit for bit.  ``log`` (a list) collects every start's
``OptimizeResult`` in run order, for its ``nit`` and ``nfev``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import SynthesisError
from repro.synthesis.ansatz import all_placements, build_leap_ansatz
from repro.synthesis.instantiate import InstantiationResult, _cost_and_gradient
from repro.synthesis.leap import (
    LeapConfig,
    SynthesisReport,
    SynthesisSolution,
    _one_qubit_solution,
)


def sequential_instantiate_multi(
    ansatz,
    target: np.ndarray,
    rng=None,
    starts: int = 3,
    maxiter: int = 400,
    initial_params: np.ndarray | None = None,
    success_cost: float = 1e-12,
    stop_at_cost: float | None = None,
    log: list | None = None,
) -> list[InstantiationResult]:
    """One template, one ``minimize`` per start, best-first results."""
    dim = target.shape[0]
    if starts < 1:
        raise SynthesisError("need at least one optimization start")
    rng = np.random.default_rng(rng)
    target_conj = target.conj()
    results: list[InstantiationResult] = []
    for start in range(starts):
        if start == 0 and initial_params is not None:
            x0 = np.asarray(initial_params, dtype=float)
        else:
            x0 = rng.uniform(-np.pi, np.pi, size=ansatz.num_params)
        callback = None
        if stop_at_cost is not None and start > 0:

            def callback(intermediate_result):
                if intermediate_result.fun < stop_at_cost:
                    raise StopIteration

        fit = minimize(
            _cost_and_gradient,
            x0,
            args=(ansatz, target_conj, dim),
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={"maxiter": maxiter, "ftol": 1e-15, "gtol": 1e-12},
        )
        if log is not None:
            log.append(fit)
        results.append(
            InstantiationResult(
                params=np.asarray(fit.x, dtype=float),
                cost=max(0.0, float(fit.fun)),
            )
        )
        if stop_at_cost is None and results[-1].cost <= success_cost:
            break
    results.sort(key=lambda r: r.cost)
    return results


def sequential_synthesize(
    target: np.ndarray, config: LeapConfig | None = None, log: list | None = None
) -> SynthesisReport:
    """LEAP with one ``sequential_instantiate_multi`` call per placement.

    Covers the pool-building part of :func:`repro.synthesis.synthesize`
    (no tracer events, metrics or time budget).
    """
    config = config or LeapConfig()
    dim = target.shape[0]
    num_qubits = int(np.log2(dim))
    report = SynthesisReport()
    if num_qubits == 1:
        solution = _one_qubit_solution(target)
        report.solutions = [solution]
        report.best = solution
        return report

    start_time = time.monotonic()
    rng = np.random.default_rng(config.seed)
    placements = sorted(
        {tuple(sorted(p)) for p in all_placements(num_qubits, config.coupling)}
    )
    pool: list[SynthesisSolution] = []
    ansatz0 = build_leap_ansatz(num_qubits, [], config.layer_rotations)
    result0 = sequential_instantiate_multi(
        ansatz0,
        target,
        rng=rng,
        starts=config.instantiation_starts,
        maxiter=config.max_optimizer_iterations,
        log=log,
    )[0]
    report.instantiations += 1
    pool.append(
        SynthesisSolution(
            circuit=ansatz0.build_circuit(result0.params),
            distance=result0.distance,
            cnot_count=0,
        )
    )
    best_structure: list[tuple[int, int]] = []
    best_params = result0.params
    for layer in range(1, config.max_layers + 1):
        layer_entries = []
        for placement in placements:
            ansatz = build_leap_ansatz(
                num_qubits, best_structure + [placement], config.layer_rotations
            )
            new_param_count = ansatz.num_params - len(best_params)
            warm = np.concatenate(
                [best_params, rng.uniform(-0.1, 0.1, size=new_param_count)]
            )
            fits = sequential_instantiate_multi(
                ansatz,
                target,
                rng=rng,
                starts=config.instantiation_starts,
                maxiter=config.max_optimizer_iterations,
                initial_params=warm,
                stop_at_cost=config.target_cost,
                log=log,
            )
            report.instantiations += 1
            for fit in fits:
                solution = SynthesisSolution(
                    circuit=ansatz.build_circuit(fit.params),
                    distance=fit.distance,
                    cnot_count=layer,
                )
                layer_entries.append((fit.distance, solution, fit.params, placement))
        layer_entries.sort(key=lambda entry: entry[0])
        pool.extend(entry[1] for entry in layer_entries[: config.solutions_per_layer])
        best_distance, _, best_params, best_placement = layer_entries[0]
        best_structure = best_structure + [best_placement]
        report.layers_explored = layer
        if best_distance <= config.success_threshold and config.stop_when_exact:
            break
    pool.sort(key=lambda s: (s.cnot_count, s.distance))
    report.solutions = pool
    report.best = min(pool, key=lambda s: s.distance)
    report.elapsed_seconds = time.monotonic() - start_time
    return report
