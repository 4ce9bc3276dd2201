"""Frozen sequential reference for instantiation and the LEAP layer loop.

:mod:`repro.synthesis.instantiate` runs every start of every placement of
a LEAP layer in lockstep on scipy's L-BFGS-B core.  This module keeps
the path it replaced — one ``scipy.optimize.minimize`` call per start,
one ``instantiate_multi`` call per placement — as the oracle the tests
hold it to, bit for bit, together with the per-row cost formula
(:func:`cost_from_trace`) that the driver's one-pass round scorer
replaced.  ``log`` (a list) collects every start's ``OptimizeResult`` in
run order, for its ``nit`` and ``nfev``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import SynthesisError
from repro.synthesis.ansatz import build_leap_ansatz
from repro.synthesis.instantiate import InstantiationResult
from repro.synthesis.leap import LeapConfig, SynthesisSolution, _one_qubit_solution


def cost_from_trace(trace: complex, dtraces: np.ndarray, dim: int):
    """Cost and gradient of one parameter row from its trace and the
    trace's derivatives: the per-row form of the lockstep driver's
    round scorer (``repro.synthesis.instantiate._score_round``)."""
    magnitude = abs(trace)
    cost = 1.0 - magnitude / dim
    if magnitude < 1e-14:
        # The phase direction is undefined at |t| = 0; a zero gradient lets
        # the optimizer escape via its own line-search perturbations.
        return cost, np.zeros(len(dtraces))
    phase = np.conj(trace) / magnitude
    grad = -np.real(phase * dtraces) / dim
    return cost, grad


def cost_and_gradient(params, ansatz, target_conj, dim):
    """One parameter row's cost and gradient, the scalar objective a lone
    ``scipy.optimize.minimize`` call sees."""
    # Tr(V^dag U) == sum(conj(V) * U) elementwise; the ansatz contracts
    # each per-parameter derivative against the target itself.
    trace, dtraces = ansatz.trace_and_gradient(params, target_conj)
    return cost_from_trace(trace, dtraces, dim)


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
            cost_and_gradient,
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
) -> list[SynthesisSolution]:
    """LEAP with one ``sequential_instantiate_multi`` call per placement.

    Covers the pool-building part of :func:`repro.synthesis.synthesize`
    (no tracer events or metrics).
    """
    config = config or LeapConfig()
    dim = target.shape[0]
    num_qubits = int(np.log2(dim))
    if num_qubits == 1:
        return [_one_qubit_solution(target)]

    rng = np.random.default_rng(config.seed)
    placements = list(itertools.combinations(range(num_qubits), 2))
    pool: list[SynthesisSolution] = []
    ansatz0 = build_leap_ansatz(num_qubits, [])
    result0 = sequential_instantiate_multi(
        ansatz0,
        target,
        rng=rng,
        starts=config.instantiation_starts,
        maxiter=config.max_optimizer_iterations,
        log=log,
    )[0]
    pool.append(SynthesisSolution(num_qubits, (), result0.params, result0.distance))
    best_structure: list[tuple[int, int]] = []
    best_params = result0.params
    for _ in range(config.max_layers):
        layer_entries = []
        for placement in placements:
            ansatz = build_leap_ansatz(num_qubits, best_structure + [placement])
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
            structure = tuple(best_structure) + (placement,)
            for fit in fits:
                solution = SynthesisSolution(
                    num_qubits, structure, fit.params, fit.distance
                )
                layer_entries.append((fit.distance, solution, fit.params, placement))
        layer_entries.sort(key=lambda entry: entry[0])
        pool.extend(entry[1] for entry in layer_entries[: config.solutions_per_layer])
        _, _, best_params, best_placement = layer_entries[0]
        best_structure = best_structure + [best_placement]
    pool.sort(key=lambda s: (s.cnot_count, s.distance))
    return pool
