"""Numerical instantiation: fit a template's angles to a target unitary.

Minimizes the phase-invariant Hilbert-Schmidt cost

    f(theta) = 1 - |Tr(V^dag U(theta))| / N

with L-BFGS-B and the analytic gradient of ``Tr(V^dag U)`` from
:meth:`repro.synthesis.ansatz.Ansatz.trace_and_gradient`.  A small
multistart loop (warm start plus fresh random restarts) guards against
local minima, mirroring how LEAP re-seeds its optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import SynthesisError
from repro.observability import get_metrics
from repro.resilience.deadline import check_deadline
from repro.synthesis.ansatz import Ansatz


@dataclass(frozen=True)
class InstantiationResult:
    """Best parameters found for one template against one target."""

    params: np.ndarray
    cost: float

    @property
    def distance(self) -> float:
        """HS process distance implied by the cost: sqrt(1 - (1-f)^2)."""
        overlap = 1.0 - self.cost
        return float(np.sqrt(max(0.0, 1.0 - overlap * overlap)))


def _cost_and_gradient(
    params: np.ndarray, ansatz: Ansatz, target_conj: np.ndarray, dim: int
) -> tuple[float, np.ndarray]:
    # Tr(V^dag U) == sum(conj(V) * U) elementwise; the ansatz contracts
    # each per-parameter derivative against the target itself.
    trace, dtraces = ansatz.trace_and_gradient(params, target_conj)
    magnitude = abs(trace)
    cost = 1.0 - magnitude / dim
    if magnitude < 1e-14:
        # The phase direction is undefined at |t| = 0; a zero gradient lets
        # the optimizer escape via its own line-search perturbations.
        return cost, np.zeros(ansatz.num_params)
    phase = np.conj(trace) / magnitude
    grad = -np.real(phase * dtraces) / dim
    return cost, grad


def instantiate_multi(
    ansatz: Ansatz,
    target: np.ndarray,
    rng: np.random.Generator | int | None = None,
    starts: int = 3,
    maxiter: int = 400,
    initial_params: np.ndarray | None = None,
    success_cost: float = 1e-12,
    stop_at_cost: float | None = None,
) -> list[InstantiationResult]:
    """Fit ``ansatz`` to ``target``, returning one result per start.

    ``initial_params`` (if given) is used as the first, warm start —
    LEAP's prefix re-seeding passes the previous layer's optimum extended
    with small random angles for the new slots.  Remaining starts are
    random in ``[-pi, pi)``; distinct starts often converge to distinct
    local minima, which QUEST exploits as dissimilar approximations of
    the same CNOT count.  The loop exits early once ``success_cost`` is
    reached.  Results are sorted best-first.

    ``stop_at_cost`` implements approximate synthesis's threshold
    stopping (paper Sec. 3.5): each start halts as soon as its cost drops
    below the target, so different starts land at *different points on
    the epsilon-sphere* around the target unitary — the source of the
    mathematically dissimilar approximations QUEST averages over
    (Fig. 6).  The first start always optimizes fully so the pool also
    contains the best achievable solution at this CNOT count.
    """
    dim = target.shape[0]
    if target.shape != (dim, dim) or dim != 2**ansatz.num_qubits:
        raise SynthesisError(
            f"target shape {target.shape} does not match a "
            f"{ansatz.num_qubits}-qubit ansatz"
        )
    if starts < 1:
        raise SynthesisError("need at least one optimization start")
    rng = np.random.default_rng(rng)
    target_conj = target.conj()

    results: list[InstantiationResult] = []
    for start in range(starts):
        # Per-start granularity of the cooperative block deadline: a
        # deadline overshoots by at most one L-BFGS run, which the
        # executor's hard-timeout grace already budgets for.
        check_deadline()
        if start == 0 and initial_params is not None:
            x0 = np.asarray(initial_params, dtype=float)
            if len(x0) != ansatz.num_params:
                raise SynthesisError(
                    f"initial_params has {len(x0)} entries, template needs "
                    f"{ansatz.num_params}"
                )
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
        results.append(
            InstantiationResult(
                params=np.asarray(fit.x, dtype=float),
                cost=max(0.0, float(fit.fun)),
            )
        )
        if stop_at_cost is None and results[-1].cost <= success_cost:
            break
    results.sort(key=lambda r: r.cost)
    # Metrics only — this is the pipeline's innermost loop, and per-start
    # trace events would dwarf everything else in the stream.
    metrics = get_metrics()
    if metrics.is_enabled:
        metrics.inc("instantiate.starts", len(results))
        metrics.observe("instantiate.best_cost", results[0].cost)
    return results


def instantiate(
    ansatz: Ansatz,
    target: np.ndarray,
    rng: np.random.Generator | int | None = None,
    starts: int = 3,
    maxiter: int = 400,
    initial_params: np.ndarray | None = None,
    success_cost: float = 1e-12,
) -> InstantiationResult:
    """Fit ``ansatz`` to ``target``, returning the best of several starts."""
    return instantiate_multi(
        ansatz,
        target,
        rng=rng,
        starts=starts,
        maxiter=maxiter,
        initial_params=initial_params,
        success_cost=success_cost,
    )[0]
