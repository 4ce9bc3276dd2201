"""Numerical instantiation: fit a template's angles to a target unitary.

Minimizes the phase-invariant Hilbert-Schmidt cost

    f(theta) = 1 - |Tr(V^dag U(theta))| / N

with L-BFGS-B and the analytic gradient of ``Tr(V^dag U)`` from
:meth:`repro.synthesis.ansatz.Ansatz.trace_and_gradient`.  A small
multistart loop (warm start plus fresh random restarts) guards against
local minima, mirroring how LEAP re-seeds its optimizer.

Every start is one L-BFGS-B run on scipy's own reverse-communication
core (``setulb``), driven by the loop of ``scipy.optimize.minimize``'s
L-BFGS-B method.  The runs of all starts of all templates given to
:func:`instantiate_multi` advance in lockstep: each round, every run
that asks for a cost and gradient is evaluated by one stacked kernel
call (:class:`repro.synthesis.ansatz.AnsatzStack`).  Each run keeps its
own optimizer state and its own scalar cost formula, so it takes exactly
the steps ``minimize`` would take for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Not called here, but bound: the benchmark harness
# (benchmarks/harness/layers.py) looks this name up in this module.
from scipy.optimize import minimize  # noqa: F401
from scipy.optimize._lbfgsb import setulb

from repro.exceptions import SynthesisError
from repro.observability import get_record
from repro.resilience.deadline import check_deadline
from repro.synthesis.ansatz import Ansatz, AnsatzStack

#: L-BFGS-B settings of every run: ``minimize(method="L-BFGS-B")``'s
#: defaults (``maxcor=10``, ``maxls=20``, ``maxfun=15000``) with the
#: options ``ftol=1e-15`` and ``gtol=1e-12``.
_MAXCOR = 10
_MAXLS = 20
_MAXFUN = 15000
_FACTR = 1e-15 / np.finfo(float).eps
_PGTOL = 1e-12

#: Half-width of the uniform angles that extend a short warm start
#: (LEAP's prefix re-seeding of each new layer's rotations).
WARM_SPREAD = 0.1

#: ``setulb`` task codes (``task[0]``) and the stop reasons
#: (``task[1]``) the driver sets itself.
_TASK_FG, _TASK_NEW_X, _TASK_STOP = 3, 1, 5
_STOP_MAXFUN, _STOP_MAXITER, _STOP_CALLBACK = 502, 504, 505


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


def _cost_from_trace(
    trace: complex, dtraces: np.ndarray, dim: int
) -> tuple[float, np.ndarray]:
    """Cost and gradient of one parameter row from its trace and the
    trace's derivatives."""
    magnitude = abs(trace)
    cost = 1.0 - magnitude / dim
    if magnitude < 1e-14:
        # The phase direction is undefined at |t| = 0; a zero gradient lets
        # the optimizer escape via its own line-search perturbations.
        return cost, np.zeros(len(dtraces))
    phase = np.conj(trace) / magnitude
    grad = -np.real(phase * dtraces) / dim
    return cost, grad


class _LbfgsbRun:
    """One L-BFGS-B run on ``setulb``, advanced by its caller.

    The state arrays and the loop of :meth:`advance` copy
    ``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` without bounds,
    including its memoization: a request for the cost at the point last
    evaluated reuses that evaluation.  ``halt_below`` plays the
    ``stop_at_cost`` callback that halts once the cost drops below it.
    """

    def __init__(
        self, ansatz: Ansatz, x0: np.ndarray, maxiter: int, halt_below: float | None
    ) -> None:
        n, m = len(x0), _MAXCOR
        self.ansatz = ansatz
        self.maxiter = maxiter
        self.halt_below = halt_below
        self.x = np.array(x0, dtype=np.float64)
        self.f = np.array(0.0, dtype=np.float64)
        self.g = np.zeros(n, dtype=np.float64)
        self.nit = 0
        self.nfev = 0
        self._bounds = (np.zeros(n), np.zeros(n), np.zeros(n, np.int32))
        self._wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self._iwa = np.zeros(3 * n, dtype=np.int32)
        self._task = np.zeros(2, dtype=np.int32)
        self._ln_task = np.zeros(2, dtype=np.int32)
        self._lsave = np.zeros(4, dtype=np.int32)
        self._isave = np.zeros(44, dtype=np.int32)
        self._dsave = np.zeros(29)
        self._evaluated: tuple | None = None

    def evaluated(self, x: np.ndarray, f: float, g: np.ndarray) -> None:
        """Take the cost and gradient at ``x`` (a copy of :attr:`x`)."""
        self._evaluated = (x, f, g)
        self.nfev += 1
        if self._task[0] == _TASK_FG:
            self.f, self.g = f, g

    def advance(self) -> bool:
        """Step until the core asks for a point not yet evaluated (True)
        or the run has stopped (False)."""
        task = self._task
        low, high, kinds = self._bounds
        while True:
            self.g = self.g.astype(np.float64)
            setulb(
                _MAXCOR, self.x, low, high, kinds, self.f, self.g, _FACTR, _PGTOL,
                self._wa, self._iwa, task, self._lsave, self._isave, self._dsave,
                _MAXLS, self._ln_task,
            )
            if task[0] == _TASK_FG:
                x, f, g = self._evaluated
                if not np.array_equal(self.x, x):
                    return True
                self.f, self.g = f, g
            elif task[0] == _TASK_NEW_X:
                self.nit += 1
                if self.halt_below is not None and self.f < self.halt_below:
                    task[0], task[1] = _TASK_STOP, _STOP_CALLBACK
                if self.nit >= self.maxiter:
                    task[0], task[1] = _TASK_STOP, _STOP_MAXITER
                elif self.nfev > _MAXFUN:
                    task[0], task[1] = _TASK_STOP, _STOP_MAXFUN
            else:
                return False

    def result(self) -> InstantiationResult:
        return InstantiationResult(
            params=np.asarray(self.x, dtype=float), cost=max(0.0, float(self.f))
        )


def _run_lockstep(runs: list[_LbfgsbRun], target_conj: np.ndarray) -> None:
    """Drive ``runs`` to completion, one stacked kernel call per round.

    Every run first needs its start point evaluated; after that a round
    evaluates exactly the runs still going, so the set only shrinks and
    its :class:`AnsatzStack` is rebuilt only when it does.
    """
    dim = target_conj.shape[0]
    pending = list(runs)
    stacked = 0
    while pending:
        # Per-round granularity of the cooperative block deadline: a
        # deadline overshoots by at most one kernel call plus one
        # optimizer step per run, well inside the executor's grace.
        check_deadline()
        if len(pending) != stacked:
            stacked = len(pending)
            members = [run.ansatz for run in pending]
            # A lone template is already a stack of one.
            stack = members[0] if stacked == 1 else AnsatzStack(members)
        params = np.array([run.x for run in pending])
        traces, dtraces = stack.trace_and_gradient(params, target_conj)
        for run, x, trace, row in zip(pending, params, traces.tolist(), dtraces):
            run.evaluated(x, *_cost_from_trace(trace, row, dim))
        pending = [run for run in pending if run.advance()]


def instantiate_multi(
    ansatz: Ansatz | list[Ansatz],
    target: np.ndarray,
    rng: np.random.Generator | int | None = None,
    starts: int = 3,
    maxiter: int = 400,
    initial_params: np.ndarray | None = None,
    success_cost: float = 1e-12,
    stop_at_cost: float | None = None,
) -> list[InstantiationResult] | list[list[InstantiationResult]]:
    """Fit ``ansatz`` to ``target``, returning one result per start.

    ``ansatz`` may also be a list of same-shape templates (the CNOT
    placements of one LEAP layer); every template then gets ``starts``
    starts and the return value is one result list per template.

    ``initial_params`` (if given) is used as each template's first, warm
    start.  An ``initial_params`` shorter than a template is extended
    with ``U(-WARM_SPREAD, WARM_SPREAD)`` angles for its remaining
    parameters — LEAP's prefix re-seeding passes the previous layer's
    optimum this way.  Remaining starts are random in
    ``[-pi, pi)``; distinct starts often converge to distinct local
    minima, which QUEST exploits as dissimilar approximations of the
    same CNOT count.  Random numbers are drawn template by template, the
    warm-start extension before the random starts.  Each result list is
    sorted best-first.

    ``stop_at_cost`` implements approximate synthesis's threshold
    stopping (paper Sec. 3.5): each start halts as soon as its cost drops
    below the target, so different starts land at *different points on
    the epsilon-sphere* around the target unitary — the source of the
    mathematically dissimilar approximations QUEST averages over
    (Fig. 6).  The first start always optimizes fully so the pool also
    contains the best achievable solution at this CNOT count.  Every
    start of every template is then known up front, and all of them run
    in lockstep.

    Without ``stop_at_cost``, a template's starts run one at a time and
    stop early once one reaches ``success_cost``; a start that is not
    needed is never drawn.
    """
    templates = [ansatz] if isinstance(ansatz, Ansatz) else list(ansatz)
    dim = target.shape[0]
    for template in templates:
        if target.shape != (dim, dim) or dim != 2**template.num_qubits:
            raise SynthesisError(
                f"target shape {target.shape} does not match a "
                f"{template.num_qubits}-qubit ansatz"
            )
    if starts < 1:
        raise SynthesisError("need at least one optimization start")
    rng = np.random.default_rng(rng)
    target_conj = target.conj()

    def start_run(template: Ansatz, start: int) -> _LbfgsbRun:
        if start == 0 and initial_params is not None:
            x0 = np.asarray(initial_params, dtype=float)
            if len(x0) < template.num_params:
                spread = rng.uniform(
                    -WARM_SPREAD, WARM_SPREAD, size=template.num_params - len(x0)
                )
                x0 = np.concatenate([x0, spread])
            if len(x0) != template.num_params:
                raise SynthesisError(
                    f"initial_params has {len(x0)} entries, template needs "
                    f"{template.num_params}"
                )
        else:
            x0 = rng.uniform(-np.pi, np.pi, size=template.num_params)
        halt = stop_at_cost if start > 0 else None
        return _LbfgsbRun(template, x0, maxiter, halt)

    runs: list[list[_LbfgsbRun]] = []
    if stop_at_cost is not None:
        runs = [[start_run(t, s) for s in range(starts)] for t in templates]
        _run_lockstep([run for row in runs for run in row], target_conj)
    else:
        for template in templates:
            runs.append([])
            for start in range(starts):
                run = start_run(template, start)
                _run_lockstep([run], target_conj)
                runs[-1].append(run)
                if run.result().cost <= success_cost:
                    break

    results = []
    for template_runs in runs:
        fits = sorted((run.result() for run in template_runs), key=lambda r: r.cost)
        results.append(fits)
    # Counts only: this is the pipeline's innermost loop, and per-start
    # trace events would dwarf everything else in the stream.
    record = get_record()
    for template_runs, fits in zip(runs, results):
        record.inc("instantiate.starts", len(fits))
        record.inc("instantiate.iterations", sum(run.nit for run in template_runs))
        record.inc("costgrad.calls", sum(run.nfev for run in template_runs))
        record.observe("instantiate.best_cost", fits[0].cost)
    return results[0] if isinstance(ansatz, Ansatz) else results


def instantiate(
    ansatz: Ansatz,
    target: np.ndarray,
    rng: np.random.Generator | int | None = None,
    starts: int = 3,
    maxiter: int = 400,
    success_cost: float = 1e-12,
) -> InstantiationResult:
    """Fit ``ansatz`` to ``target``, returning the best of several starts."""
    return instantiate_multi(
        ansatz,
        target,
        rng=rng,
        starts=starts,
        maxiter=maxiter,
        success_cost=success_cost,
    )[0]
