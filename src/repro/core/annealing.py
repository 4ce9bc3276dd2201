"""The dual-annealing selection engine (paper Sec. 3.6 "Putting it together").

Selection is sequential: the first dual-annealing run (empty selected
set) returns the feasible approximation with the lowest CNOT count; each
subsequent run scores dissimilarity against everything selected so far.
The loop stops at ``max_samples`` (M = 16 in the paper) or as soon as the
engine returns an already-selected circuit.

Small search spaces skip the annealer entirely: they are enumerated
exactly, in chunks, through the objective's batched scorer — which is why
the exhaustive cutoff can sit at 65536 points instead of the few hundred
a per-point Python loop could afford.

Larger spaces run :func:`dual_annealing`: scipy's generalized simulated
annealing without local search (``scipy.optimize.dual_annealing(...,
no_local_search=True)``) over the box ``[0, size_b - 1e-9)`` per block,
whose points floor to candidate indices.  It is written out here so that
it scores integer choices through the objective's
:class:`~repro.core.objective.ChoiceScorer` instead of a Python call per
continuous point; it draws from the generator in scipy's order and
calls ``np.exp``/``np.log`` wherever scipy does, so every choice, score
and evaluation count equals scipy's over ``SelectionObjective.__call__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.objective import ChoiceScorer, SelectionObjective
from repro.exceptions import SelectionError
from repro.observability import get_record

#: Search spaces up to this many points are enumerated exactly.
EXHAUSTIVE_CUTOFF = 65536

#: Temperature steps of each annealing run.
ANNEALING_MAXITER = 200

#: Choice vectors scored per ``evaluate_batch`` call during enumeration
#: (bounds peak memory at chunk x num_blocks indices).
_ENUMERATION_CHUNK = 8192

# scipy.optimize.dual_annealing's defaults and constants.
_INITIAL_TEMP = 5230.0
_RESTART_TEMP_RATIO = 2.0e-5
_VISIT = 2.62
_ACCEPT = -5.0
#: Evaluations after which a run stops.
_MAXFUN = 10**7
#: Visits longer than this are replaced by a uniform fraction of it.
_TAIL_LIMIT = 1.0e8
#: Coordinates this close to the box's lower edge are nudged inside.
_MIN_VISIT_BOUND = 1.0e-10

# The visiting distribution's constants (Tsallis & Stariolo's
# distorted Cauchy-Lorentz distribution), computed as scipy does.
_FACTOR2 = np.exp((4.0 - _VISIT) * np.log(_VISIT - 1.0))
_FACTOR3 = np.exp((2.0 - _VISIT) * np.log(2.0) / (_VISIT - 1.0))
_FACTOR4_P = np.sqrt(np.pi) * _FACTOR2 / (_FACTOR3 * (3.0 - _VISIT))
_FACTOR5 = 1.0 / (_VISIT - 1.0) - 0.5
#: ``scipy.special.gammaln(2 - _FACTOR5)``, the value scipy computes, as
#: a literal: importing ``scipy.special`` for one constant costs every
#: process about 26 MiB, and ``math.lgamma`` differs from it in the last
#: bit, which would move every annealed choice.
_GAMMALN_2_MINUS_FACTOR5 = float.fromhex("-0x1.70f23f9f9b200p-5")
_FACTOR6 = (
    np.pi
    * (1.0 - _FACTOR5)
    / np.sin(np.pi * (1.0 - _FACTOR5))
    / np.exp(_GAMMALN_2_MINUS_FACTOR5)
)


@dataclass
class SelectionResult:
    """Chosen approximations, as integer candidate indices per block."""

    choices: list[np.ndarray] = field(default_factory=list)
    cnot_counts: list[int] = field(default_factory=list)
    bounds: list[float] = field(default_factory=list)
    objective_values: list[float] = field(default_factory=list)

    @property
    def num_selected(self) -> int:
        """Number of selected full-circuit approximations."""
        return len(self.choices)


def _search_space_size(objective: SelectionObjective) -> int:
    size = 1
    for pool in objective.pools:
        size *= pool.size
        if size > 10**9:
            break
    return size


def _enumerate_chunk(
    start: int, stop: int, sizes: np.ndarray, strides: np.ndarray
) -> np.ndarray:
    """Rows ``start..stop`` of the cartesian product over pool sizes.

    Row ``k`` decodes the mixed-radix integer ``k`` with block 0 as the
    least-significant digit — the same ordering as the historical
    odometer loop, so first-minimum tie-breaking is unchanged.
    """
    ks = np.arange(start, stop, dtype=np.int64)
    return (ks[:, None] // strides[None, :]) % sizes[None, :]


def _exhaustive_minimum(objective: SelectionObjective) -> np.ndarray:
    """Brute-force the best choice (used for small search spaces).

    Enumerates the whole cartesian product in chunks through
    ``evaluate_batch``; ties resolve to the first minimum in enumeration
    order, exactly like the scalar odometer this replaces.
    """
    sizes = np.array([pool.size for pool in objective.pools], dtype=np.int64)
    strides = np.concatenate(([1], np.cumprod(sizes[:-1])))
    total = int(np.prod(sizes))
    best_value = np.inf
    best_choice: np.ndarray | None = None
    for start in range(0, total, _ENUMERATION_CHUNK):
        choices = _enumerate_chunk(
            start, min(start + _ENUMERATION_CHUNK, total), sizes, strides
        )
        values = objective.evaluate_batch(choices)
        position = int(np.argmin(values))
        if values[position] < best_value:
            best_value = float(values[position])
            best_choice = choices[position].astype(int)
    assert best_choice is not None
    return best_choice


@dataclass(frozen=True)
class AnnealedChoice:
    """The best choice of one annealing run and its evaluation count."""

    choice: np.ndarray
    value: float
    evaluations: int


def _wrap(point: float, width: float) -> float:
    """Fold a coordinate into the box ``[0, width)`` as scipy does.

    ``fmod`` is exact, so ``math.fmod`` equals scipy's ``np.fmod``; a
    coordinate is finite or NaN here, never infinite.
    """
    point = math.fmod(math.fmod(point, width) + width, width)
    return point + _MIN_VISIT_BOUND if point < _MIN_VISIT_BOUND else point


def _floor(point: float) -> int:
    """The candidate index of a box coordinate (NaN floors to 0)."""
    return int(point) if point == point else 0


def dual_annealing(
    scorer: ChoiceScorer,
    maxiter: int,
    rng: np.random.Generator,
) -> AnnealedChoice:
    """Anneal ``scorer`` from the all-original choice, as scipy would.

    Equals ``scipy.optimize.dual_annealing(f, bounds, maxiter=maxiter,
    rng=rng, no_local_search=True, x0=[0.5] * n)`` with
    ``bounds[b] = (0, size_b - 1e-9)`` and ``f`` the objective's
    ``__call__`` of the point floored into every pool — same draws,
    visits, acceptances, re-annealing, best choice and evaluation
    count — but scores each visit through the
    scorer: a visit that moves one coordinate moves the key by one
    code, and a visit's score is a dictionary lookup after its first
    time.  ``rng.random`` and ``rng.standard_normal`` draw the values
    scipy's ``rng.uniform()`` and ``rng.normal`` do.
    """
    codes = scorer.codes
    dim = len(codes)
    spans = [len(row) - 1e-9 for row in codes]
    value, feasible = scorer.value, scorer.feasible
    check = not scorer.always_feasible

    location = [0.5] * dim
    choice = [_floor(point) for point in location]
    key = scorer.key(choice)
    current = 1.0 if check and not feasible(choice) else value(key)
    evaluations = 1
    best, best_choice = current, choice
    t1 = np.exp((_VISIT - 1) * np.log(2.0)) - 1.0
    iteration = step = 0
    while iteration < maxiter:
        temperature = _INITIAL_TEMP * t1 / (
            np.exp((_VISIT - 1) * np.log(step + 2.0)) - 1.0
        )
        if temperature < _INITIAL_TEMP * _RESTART_TEMP_RATIO:
            # Re-anneal from a random point; the best so far stays.
            location = rng.uniform(np.zeros(dim), spans, size=dim).tolist()
            choice = [_floor(point) for point in location]
            key = scorer.key(choice)
            current = 1.0 if check and not feasible(choice) else value(key)
            evaluations += 1
            step = 0
            continue
        temperature_step = float(temperature / (step + 1))
        factor4 = _FACTOR4_P * np.exp(np.log(temperature) / (_VISIT - 1.0))
        scale = float(
            np.exp(-(_VISIT - 1.0) * np.log(_FACTOR6 / factor4) / (3.0 - _VISIT))
        )
        for j in range(2 * dim):
            if j < dim:
                # The first ``dim`` visits move every coordinate.
                x, y = rng.standard_normal((dim, 2)).T
                visits = x * scale / np.exp(
                    (_VISIT - 1.0) * np.log(np.fabs(y)) / (3.0 - _VISIT)
                )
                upper_sample, lower_sample = rng.random(2).tolist()
                point, proposal = [], []
                for visit, coordinate, width in zip(visits.tolist(), location, spans):
                    if visit > _TAIL_LIMIT:
                        visit = _TAIL_LIMIT * upper_sample
                    elif visit < -_TAIL_LIMIT:
                        visit = -_TAIL_LIMIT * lower_sample
                    coordinate = _wrap(visit + coordinate, width)
                    point.append(coordinate)
                    proposal.append(_floor(coordinate))
                proposed_key = scorer.key(proposal)
            else:
                # The next ``dim`` visits move one coordinate each.
                index = j - dim
                x, y = rng.standard_normal(2).tolist()
                visit = x * scale / np.exp(
                    (_VISIT - 1.0) * np.log(abs(y)) / (3.0 - _VISIT)
                )
                if visit > _TAIL_LIMIT:
                    visit = _TAIL_LIMIT * rng.random()
                elif visit < -_TAIL_LIMIT:
                    visit = -_TAIL_LIMIT * rng.random()
                point = _wrap(visit + location[index], spans[index])
                old, new = choice[index], _floor(point)
                proposal = choice.copy()
                proposal[index] = new
                proposed_key = key - codes[index][old] + codes[index][new]
            e = 1.0 if check and not feasible(proposal) else value(proposed_key)
            evaluations += 1
            if e < current:
                accepted = True
                if e < best:
                    best, best_choice = e, proposal
            else:
                r = rng.random()
                pqv_temp = 1.0 - (1.0 - _ACCEPT) * (e - current) / temperature_step
                pqv = (
                    0.0
                    if pqv_temp <= 0.0
                    else np.exp(np.log(pqv_temp) / (1.0 - _ACCEPT))
                )
                accepted = r <= pqv
            if accepted:
                current, choice, key = e, proposal, proposed_key
                if j < dim:
                    location = point
                else:
                    location[index] = point
            if evaluations >= _MAXFUN:
                return AnnealedChoice(np.array(best_choice), best, evaluations)
        iteration += 1
        step += 1
    return AnnealedChoice(np.array(best_choice), best, evaluations)


def select_approximations(
    objective: SelectionObjective,
    max_samples: int = 16,
    seed: int | np.random.SeedSequence | None = None,
) -> SelectionResult:
    """Run the sequential dual-annealing selection loop.

    Search spaces no larger than :data:`EXHAUSTIVE_CUTOFF` are enumerated
    exactly instead of annealed (the annealer is a global-optimization
    heuristic; batched exact enumeration is both faster and
    deterministic there).  Each annealing run takes
    :data:`ANNEALING_MAXITER` temperature steps; ``max_samples`` must be
    positive.  The ambient record counts each round
    (``selection.rounds``) and each annealing run's visits
    (``selection.scalar_evals``), as the objective counts its own.
    """
    if max_samples < 1:
        raise SelectionError("max_samples must be positive")
    # Per-run annealer seeds are SeedSequence children rather than raw
    # ``rng.integers(2**31 - 1)`` draws: bounded integer draws collide
    # (birthday bound) and re-enter the PRNG through the weak
    # single-integer seeding path, while spawned children are guaranteed
    # statistically independent streams.
    seed_seq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    run_seeds = seed_seq.spawn(max_samples)
    record = get_record()
    result = SelectionResult()
    objective.selected.clear()
    use_exhaustive = _search_space_size(objective) <= EXHAUSTIVE_CUTOFF
    for sample_index in range(max_samples):
        if use_exhaustive:
            choice = _exhaustive_minimum(objective)
        else:
            annealed = dual_annealing(
                objective.scorer(),
                ANNEALING_MAXITER,
                np.random.default_rng(run_seeds[sample_index]),
            )
            record.inc("selection.scalar_evals", annealed.evaluations)
            choice = annealed.choice
        bound = objective.choice_bound(choice)
        record.event(
            "selection.rounds",
            round=sample_index,
            exhaustive=use_exhaustive,
            bound=bound,
        )
        if bound > objective.threshold:
            if result.choices:
                break
            # The annealer failed to land on a feasible point; the
            # all-original choice (candidate 0 per block, distance 0) is
            # feasible for any non-negative threshold — QUEST degrades to
            # the Baseline rather than failing.
            choice = np.zeros(objective.num_blocks, dtype=int)
            bound = objective.choice_bound(choice)
            if bound > objective.threshold:
                raise SelectionError(
                    "no feasible approximation under the process-distance "
                    "threshold; raise the threshold or synthesize tighter "
                    "blocks"
                )
        value = objective(choice)
        if any(np.array_equal(choice, prior) for prior in result.choices):
            break  # The paper's stopping rule: a repeat ends selection.
        result.choices.append(choice)
        result.cnot_counts.append(objective.choice_cnot_count(choice))
        result.bounds.append(bound)
        result.objective_values.append(value)
        objective.selected.append(choice)
    record.gauge("selection.num_selected", result.num_selected)
    return result
