"""LEAP-style bottom-up synthesis with multi-solution collection.

The compiler grows a circuit template one CNOT layer at a time (paper
Fig. 5).  At each depth it tries a CNOT on every qubit pair, numerically
instantiates the resulting template, and keeps the best branch to extend
(LEAP's tree reconstruction).  QUEST's modification (paper Sec. 3.5) is to
*collect* the best ``M`` instantiated circuits per layer — across all
CNOT counts up to the original circuit's count — instead of returning only
the single exact solution.

A solution is data (:class:`SynthesisSolution`: its qubit count and
CNOT placements, which fix the template, its angles and its distance).
:func:`solution_unitaries` is the one builder of their matrices: it
builds a list of solutions as one stack, one stacked product per
template slot, and each row equals ``circuit_unitary`` of the
solution's circuit byte for byte.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import gate_matrix
from repro.exceptions import SynthesisError
from repro.linalg.embed import matrix_gathers
from repro.linalg.su2 import zyz_decompose
from repro.observability import get_record
from repro.synthesis.ansatz import (
    _ROTATION_ENTRIES,
    bind_slots,
    build_leap_ansatz,
    leap_slots,
)
from repro.synthesis.instantiate import instantiate, instantiate_multi

#: The one fixed gate of a LEAP template, shared by every stack.
_CX = gate_matrix("cx")

#: Cells of a stack's gather arrays (slots x rows x 4**n, 8 MiB of
#: intp): wider or longer templates split their rows over more stacks.
_STACK_GATHER_CELLS = 2**20


@dataclass(frozen=True)
class SynthesisSolution:
    """One synthesized circuit for a target unitary, as data.

    The circuit is ``build_leap_ansatz(num_qubits,
    placements).build_circuit(params)``: ``placements`` holds each
    layer's ``(control, target)`` CNOT, ``params`` the template's angles
    (float64) in slot order, and ``distance`` the HS process distance to
    the target that synthesis recorded.
    """

    num_qubits: int
    placements: tuple[tuple[int, int], ...]
    params: tuple[float, ...]
    distance: float

    @property
    def cnot_count(self) -> int:
        """CNOTs in the circuit: one per placement."""
        return len(self.placements)

    @property
    def circuit(self) -> Circuit:
        """The concrete circuit (over block-local qubit indices)."""
        slots = leap_slots(self.num_qubits, self.placements)
        return bind_slots(self.num_qubits, slots, self.params)

    def unitary(self) -> np.ndarray:
        """The circuit's unitary, bit for bit: a stack of one row of
        :func:`solution_unitaries`."""
        return solution_unitaries([self])[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SynthesisSolution(cnots={self.cnot_count}, "
            f"distance={self.distance:.3e})"
        )


def solution_unitaries(solutions: list[SynthesisSolution]) -> list[np.ndarray]:
    """The unitaries of same-width LEAP solutions, in order, as stacks.

    Each row is ``circuit_unitary(solution.circuit)`` byte for byte.  A
    stack starts at the identity and takes the template's slots in
    order: per slot, one gather brings every row into its own placement's
    operand layout (:func:`~repro.linalg.embed.matrix_gathers`), one
    stacked ``np.matmul`` multiplies each row by its 2x2 rotation or the
    shared CX, and one gather brings the rows back.  Each row's product
    is the BLAS product ``np.dot`` makes for it in
    :func:`~repro.linalg.embed.apply_gate_to_matrix`, and a gather only
    copies, so the stack changes no bit.  Rows stack longest first: a
    shorter template's slots are a prefix of a longer one's.  A stack
    takes as many rows as keep its gather arrays within
    ``_STACK_GATHER_CELLS``, and at least one.
    """
    if not solutions:
        return []
    num_qubits = solutions[0].num_qubits
    if any(solution.num_qubits != num_qubits for solution in solutions):
        raise SynthesisError("solution_unitaries builds solutions of one width")
    rows = sorted(range(len(solutions)), key=lambda r: -len(solutions[r].placements))
    longest = solutions[rows[0]]
    slots = len(_stack_plan(num_qubits, longest.placements).rotations)
    per_stack = max(1, _STACK_GATHER_CELLS // (slots * 4**num_qubits))
    unitaries: list[np.ndarray] = [None] * len(solutions)
    for start in range(0, len(rows), per_stack):
        stack_rows = rows[start : start + per_stack]
        stack = _stack_unitaries([solutions[row] for row in stack_rows])
        for row, unitary in zip(stack_rows, stack):
            unitaries[row] = unitary
    return unitaries


class _StackPlan(NamedTuple):
    """What a stack needs of one LEAP structure, per slot in order."""

    #: Each slot's row of :func:`_gather_table`.
    codes: np.ndarray
    #: Whether each slot is a rotation (else the CX).
    rotations: tuple[bool, ...]
    #: Each rotation's entry formula, in angle order: the formulas
    #: ``gate_matrix`` uses, so the stack's rotations are ``Gate.matrix()``'s.
    formulas: tuple[Callable, ...]


def _gather_code(qubits: tuple[int, ...], num_qubits: int) -> int:
    """A slot's row of :func:`_gather_table`: ``q`` for a rotation on
    ``q``, ``n + n * c + t`` for the CX ``(c, t)``."""
    if len(qubits) == 1:
        return qubits[0]
    control, target = qubits
    return num_qubits + num_qubits * control + target


@functools.lru_cache(maxsize=8)
def _gather_table(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The gathers into and out of every LEAP placement's operand layout
    on ``num_qubits`` qubits, one row per :func:`_gather_code` (rows of
    CXs on one qubit stay zero and are never read)."""
    size = 4**num_qubits
    placements = [(q,) for q in range(num_qubits)] + [
        (c, t) for c in range(num_qubits) for t in range(num_qubits) if c != t
    ]
    into = np.zeros((num_qubits + num_qubits**2, size), dtype=np.intp)
    back = np.zeros_like(into)
    for qubits in placements:
        code = _gather_code(qubits, num_qubits)
        into[code], back[code] = matrix_gathers(qubits, num_qubits)
    into.flags.writeable = back.flags.writeable = False
    return into, back


@functools.lru_cache(maxsize=1024)
def _stack_plan(num_qubits: int, placements: tuple[tuple[int, int], ...]) -> _StackPlan:
    """The cached :class:`_StackPlan` of one LEAP structure."""
    slots = leap_slots(num_qubits, placements)
    names = [slot.name for slot in slots if slot.param_index is not None]
    codes = np.array([_gather_code(slot.qubits, num_qubits) for slot in slots])
    codes.flags.writeable = False
    return _StackPlan(
        codes,
        tuple(slot.param_index is not None for slot in slots),
        tuple(_ROTATION_ENTRIES[name] for name in names),
    )


def _stack_unitaries(solutions: list[SynthesisSolution]) -> list[np.ndarray]:
    """One stack: same width, longest first."""
    num_qubits, count = solutions[0].num_qubits, len(solutions)
    dim = 2**num_qubits
    size = dim * dim
    plans = [_stack_plan(num_qubits, s.placements) for s in solutions]
    lengths = [len(plan.rotations) for plan in plans]
    if all(plan is plans[0] for plan in plans):
        codes = plans[0].codes[:, None]
    else:
        codes = np.zeros((lengths[0], count), dtype=np.intp)
        for row, (plan, length) in enumerate(zip(plans, lengths)):
            codes[:length, row] = plan.codes
    # Slot-major gathers into the flat stack, where row i's cells start
    # at i * size: a slot's rows are one contiguous block.
    offsets = (np.arange(count) * size)[:, None]
    table_into, table_back = _gather_table(num_qubits)
    into = table_into[codes] + offsets
    back = table_back[codes] + offsets
    entries = np.zeros((count, len(solutions[0].params), 4), dtype=complex)
    for row, (solution, plan) in enumerate(zip(solutions, plans)):
        formulas = plan.formulas
        if len(solution.params) != len(formulas):
            raise SynthesisError(
                f"{len(solution.params)} angles for a template of {len(formulas)}"
            )
        entries[row, : len(formulas)] = [
            formula(angle) for formula, angle in zip(formulas, solution.params)
        ]
    gates = np.ascontiguousarray(entries.transpose(1, 0, 2)).reshape(-1, count, 2, 2)
    stack = np.tile(np.eye(dim, dtype=complex).ravel(), (count, 1))
    cells = stack.ravel()
    active, angle = count, 0
    for slot, rotation in enumerate(plans[0].rotations):
        while lengths[active - 1] <= slot:
            active -= 1
        operand = cells[into[slot, :active]]
        if rotation:
            gate, angle = gates[angle, :active], angle + 1
        else:
            gate = _CX
        product = np.matmul(gate, operand.reshape(active, gate.shape[-1], -1))
        stack[:active] = product.ravel()[back[slot, :active]]
    return list(stack.reshape(count, dim, dim))


@dataclass
class LeapConfig:
    """Tuning knobs for the LEAP synthesis loop.

    ``solutions_per_layer`` is QUEST's ``M``: how many of the per-layer
    instantiations to keep in the returned pool.  ``max_layers``,
    ``instantiation_starts`` and ``max_optimizer_iterations`` bound the
    work; no knob reads the wall clock, so a run's pool is a function of
    (target, config, seed) alone.
    """

    max_layers: int = 14
    solutions_per_layer: int = 3
    instantiation_starts: int = 3
    max_optimizer_iterations: int = 400
    seed: int | None = None
    #: Approximate-synthesis threshold (HS distance): secondary starts
    #: stop optimizing once below it, scattering solutions over the
    #: epsilon-sphere (the dissimilar approximations of paper Fig. 6).
    target_distance: float | None = None

    @property
    def target_cost(self) -> float | None:
        """The HS cost equivalent of ``target_distance``."""
        if self.target_distance is None:
            return None
        d = min(max(self.target_distance, 0.0), 1.0)
        return 1.0 - float(np.sqrt(max(0.0, 1.0 - d * d)))

    def fingerprint(self) -> str:
        """Stable digest input of every behaviour-affecting knob but the seed.

        Two configs with equal fingerprints explore identical search
        spaces, so their results are interchangeable *given the same
        seed*; the content-addressed pool cache therefore keys on this
        fingerprint and mixes the seed in separately (see
        :mod:`repro.parallel.cache`).
        """
        fields = (
            ("max_layers", int(self.max_layers)),
            ("solutions_per_layer", int(self.solutions_per_layer)),
            ("instantiation_starts", int(self.instantiation_starts)),
            ("max_optimizer_iterations", int(self.max_optimizer_iterations)),
            ("target_distance", self.target_distance),
        )
        return repr(fields)


def _one_qubit_solution(target: np.ndarray) -> SynthesisSolution:
    """The 1-qubit LEAP template ``rz ry rz`` at the target's ZYZ angles."""
    theta, phi, lam, _ = zyz_decompose(target)
    angles = (float(lam), float(theta), float(phi))
    return SynthesisSolution(1, (), angles, 0.0)


def synthesize(
    target: np.ndarray, config: LeapConfig | None = None
) -> list[SynthesisSolution]:
    """Synthesize circuits for ``target``, collecting an approximation pool.

    Returns, for every explored CNOT count, up to ``solutions_per_layer``
    solutions, sorted by (cnot_count, distance).  The ambient record
    counts the work: ``leap.layers`` and ``leap.instantiations``.
    """
    config = config or LeapConfig()
    dim = target.shape[0]
    num_qubits = int(np.log2(dim))
    if num_qubits < 1 or 2**num_qubits != dim:
        raise SynthesisError(f"target dimension {dim} is not a power of two above 1")
    if num_qubits == 1:
        return [_one_qubit_solution(target)]
    record = get_record()
    rng = np.random.default_rng(config.seed)
    # CNOT direction is absorbable into the surrounding rotations, so only
    # one orientation per pair needs to be explored.
    placements = list(itertools.combinations(range(num_qubits), 2))

    pool: list[SynthesisSolution] = []
    # Depth 0: rotations only.
    ansatz0 = build_leap_ansatz(num_qubits, [])
    result0 = instantiate(
        ansatz0,
        target,
        rng=rng,
        starts=config.instantiation_starts,
        maxiter=config.max_optimizer_iterations,
    )
    instantiations = 1
    pool.append(
        SynthesisSolution(num_qubits, (), tuple(result0.params.tolist()), result0.distance)
    )

    best_structure: list[tuple[int, int]] = []
    best_params = result0.params
    for layer in range(1, config.max_layers + 1):
        layer_entries: list[
            tuple[float, SynthesisSolution, np.ndarray, tuple[int, int]]
        ] = []
        ansatze = [
            build_leap_ansatz(num_qubits, best_structure + [placement])
            for placement in placements
        ]
        # One lockstep call fits every placement.  LEAP re-seeding: each
        # warm start is the previous optimum extended with small random
        # angles for the new layer's rotations.  An expired cooperative
        # deadline (inline executor path) raises from inside the call and
        # aborts the block for a retry or fallback.
        layer_fits = instantiate_multi(
            ansatze,
            target,
            rng=rng,
            starts=config.instantiation_starts,
            maxiter=config.max_optimizer_iterations,
            initial_params=best_params,
            stop_at_cost=config.target_cost,
        )
        instantiations += len(placements)
        for placement, fits in zip(placements, layer_fits):
            # Every start's local optimum becomes a candidate: distinct
            # minima at the same CNOT count are naturally dissimilar,
            # which feeds QUEST's selection (the paper's "multiple seeds").
            structure = tuple(best_structure) + (placement,)
            for fit in fits:
                angles = tuple(fit.params.tolist())
                solution = SynthesisSolution(num_qubits, structure, angles, fit.distance)
                layer_entries.append((fit.distance, solution, fit.params, placement))
        layer_entries.sort(key=lambda entry: entry[0])
        pool.extend(
            entry[1] for entry in layer_entries[: config.solutions_per_layer]
        )
        best_distance, _, best_params, best_placement = layer_entries[0]
        best_structure = best_structure + [best_placement]
        record.event(
            "leap.layers",
            layer=layer,
            best_distance=float(best_distance),
            instantiations=instantiations,
            pool_size=len(pool),
        )
    pool.sort(key=lambda s: (s.cnot_count, s.distance))
    record.inc("leap.instantiations", instantiations)
    record.inc("leap.synthesis_runs")
    return pool
