"""Per-block approximation pools.

A :class:`BlockPool` holds every candidate approximation LEAP produced
for one block, plus the exact original block as a distance-zero
candidate at the original CNOT count.  That candidate guarantees only
that selection is always feasible (paper Sec. 4.2); it does not make
QUEST's noisy output at least as good as the Baseline's.  A selected
approximation can still have a worse noisy TVD than the original
circuit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SelectionError
from repro.linalg.unitary import hs_distance
from repro.partition.blocks import CircuitBlock
from repro.synthesis.leap import SynthesisSolution, solution_unitaries
from repro.synthesis.sphere import sphere_variants

#: Synthesized candidates a pool keeps, cheapest first.
_MAX_CANDIDATES = 24

#: Lowest CNOT counts of a pool whose best candidate gets ε-sphere
#: variants.
_SPHERE_CNOT_COUNTS = 2


@dataclass(frozen=True)
class Candidate:
    """One approximation of a block: ``source`` is the block's own circuit
    (the original candidate) or a LEAP solution, whose :attr:`circuit` is
    built on first read."""

    unitary: np.ndarray
    distance: float
    cnot_count: int
    source: Circuit | SynthesisSolution

    @functools.cached_property
    def circuit(self) -> Circuit:
        """The candidate's circuit (over block-local qubit indices)."""
        source = self.source
        return source if isinstance(source, Circuit) else source.circuit


@dataclass
class BlockPool:
    """All candidates for one partitioned block."""

    block: CircuitBlock
    original_unitary: np.ndarray
    candidates: list[Candidate] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of candidates."""
        return len(self.candidates)

    def cnot_counts(self) -> np.ndarray:
        """Vector of candidate CNOT counts."""
        return np.array([c.cnot_count for c in self.candidates])

    def distances(self) -> np.ndarray:
        """Vector of candidate HS distances to the original block."""
        return np.array([c.distance for c in self.candidates])

    def unitary_stack(self) -> np.ndarray:
        """``(size, dim, dim)`` stack of candidate unitaries.

        The similarity tables consume whole pools as one contiguous
        array so their pairwise-distance construction is a single
        Gram-matrix contraction per block.
        """
        return np.stack([c.unitary for c in self.candidates])


def build_pool(
    block: CircuitBlock,
    solutions: list[SynthesisSolution],
    distance_cap: float | None = None,
    *,
    original_unitary: np.ndarray | None = None,
    unitaries: list[np.ndarray] | None = None,
) -> BlockPool:
    """Assemble a pool from LEAP solutions plus the original block.

    Keeps at most ``_MAX_CANDIDATES`` synthesized circuits, preferring
    lower CNOT counts then lower distances; candidates above
    ``distance_cap`` (when given) are discarded up front — the analogue of
    Algorithm 1's threshold rejection, applied per block.

    ``original_unitary`` (the block's) and ``unitaries`` (the solutions',
    in solution order) are matrices the caller already built from those
    circuits.  Without ``unitaries``, the solutions that pass the cap and
    the CNOT filter build here as one stack.
    """
    if original_unitary is None:
        original_unitary = block.unitary()
    original_cnots = block.circuit.cnot_count()
    pairs = zip(solutions, unitaries or [None] * len(solutions), strict=True)
    ranked = [
        (solution, unitary)
        for solution, unitary in sorted(
            pairs, key=lambda pair: (pair[0].cnot_count, pair[0].distance)
        )
        if (distance_cap is None or solution.distance <= distance_cap)
        # Longer *and* worse than the original: never useful.
        and (solution.cnot_count < original_cnots or solution.distance <= 1e-9)
    ]
    if unitaries is None:
        kept_solutions = [solution for solution, _ in ranked]
        ranked = list(zip(kept_solutions, solution_unitaries(kept_solutions)))
    pool = BlockPool(block=block, original_unitary=original_unitary)
    pool.candidates.append(
        Candidate(
            unitary=original_unitary,
            distance=0.0,
            cnot_count=original_cnots,
            source=block.circuit,
        )
    )
    kept = 0
    for solution, unitary in ranked:
        if kept >= _MAX_CANDIDATES:
            break
        # Re-measure the distance from the concrete circuit (the optimizer
        # cost is a lower bound on what the built circuit achieves).
        distance = hs_distance(unitary, original_unitary)
        duplicate = any(
            existing.cnot_count == solution.cnot_count
            and hs_distance(existing.unitary, unitary) < 1e-6
            for existing in pool.candidates
        )
        if duplicate:
            continue
        pool.candidates.append(
            Candidate(
                unitary=unitary,
                distance=distance,
                cnot_count=solution.cnot_count,
                source=solution,
            )
        )
        kept += 1
    if not pool.candidates:
        raise SelectionError("empty candidate pool (internal error)")
    return pool


def exact_pool(
    block: CircuitBlock, original_unitary: np.ndarray | None = None
) -> BlockPool:
    """The singleton pool holding only the exact original block.

    This is the guaranteed-feasible degenerate pool: used for blocks with
    nothing to approximate (1 qubit, CNOT-free) and as the graceful
    fallback when a block's synthesis fails or times out.
    ``original_unitary`` is the block's matrix when the caller holds it.
    """
    return build_pool(block, [], original_unitary=original_unitary)


def augment_with_sphere_variants(
    pool: BlockPool,
    threshold: float,
    per_count: int = 4,
    rng: np.random.Generator | int | None = None,
) -> int:
    """Add epsilon-sphere variants of the pool's best cheap candidates.

    For the ``_SPHERE_CNOT_COUNTS`` lowest CNOT counts that have a
    candidate well inside the threshold, generates ``per_count``
    same-structure variants on the threshold sphere (see
    :mod:`repro.synthesis.sphere`).  These are the dissimilar
    approximations the selection engine averages over.
    Returns the number of candidates added.
    """
    rng = np.random.default_rng(rng)
    original_cnots = pool.block.circuit.cnot_count()
    best_by_count: dict[int, Candidate] = {}
    for candidate in pool.candidates:
        if candidate.cnot_count >= original_cnots:
            continue
        if candidate.distance >= 0.9 * threshold:
            continue  # Too coarse: no room between it and the sphere.
        current = best_by_count.get(candidate.cnot_count)
        if current is None or candidate.distance < current.distance:
            best_by_count[candidate.cnot_count] = candidate
    added = 0
    for cnot_count in sorted(best_by_count)[:_SPHERE_CNOT_COUNTS]:
        base = best_by_count[cnot_count]
        for variant, unitary in sphere_variants(
            base.source, pool.original_unitary, threshold,
            count=per_count, rng=rng, unitary=base.unitary,
        ):
            pool.candidates.append(
                Candidate(
                    unitary=unitary,
                    distance=variant.distance,
                    cnot_count=cnot_count,
                    source=variant,
                )
            )
            added += 1
    return added
