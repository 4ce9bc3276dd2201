"""Health checks for synthesis candidates.

A candidate set crosses a trust boundary on its way into a pool when it
comes back from a worker process or is loaded from the artifact store;
each such set is checked once.  Sets shared within the process (a run's
repeats, the in-flight registry) never left it and are not checked
again.  A crashed worker, a bit-flipped store file that slipped past its
checksum, or a non-converging optimizer can all hand the
pipeline data that *parses* fine but is numerically garbage — and a
garbage candidate silently poisons every downstream selection.

``validate_solutions`` / ``validate_pool`` therefore check, for each
candidate:

* **structure** — a solution is a
  :class:`~repro.synthesis.leap.SynthesisSolution` on the block's
  qubits whose CNOTs and angles fit its template
  (:func:`validate_structure`); its CNOT count is its placements';
* **finiteness** — no NaN/Inf in the distance, angles or unitary;
* **unitarity** — ``U^dag U = I`` to ``UNITARITY_TOL`` (a circuit built
  from rotation gates is unitary by construction, so any violation means
  corrupted parameters or a corrupted matrix);
* **distance consistency** — the HS distance recomputed from the
  unitary agrees with the recorded one to ``DISTANCE_CONSISTENCY_TOL``.

``validate_solutions`` checks every structure of a set first, then
builds the set's unitaries from their structures and angles as one
stack (:func:`~repro.synthesis.leap.solution_unitaries`) and checks
each in order; it returns those matrices, and pool assembly uses them
instead of building them again.  A pool also stores each candidate's
matrix, so ``validate_pool`` additionally requires every stored matrix
— the original's and each candidate's — to match the one rebuilt from
its source to ``POOL_UNITARY_MATCH_TOL``: the plain checks accept any
matrix that is *a* unitary at the recorded distance, this one only the
unitary the candidate actually implements.

Failures raise :class:`~repro.exceptions.ValidationError`; the executor
quarantines the offending set (records a failure, retries or falls
back) instead of admitting it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.unitary import hs_distance
from repro.metrics.tolerances import (
    DISTANCE_CONSISTENCY_TOL,
    POOL_UNITARY_MATCH_TOL,
    PTM_CP_TOL,
    PTM_TRACE_PRESERVATION_TOL,
    UNITARITY_TOL,
)


def _unitarity_defect(unitary: np.ndarray) -> float:
    """Max elementwise |U^dag U - I| (inf for non-finite input)."""
    if not np.all(np.isfinite(unitary)):
        return float("inf")
    dim = unitary.shape[0]
    gram = unitary.conj().T @ unitary
    return float(np.max(np.abs(gram - np.eye(dim))))


def _matches(stored: np.ndarray, rebuilt: np.ndarray) -> bool:
    """Whether a stored matrix equals the one rebuilt from its circuit,
    elementwise to ``POOL_UNITARY_MATCH_TOL`` (NaN never matches)."""
    return stored.shape == rebuilt.shape and bool(
        np.all(np.abs(stored - rebuilt) <= POOL_UNITARY_MATCH_TOL)
    )


def validate_candidate_unitary(
    unitary: np.ndarray,
    target: np.ndarray,
    recorded_distance: float,
    *,
    label: str,
) -> None:
    """Validate one candidate unitary against its target block unitary."""
    if unitary.shape != target.shape:
        raise ValidationError(
            f"{label}: unitary shape {unitary.shape} does not match the "
            f"block's {target.shape}"
        )
    if not np.isfinite(recorded_distance):
        raise ValidationError(f"{label}: recorded distance is not finite")
    if not np.all(np.isfinite(unitary)):
        raise ValidationError(f"{label}: unitary contains non-finite entries")
    defect = _unitarity_defect(unitary)
    if defect > UNITARITY_TOL:
        raise ValidationError(
            f"{label}: unitarity defect {defect:.3e} exceeds "
            f"tolerance {UNITARITY_TOL:.1e}"
        )
    recomputed = hs_distance(unitary, target)
    if abs(recomputed - recorded_distance) > DISTANCE_CONSISTENCY_TOL:
        raise ValidationError(
            f"{label}: recomputed HS distance {recomputed:.6e} disagrees "
            f"with recorded {recorded_distance:.6e} "
            f"(tolerance {DISTANCE_CONSISTENCY_TOL:.1e})"
        )


def validate_ptm(
    ptm: np.ndarray,
    arity: int,
    *,
    label: str = "PTM",
) -> None:
    """Health-check a compiled Pauli-transfer matrix.

    A PTM crosses the same kind of trust boundary as a synthesis
    candidate: it is cached content, and every downstream distribution
    is a linear function of it.  The checks are the two physicality
    invariants any Pauli-channel-after-unitary PTM must satisfy:

    * **trace preservation** — the first row is ``e_0`` (``Tr(rho)`` is
      conserved);
    * **complete positivity** — the Choi matrix is Hermitian and
      positive semidefinite to eigensolver rounding.

    Failures raise :class:`~repro.exceptions.ValidationError`, keeping a
    corrupted cache entry or a doctored channel out of the evolution
    loop the same way candidate quarantine keeps bad pools out of
    selection.
    """
    # Imported lazily: repro.noise.ptm calls back into this module on
    # compile-cache misses, so a module-level import would be circular.
    from repro.noise.ptm import choi_matrix, trace_preservation_defect

    dim = 4**arity
    if ptm.shape != (dim, dim):
        raise ValidationError(
            f"{label}: shape {ptm.shape} is not ({dim}, {dim})"
        )
    if not np.all(np.isfinite(ptm)):
        raise ValidationError(f"{label}: contains non-finite entries")
    defect = trace_preservation_defect(ptm)
    if defect > PTM_TRACE_PRESERVATION_TOL:
        raise ValidationError(
            f"{label}: trace-preservation defect {defect:.3e} exceeds "
            f"tolerance {PTM_TRACE_PRESERVATION_TOL:.1e}"
        )
    choi = choi_matrix(ptm, arity)
    hermiticity = float(np.max(np.abs(choi - choi.conj().T)))
    if hermiticity > PTM_CP_TOL:
        raise ValidationError(
            f"{label}: Choi matrix Hermiticity defect {hermiticity:.3e} "
            f"exceeds tolerance {PTM_CP_TOL:.1e}"
        )
    min_eigenvalue = float(
        np.linalg.eigvalsh((choi + choi.conj().T) / 2.0).min()
    )
    if min_eigenvalue < -PTM_CP_TOL:
        raise ValidationError(
            f"{label}: Choi matrix eigenvalue {min_eigenvalue:.3e} breaks "
            f"complete positivity (tolerance {PTM_CP_TOL:.1e})"
        )


def validate_structure(solution, num_qubits: int, *, label: str) -> None:
    """Check a LEAP solution before a matrix is built from it: the block's
    qubits, distinct in-range CNOTs, the template's finite float64 angles."""
    if solution.num_qubits != num_qubits:
        raise ValidationError(
            f"{label}: a {solution.num_qubits}-qubit structure does not "
            f"match the block's {num_qubits} qubit(s)"
        )
    # Imported lazily, as in validate_solutions below.
    from repro.synthesis.ansatz import leap_param_count

    qubits, cnots = range(num_qubits), solution.placements
    for control, target in cnots:
        if control == target or control not in qubits or target not in qubits:
            raise ValidationError(f"{label}: bad CNOT placement {(control, target)}")
    angles = leap_param_count(num_qubits, len(cnots))
    if len(solution.params) != angles:
        raise ValidationError(f"{label}: {len(solution.params)} angles, not {angles}")
    values = (*solution.params, solution.distance)
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        raise ValidationError(f"{label}: angles or distance not finite float64")


def validate_solutions(target: np.ndarray, solutions) -> list[np.ndarray]:
    """Validate a worker's / the cache's raw LEAP solution list.

    Every solution's structure is checked before any matrix is built;
    then the whole list builds as one stack
    (:func:`~repro.synthesis.leap.solution_unitaries`) and each matrix is
    checked in solution order.  Returns those matrices, built from the
    solutions' structures and angles, never read from a store entry or a
    worker's reply, so a pool assembled from them holds what the
    solutions implement.  Raises :class:`ValidationError` naming the
    first offending solution; an empty list is valid (the pool
    degenerates to the exact block).
    """
    # Imported lazily: repro.synthesis.instantiate imports
    # repro.resilience.deadline, which loads this package, so a
    # module-level import would be circular.
    from repro.synthesis.leap import SynthesisSolution, solution_unitaries

    if not isinstance(solutions, list):
        raise ValidationError(
            f"solution payload is {type(solutions).__name__}, expected list"
        )
    num_qubits = target.shape[0].bit_length() - 1
    labels = []
    for position, solution in enumerate(solutions):
        if not isinstance(solution, SynthesisSolution):
            raise ValidationError(
                f"solution {position} is {type(solution).__name__}, "
                f"expected SynthesisSolution"
            )
        label = f"solution {position} (cnots={solution.cnot_count})"
        validate_structure(solution, num_qubits, label=label)
        labels.append(label)
    unitaries = solution_unitaries(solutions)
    for solution, unitary, label in zip(solutions, unitaries, labels):
        validate_candidate_unitary(
            unitary, target, solution.distance, label=label
        )
    return unitaries


def validate_pool(pool) -> None:
    """Validate an assembled :class:`BlockPool`.

    Checks the stored original unitary against the block circuit it
    claims to represent, then every candidate against it and its stored
    matrix against the one rebuilt from the candidate's source.
    """
    if not pool.candidates:
        raise ValidationError("pool has no candidates (not even the exact block)")
    target = pool.original_unitary
    if not np.all(np.isfinite(target)):
        raise ValidationError("pool original unitary contains non-finite entries")
    if _unitarity_defect(target) > UNITARITY_TOL:
        raise ValidationError("pool original unitary is not unitary")
    if not _matches(target, pool.block.unitary()):
        raise ValidationError(
            "pool original unitary disagrees with its block circuit"
        )
    for position, candidate in enumerate(pool.candidates):
        label = f"candidate {position} (cnots={candidate.cnot_count})"
        validate_candidate_unitary(
            candidate.unitary, target, candidate.distance, label=label
        )
        if not _matches(candidate.unitary, candidate.source.unitary()):
            raise ValidationError(
                f"{label}: stored unitary disagrees with its circuit"
            )
