"""Independently re-derived equivalence primitives.

Everything here exists to *disagree* with the synthesis path when the
synthesis path is wrong, so each quantity is recomputed from the
circuits rather than read from the recorded artifacts:

* :func:`circuit_hs_distance` rebuilds both circuits' unitaries from
  their operations through :func:`repro.sim.unitary.circuit_unitary`,
  the library's one unitary builder, never from a stored matrix.
* :func:`independent_hs_distance` takes the Hilbert-Schmidt overlap as
  the trace of the explicit matrix product ``U^dag V`` instead of
  :func:`repro.linalg.unitary.hs_inner`'s elementwise contraction.
  Both are global-phase-canonical (only ``|Tr|`` enters), so the two
  paths must agree to float precision on correct inputs — and only
  there.

For circuits too wide to diff exactly, :func:`stimulus_evidence`
propagates Haar-random and computational-basis stimuli through both
circuits and derives two sound checks from the state overlaps:

* a **lower confidence bound** on the true HS distance, from the
  Haar identity ``E_psi |<psi|W|psi>|^2 = (|Tr W|^2 + N) / (N (N+1))``
  plus a Hoeffding deviation term — it exceeds a claimed budget only
  when the claim is violated (with probability ``1 - delta`` over the
  stimulus draw), and by construction it is never tighter than the
  exact distance;
* a **per-stimulus deviation cap**: if ``d(U, V) <= eps`` then every
  state satisfies ``1 - |<U psi, V psi>| <= N (1 - sqrt(1 - eps^2))``
  (via the Frobenius bound on the phase-aligned operator difference),
  so any single stimulus breaking the cap refutes the claim outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import CertificationError
from repro.metrics.tolerances import STIMULUS_CONFIDENCE_DELTA
from repro.sim.statevector import run_statevector
from repro.sim.unitary import circuit_unitary

#: Widths up to this get the exact unitary diff; wider circuits fall to
#: the random-stimulus regime.  The dense reconstruction is O(4^n) per
#: circuit, so the default stays well below the builder's hard cap
#: (``MAX_UNITARY_QUBITS``), past which an exact diff raises.
DEFAULT_MAX_EXACT_QUBITS = 10

#: Haar-random stimuli per stimulus-mode certification.
DEFAULT_HAAR_STIMULI = 24

#: Computational-basis stimuli per stimulus-mode certification (always
#: includes ``|0...0>``, the state every experiment starts from).
DEFAULT_BASIS_STIMULI = 8


def independent_hs_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-canonical HS distance from the overlap
    ``|Tr(U^dag V)| / N`` of the full matrix product."""
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise CertificationError(
            f"cannot compare operators of shapes {u.shape} and {v.shape}"
        )
    overlap = float(abs(np.trace(u.conj().T @ v))) / u.shape[0]
    return math.sqrt(max(0.0, 1.0 - overlap * overlap))


def circuit_hs_distance(original: Circuit, approximate: Circuit) -> float:
    """Exact HS distance between two circuits, rebuilt from the circuits.

    Measurements are ignored; circuits wider than ``MAX_UNITARY_QUBITS``
    raise :class:`~repro.exceptions.SimulationError`.
    """
    if original.num_qubits != approximate.num_qubits:
        raise CertificationError(
            f"circuit widths differ: {original.num_qubits} vs "
            f"{approximate.num_qubits} qubits"
        )
    return independent_hs_distance(
        circuit_unitary(original.without_measurements()),
        circuit_unitary(approximate.without_measurements()),
    )


# ----------------------------------------------------------------------
# Stimulus regime
# ----------------------------------------------------------------------
def haar_states(
    num_qubits: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``(count, 2^n)`` Haar-random pure states (normalized Ginibre rows)."""
    if count < 1:
        raise CertificationError("need at least one Haar stimulus")
    dim = 2**num_qubits
    raw = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def basis_states(
    num_qubits: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``(count, 2^n)`` distinct computational-basis stimuli.

    Always includes ``|0...0>``; the rest are drawn without replacement.
    ``count`` is clipped to the dimension.
    """
    if count < 1:
        raise CertificationError("need at least one basis stimulus")
    dim = 2**num_qubits
    count = min(count, dim)
    indices = [0]
    if count > 1:
        others = rng.choice(dim - 1, size=count - 1, replace=False) + 1
        indices.extend(int(i) for i in others)
    states = np.zeros((count, dim), dtype=complex)
    states[np.arange(count), indices] = 1.0
    return states


def state_overlaps(
    original: Circuit, approximate: Circuit, states: np.ndarray
) -> np.ndarray:
    """``|<U psi_j, V psi_j>|`` for every stimulus row ``psi_j``."""
    overlaps = np.empty(states.shape[0])
    for j, state in enumerate(states):
        evolved_original = run_statevector(original, state)
        evolved_approx = run_statevector(approximate, state)
        overlaps[j] = abs(np.vdot(evolved_original, evolved_approx))
    return overlaps


def per_state_deviation_cap(dim: int, epsilon: float) -> float:
    """Max honest per-stimulus infidelity ``1 - |<U psi, V psi>|``.

    If ``d(U, V) <= eps`` then with ``W = U^dag V`` and ``phi`` the phase
    of ``Tr W``::

        || (U - e^{i phi} V) psi ||  <=  || U - e^{i phi} V ||_F
                                      =  sqrt(2 N (1 - |Tr W| / N))
                                     <=  sqrt(2 N (1 - sqrt(1 - eps^2)))

    and ``1 - |<U psi, V psi>| = || (U - e^{i phi'} V) psi ||^2 / 2`` at
    the per-state optimal phase, which is no larger.  The cap is loose
    (the ``N`` factor is real), but it is *sound*: no honest circuit
    pair can break it, so a single stimulus that does refutes the claim.
    """
    epsilon = min(max(float(epsilon), 0.0), 1.0)
    return dim * (1.0 - math.sqrt(max(0.0, 1.0 - epsilon * epsilon)))


@dataclass(frozen=True)
class StimulusEvidence:
    """What the stimulus probes established about ``d(U, V)``."""

    #: Number of Haar-random stimuli behind the confidence bound.
    haar_count: int
    #: Number of computational-basis stimuli probed.
    basis_count: int
    #: Lower confidence bound on the true HS distance: holds with
    #: probability at least ``1 - delta`` over the Haar draw, and is
    #: never tighter than the exact distance at that confidence.
    distance_bound: float
    #: Unbiased point estimate of the HS distance (reported, not gated).
    distance_estimate: float
    #: Largest per-stimulus infidelity ``1 - |<U psi, V psi>|`` seen,
    #: across Haar and basis stimuli.
    worst_deviation: float
    #: Failure-probability budget of the confidence bound.
    delta: float


def stimulus_evidence(
    original: Circuit,
    approximate: Circuit,
    *,
    haar_stimuli: int = DEFAULT_HAAR_STIMULI,
    basis_stimuli: int = DEFAULT_BASIS_STIMULI,
    rng: np.random.Generator | int | None = None,
    delta: float = STIMULUS_CONFIDENCE_DELTA,
) -> StimulusEvidence:
    """Probe two circuits with random stimuli and bound their distance.

    The Haar stimuli feed the confidence-bounded distance estimate; the
    basis stimuli (and the Haar ones) also feed ``worst_deviation`` for
    the per-state cap check.  Deterministic for a fixed ``rng`` seed.
    """
    if original.num_qubits != approximate.num_qubits:
        raise CertificationError(
            f"circuit widths differ: {original.num_qubits} vs "
            f"{approximate.num_qubits} qubits"
        )
    rng = np.random.default_rng(rng)
    num_qubits = original.num_qubits
    dim = 2**num_qubits
    stripped_original = original.without_measurements()
    stripped_approx = approximate.without_measurements()

    haar = haar_states(num_qubits, haar_stimuli, rng)
    haar_overlaps = state_overlaps(stripped_original, stripped_approx, haar)
    basis = basis_states(num_qubits, basis_stimuli, rng)
    basis_overlaps = state_overlaps(stripped_original, stripped_approx, basis)

    # Haar identity: E |<psi|W|psi>|^2 = (|Tr W|^2 + N) / (N (N + 1)),
    # so the sample mean m gives |Tr W|^2 / N^2 ~= ((N+1) m - 1) / N.
    mean_sq = float(np.mean(haar_overlaps**2))
    deviation = math.sqrt(math.log(1.0 / delta) / (2.0 * len(haar_overlaps)))
    overlap_sq_estimate = min(max(((dim + 1) * mean_sq - 1.0) / dim, 0.0), 1.0)
    overlap_sq_upper = min(
        max(((dim + 1) * (mean_sq + deviation) - 1.0) / dim, 0.0), 1.0
    )
    distance_estimate = math.sqrt(max(0.0, 1.0 - overlap_sq_estimate))
    distance_bound = math.sqrt(max(0.0, 1.0 - overlap_sq_upper))

    worst = float(
        max(1.0 - haar_overlaps.min(), 1.0 - basis_overlaps.min())
    )
    return StimulusEvidence(
        haar_count=len(haar_overlaps),
        basis_count=len(basis_overlaps),
        distance_bound=distance_bound,
        distance_estimate=distance_estimate,
        worst_deviation=worst,
        delta=delta,
    )
