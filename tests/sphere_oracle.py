"""References for epsilon-sphere variants.

:mod:`repro.synthesis.sphere` shifts a LEAP solution's angles as data,
advances its searches in lockstep and builds each round's probes as one
stack.  This module keeps what that replaced, as the oracles the tests
hold it to, bit for bit:

* the circuit path — find the rotation operations, then rebuild the
  circuit with each shifted angle stored as ``op.params[0] +
  float(shift)``;
* the sequential search — one attempt after another, each searching
  ``+v`` and then ``-v`` to the end before the next probe is made, every
  probe's matrix its circuit's ``circuit_unitary``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.circuits.circuit import Circuit
from repro.linalg.unitary import hs_distance
from repro.sim.unitary import circuit_unitary
from repro.synthesis.leap import SynthesisSolution


def rotation_indices(circuit: Circuit) -> list[int]:
    """Positions of the circuit's parameterized rx/ry/rz operations."""
    return [
        position
        for position, op in enumerate(circuit.operations)
        if op.name in ("rx", "ry", "rz") and op.params
    ]


def with_shifted_angles(
    circuit: Circuit, indices: list[int], shifts: np.ndarray
) -> Circuit:
    """``circuit`` with the rotation at ``indices[i]`` shifted by ``shifts[i]``."""
    out = Circuit(circuit.num_qubits)
    shift_at = dict(zip(indices, shifts))
    for position, op in enumerate(circuit.operations):
        if position in shift_at:
            out.add_gate(
                op.name, op.qubits, (op.params[0] + float(shift_at[position]),)
            )
        else:
            out.append(op)
    return out


def sequential_sphere_variants(
    solution: SynthesisSolution,
    target_unitary: np.ndarray,
    threshold: float,
    count: int = 4,
    rng: np.random.Generator | int | None = None,
    lower_fraction: float = 0.6,
) -> list[tuple[SynthesisSolution, np.ndarray]]:
    """``sphere_variants`` as one search at a time (no ``unitary``
    argument: the base is always built here)."""
    rng = np.random.default_rng(rng)
    base_distance = hs_distance(circuit_unitary(solution.circuit), target_unitary)
    if base_distance >= 0.9 * threshold:
        return []
    band_low = max(lower_fraction * threshold, 1.05 * base_distance)
    band_low = min(band_low, 0.97 * threshold)
    variants: list[tuple[SynthesisSolution, np.ndarray]] = []
    attempts = 0
    while len(variants) < count and attempts < 4 * count:
        attempts += 1
        direction = rng.normal(size=len(solution.params))
        direction /= np.linalg.norm(direction)
        for sign in (1.0, -1.0):
            found = _find_on_sphere(
                solution, sign * direction, target_unitary, threshold, band_low
            )
            if found is not None and len(variants) < count:
                variants.append(found)
    return variants


def _find_on_sphere(solution, direction, target_unitary, threshold, band_low):
    """Scale ``direction`` so the shifted angles land in the band; the
    accepted probe's ``(variant, unitary)``, or None."""

    def probe(scale):
        params = tuple((np.asarray(solution.params) + scale * direction).tolist())
        unitary = circuit_unitary(replace(solution, params=params).circuit)
        return hs_distance(unitary, target_unitary), params, unitary

    low, high = 0.0, 0.25
    for _ in range(12):
        if probe(high)[0] >= band_low:
            break
        low, high = high, 2.0 * high
    else:
        return None
    for _ in range(30):
        mid = 0.5 * (low + high)
        distance, params, unitary = probe(mid)
        if distance > threshold:
            high = mid
        elif distance < band_low:
            low = mid
        else:
            return replace(solution, params=params, distance=distance), unitary
    return None
