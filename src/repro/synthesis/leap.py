"""LEAP-style bottom-up synthesis with multi-solution collection.

The compiler grows a circuit template one CNOT layer at a time (paper
Fig. 5).  At each depth it tries every allowed CNOT placement, numerically
instantiates the resulting template, and keeps the best branch to extend
(LEAP's tree reconstruction).  QUEST's modification (paper Sec. 3.5) is to
*collect* the best ``M`` instantiated circuits per layer — across all
CNOT counts up to the original circuit's count — instead of returning only
the single exact solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import SynthesisError
from repro.linalg.su2 import zyz_decompose
from repro.observability import get_metrics, get_tracer
from repro.synthesis.ansatz import (
    DEFAULT_LAYER_ROTATIONS,
    all_placements,
    build_leap_ansatz,
)
from repro.synthesis.instantiate import instantiate, instantiate_multi


@dataclass(frozen=True)
class SynthesisSolution:
    """One synthesized circuit for a target unitary.

    Attributes
    ----------
    circuit:
        The concrete circuit (over block-local qubit indices).
    distance:
        HS process distance to the target.
    cnot_count:
        CNOTs in the circuit (equals the template's layer count).
    """

    circuit: Circuit
    distance: float
    cnot_count: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SynthesisSolution(cnots={self.cnot_count}, "
            f"distance={self.distance:.3e})"
        )


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
    success_threshold: float = 1e-8
    solutions_per_layer: int = 3
    instantiation_starts: int = 3
    max_optimizer_iterations: int = 400
    layer_rotations: tuple[str, ...] = DEFAULT_LAYER_ROTATIONS
    coupling: list[tuple[int, int]] | None = None
    stop_when_exact: bool = False
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
        coupling = (
            None
            if self.coupling is None
            else tuple(sorted((int(a), int(b)) for a, b in self.coupling))
        )
        fields = (
            ("max_layers", int(self.max_layers)),
            ("success_threshold", float(self.success_threshold)),
            ("solutions_per_layer", int(self.solutions_per_layer)),
            ("instantiation_starts", int(self.instantiation_starts)),
            ("max_optimizer_iterations", int(self.max_optimizer_iterations)),
            ("layer_rotations", tuple(self.layer_rotations)),
            ("coupling", coupling),
            ("stop_when_exact", bool(self.stop_when_exact)),
            ("target_distance", self.target_distance),
        )
        return repr(fields)


@dataclass
class SynthesisReport:
    """Full output of a synthesis run: the solution pool plus telemetry."""

    solutions: list[SynthesisSolution] = field(default_factory=list)
    best: SynthesisSolution | None = None
    layers_explored: int = 0
    instantiations: int = 0
    elapsed_seconds: float = 0.0


def _one_qubit_solution(target: np.ndarray) -> SynthesisSolution:
    theta, phi, lam, _ = zyz_decompose(target)
    circuit = Circuit(1)
    circuit.rz(lam, 0)
    circuit.ry(theta, 0)
    circuit.rz(phi, 0)
    return SynthesisSolution(circuit=circuit, distance=0.0, cnot_count=0)


def synthesize(
    target: np.ndarray, config: LeapConfig | None = None
) -> SynthesisReport:
    """Synthesize circuits for ``target``, collecting an approximation pool.

    Returns a :class:`SynthesisReport` whose ``solutions`` list holds, for
    every explored CNOT count, up to ``solutions_per_layer`` circuits
    sorted by (cnot_count, distance).  ``best`` is the lowest-distance
    entry overall.
    """
    config = config or LeapConfig()
    dim = target.shape[0]
    num_qubits = int(np.log2(dim))
    if 2**num_qubits != dim:
        raise SynthesisError(f"target dimension {dim} is not a power of two")
    tracer = get_tracer()
    metrics = get_metrics()
    start_time = time.monotonic()
    report = SynthesisReport()
    if num_qubits == 1:
        solution = _one_qubit_solution(target)
        report.solutions = [solution]
        report.best = solution
        report.elapsed_seconds = time.monotonic() - start_time
        return report

    rng = np.random.default_rng(config.seed)
    # CNOT direction is absorbable into the surrounding rotations, so only
    # one orientation per pair needs to be explored.
    placements = sorted(
        {tuple(sorted(p)) for p in all_placements(num_qubits, config.coupling)}
    )
    if not placements:
        raise SynthesisError("no CNOT placements available")

    pool: list[SynthesisSolution] = []
    # Depth 0: rotations only.
    ansatz0 = build_leap_ansatz(num_qubits, [], config.layer_rotations)
    result0 = instantiate(
        ansatz0,
        target,
        rng=rng,
        starts=config.instantiation_starts,
        maxiter=config.max_optimizer_iterations,
    )
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
    best_distance = result0.distance
    for layer in range(1, config.max_layers + 1):
        layer_entries: list[
            tuple[float, SynthesisSolution, np.ndarray, tuple[int, int]]
        ] = []
        ansatze = [
            build_leap_ansatz(
                num_qubits, best_structure + [placement], config.layer_rotations
            )
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
            warm_spread=0.1,
        )
        report.instantiations += len(placements)
        for placement, ansatz, fits in zip(placements, ansatze, layer_fits):
            # Every start's local optimum becomes a candidate: distinct
            # minima at the same CNOT count are naturally dissimilar,
            # which feeds QUEST's selection (the paper's "multiple seeds").
            for fit in fits:
                solution = SynthesisSolution(
                    circuit=ansatz.build_circuit(fit.params),
                    distance=fit.distance,
                    cnot_count=layer,
                )
                layer_entries.append(
                    (fit.distance, solution, fit.params, placement)
                )
        layer_entries.sort(key=lambda entry: entry[0])
        pool.extend(
            entry[1] for entry in layer_entries[: config.solutions_per_layer]
        )
        best_distance, _, best_params, best_placement = layer_entries[0]
        best_structure = best_structure + [best_placement]
        report.layers_explored = layer
        if tracer.is_enabled:
            tracer.event(
                "leap.layer",
                layer=layer,
                best_distance=float(best_distance),
                instantiations=report.instantiations,
                pool_size=len(pool),
            )
        if metrics.is_enabled:
            metrics.inc("leap.layers")
        if best_distance <= config.success_threshold and config.stop_when_exact:
            break
    pool.sort(key=lambda s: (s.cnot_count, s.distance))
    report.solutions = pool
    report.best = min(pool, key=lambda s: s.distance)
    report.elapsed_seconds = time.monotonic() - start_time
    if metrics.is_enabled:
        metrics.inc("leap.instantiations", report.instantiations)
        metrics.inc("leap.synthesis_runs")
    return report
