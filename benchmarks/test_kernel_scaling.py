"""Smoke benchmark: vectorized kernels vs. their scalar predecessors.

Times the two inner loops this layer vectorized — noisy trajectory
sampling and the instantiation cost/gradient — and records the numbers to
``BENCH_kernels.json`` at the repo root.  Asserts the layer's two core
claims:

* the batched trajectory engine is >= 5x faster than the scalar engine at
  T=1000 trajectories on a 5-qubit circuit, with identical output for a
  fixed seed (both engines consume the same pre-sampled error outcomes);
* the stacked instantiation kernel yields byte-identical L-BFGS results
  while beating two frozen "before" kernels: the seed implementation
  (dense ``np.kron`` embeddings plus the full ``(num_params, dim, dim)``
  gradient tensor, frozen below) and the slot-by-slot trace-only sweep
  that preceded the stacked kernel (frozen in ``tests/ansatz_oracle.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
from conftest import print_table
from scipy.optimize import minimize

from repro.algorithms import tfim
from repro.circuits import random_unitary
from repro.circuits.gates import gate_matrix
from repro.linalg.embed import embed_unitary
from repro.metrics import tvd
from repro.noise import NoiseModel, run_density, run_trajectories
from repro.synthesis import build_leap_ansatz
from repro.synthesis.instantiate import _cost_and_gradient

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
from tests.ansatz_oracle import SlotSweep

RESULTS_PATH = REPO_ROOT / "BENCH_kernels.json"

TRAJECTORIES = 1000

_PAULI = {
    "rx": np.array([[0, 1], [1, 0]], dtype=complex),
    "ry": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "rz": np.array([[1, 0], [0, -1]], dtype=complex),
}
_IDENTITIES = {k: np.eye(2**k, dtype=complex) for k in range(12)}


def _seed_embed(gate: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """The pre-vectorization one-qubit embedding (generic ``np.kron``)."""
    return np.kron(
        _IDENTITIES[num_qubits - 1 - qubit],
        np.kron(gate, _IDENTITIES[qubit]),
    )


def _seed_fixed_embeds(ansatz) -> dict[int, np.ndarray]:
    """The seed's dense embedding of every fixed (CNOT) slot."""
    return {
        position: embed_unitary(gate_matrix(slot.name), slot.qubits, ansatz.num_qubits)
        for position, slot in enumerate(ansatz.slots)
        if slot.param_index is None
    }


def _seed_cost_and_gradient(params, ansatz, target_conj, dim, fixed_embeds):
    """Frozen copy of the seed's cost path: materializes the full
    ``(num_params, dim, dim)`` gradient tensor every call."""
    embeds = []
    for position, slot in enumerate(ansatz.slots):
        if slot.param_index is None:
            embeds.append(fixed_embeds[position])
        else:
            gate = gate_matrix(slot.name, (float(params[slot.param_index]),))
            embeds.append(_seed_embed(gate, slot.qubits[0], ansatz.num_qubits))
    prefixes = [np.eye(dim, dtype=complex)]
    for embed in embeds:
        prefixes.append(embed @ prefixes[-1])
    unitary = prefixes[-1]
    gradient = np.zeros((ansatz.num_params, dim, dim), dtype=complex)
    suffix = np.eye(dim, dtype=complex)
    for position in range(len(ansatz.slots) - 1, -1, -1):
        slot = ansatz.slots[position]
        if slot.param_index is not None:
            theta = float(params[slot.param_index])
            derivative_gate = (
                -0.5j * _PAULI[slot.name] @ gate_matrix(slot.name, (theta,))
            )
            derivative_embed = _seed_embed(
                derivative_gate, slot.qubits[0], ansatz.num_qubits
            )
            gradient[slot.param_index] = (
                suffix @ derivative_embed @ prefixes[position]
            )
        suffix = suffix @ embeds[position]
    trace = np.sum(target_conj * unitary)
    magnitude = abs(trace)
    cost = 1.0 - magnitude / dim
    if magnitude < 1e-14:
        return cost, np.zeros(ansatz.num_params)
    phase = np.conj(trace) / magnitude
    dtraces = np.sum(target_conj[None, :, :] * gradient, axis=(1, 2))
    return cost, -np.real(phase * dtraces) / dim


def _seconds_per_call(cost_fn, params, args, calls=300, repeats=5) -> float:
    """Best-of-``repeats`` mean time of one ``cost_fn(params, *args)``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            cost_fn(params, *args)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def test_kernel_scaling_smoke():
    # --- Trajectory sampler: scalar vs batched -------------------------
    circuit = tfim(5, steps=2)
    noise = NoiseModel.from_noise_level(0.01)

    start = time.perf_counter()
    scalar = run_trajectories(
        circuit, noise, trajectories=TRAJECTORIES, rng=7, batched=False
    )
    scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = run_trajectories(
        circuit, noise, trajectories=TRAJECTORIES, rng=7, batched=True
    )
    batched_seconds = time.perf_counter() - start
    trajectory_speedup = scalar_seconds / batched_seconds

    # Same seed, same pre-sampled outcomes: the engines must agree.
    assert np.allclose(scalar, batched, atol=1e-12)
    # And the sampler must agree with the exact density-matrix answer.
    density_tvd = tvd(run_density(circuit, noise), batched)
    assert density_tvd < 0.05

    # --- Instantiation gradient: two frozen paths vs the stacked kernel -
    rng = np.random.default_rng(2022)
    ansatz = build_leap_ansatz(3, [(0, 1), (1, 2), (0, 2)])
    target = random_unitary(8, rng)
    target_conj = target.conj()
    x0 = rng.uniform(-np.pi, np.pi, ansatz.num_params)
    options = {"maxiter": 200, "ftol": 1e-15, "gtol": 1e-12}
    # The slot sweep exposes the ansatz's trace_and_gradient/num_params,
    # so the production cost function drives it unchanged.
    paths = {
        "seed": (
            _seed_cost_and_gradient,
            (ansatz, target_conj, 8, _seed_fixed_embeds(ansatz)),
        ),
        "sweep": (_cost_and_gradient, (SlotSweep(ansatz), target_conj, 8)),
        "stacked": (_cost_and_gradient, (ansatz, target_conj, 8)),
    }
    fits, fit_seconds, call_seconds = {}, {}, {}
    for name, (cost_fn, args) in paths.items():
        start = time.perf_counter()
        fits[name] = minimize(
            cost_fn, x0, args=args, jac=True, method="L-BFGS-B", options=options
        )
        fit_seconds[name] = time.perf_counter() - start
        call_seconds[name] = _seconds_per_call(cost_fn, x0, args)
    instantiation_speedup = fit_seconds["seed"] / fit_seconds["stacked"]
    speedup_vs_seed = call_seconds["seed"] / call_seconds["stacked"]
    speedup_vs_sweep = call_seconds["sweep"] / call_seconds["stacked"]

    # The optimizer must walk the exact same path: byte-identical result.
    for name in ("sweep", "stacked"):
        assert np.array_equal(fits["seed"].x, fits[name].x)
        assert fits["seed"].fun == fits[name].fun

    rows = [
        ["trajectories T=1000, scalar", f"{scalar_seconds:.3f}", ""],
        ["trajectories T=1000, batched", f"{batched_seconds:.3f}",
         f"{trajectory_speedup:.1f}x"],
        ["instantiate, seed gradient", f"{fit_seconds['seed']:.3f}", ""],
        ["instantiate, slot-sweep gradient", f"{fit_seconds['sweep']:.3f}", ""],
        ["instantiate, stacked gradient", f"{fit_seconds['stacked']:.3f}",
         f"{instantiation_speedup:.1f}x"],
        ["cost+gradient call, seed", f"{call_seconds['seed']:.6f}", ""],
        ["cost+gradient call, slot sweep", f"{call_seconds['sweep']:.6f}", ""],
        ["cost+gradient call, stacked", f"{call_seconds['stacked']:.6f}",
         f"{speedup_vs_seed:.1f}x / {speedup_vs_sweep:.1f}x"],
    ]
    print_table(
        "Vectorized kernels (TFIM-5 trajectories / 3q instantiation)",
        ["kernel", "seconds", "speedup"],
        rows,
    )

    assert trajectory_speedup >= 5.0
    assert instantiation_speedup > 1.0
    assert speedup_vs_sweep > 1.0

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "trajectory_circuit": "tfim(5, steps=2)",
                "trajectories": TRAJECTORIES,
                "scalar_trajectory_seconds": scalar_seconds,
                "batched_trajectory_seconds": batched_seconds,
                "trajectory_speedup": trajectory_speedup,
                "trajectory_density_tvd": density_tvd,
                "instantiation_ansatz": "3 qubits, 3 CNOT layers",
                "seed_instantiation_seconds": fit_seconds["seed"],
                "sweep_instantiation_seconds": fit_seconds["sweep"],
                "stacked_instantiation_seconds": fit_seconds["stacked"],
                "instantiation_speedup": instantiation_speedup,
                "seed_seconds_per_call": call_seconds["seed"],
                "sweep_seconds_per_call": call_seconds["sweep"],
                "stacked_seconds_per_call": call_seconds["stacked"],
                "per_call_speedup_vs_seed": speedup_vs_seed,
                "per_call_speedup_vs_sweep": speedup_vs_sweep,
                "optimizer_results_identical": bool(
                    np.array_equal(fits["seed"].x, fits["stacked"].x)
                    and np.array_equal(fits["sweep"].x, fits["stacked"].x)
                ),
            },
            indent=2,
        )
        + "\n"
    )
