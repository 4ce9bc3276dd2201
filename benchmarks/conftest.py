"""Shared infrastructure for the figure-reproduction benchmarks.

Each ``test_figNN_*.py`` regenerates the data behind one paper figure and
prints the same rows/series the paper reports.  QUEST runs are expensive,
so results are cached per-session in the ``quest_cache`` fixture and
shared across figures (Fig. 8, 9, 10, 12 all reuse the same pipelines).

Scale note: the paper evaluates 4-32 qubit circuits on a cluster plus the
IBMQ cloud; these benches default to the 3-5 qubit versions of every
algorithm so the whole suite runs on one laptop-class machine in minutes.
Every generator is parameterized, so larger scales are a constant change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import QuestConfig, run_quest
from repro.algorithms import (
    adder,
    heisenberg,
    multiplier,
    qft,
    random_hlf,
    random_qaoa,
    tfim,
    vqe_ansatz,
    xy_model,
)
from repro.metrics import average_distributions
from repro.noise import fake_manila, run_ptm
from repro.sim.readout import logical_distribution
from repro.transpile import transpile

#: QUEST configuration used by every figure bench.
BENCH_CONFIG = QuestConfig(
    seed=2022,
    max_samples=8,
    max_block_qubits=3,
    threshold_per_block=0.2,
    max_layers_per_block=5,
    solutions_per_layer=3,
    instantiation_starts=2,
    max_optimizer_iterations=150,
    block_time_budget=20.0,
)

#: The Table-1 suite at bench scale.  Labels carry the qubit count, like
#: the paper's "Algorithm N" axis labels in Fig. 8.
def bench_suite() -> dict:
    rng = np.random.default_rng(2022)
    return {
        "adder_4": adder(1),
        "heisenberg_4": heisenberg(4, steps=2),
        "hlf_4": random_hlf(4, rng=rng),
        "qft_4": qft(4),
        "qaoa_4": random_qaoa(4, rounds=1, rng=rng),
        "multiplier_6": multiplier(1),
        "tfim_4": tfim(4, steps=2),
        "vqe_4": vqe_ansatz(4, layers=2, rng=rng),
        "xy_4": xy_model(4, steps=2),
    }


class QuestCache:
    """Lazily computed, session-shared QUEST results per algorithm."""

    def __init__(self) -> None:
        self._suite = bench_suite()
        self._results: dict = {}

    @property
    def names(self) -> list[str]:
        return list(self._suite)

    def circuit(self, name: str):
        return self._suite[name]

    def result(self, name: str):
        if name not in self._results:
            self._results[name] = run_quest(self._suite[name], BENCH_CONFIG)
        return self._results[name]


@pytest.fixture(scope="session")
def quest_cache() -> QuestCache:
    return QuestCache()


def run_on_manila(circuit, optimization_level: int = 2, rng: int = 0):
    """Transpile to the fake Manila device and return the noisy logical
    output distribution (the Fig. 10/13 execution path)."""
    manila = fake_manila()
    prepared = circuit.copy()
    if not prepared.has_measurements():
        prepared.measure_all()
    compiled = transpile(
        prepared, backend=manila, optimization_level=optimization_level, rng=rng
    )
    physical = run_ptm(compiled.circuit, manila.noise)
    logical = logical_distribution(compiled.circuit, physical)
    return logical[: 2**circuit.num_qubits]


def quest_manila_distribution(result, optimization_level: int = 2):
    """QUEST + Qiskit on Manila: ensemble average of noisy outputs."""
    return average_distributions(
        [run_on_manila(c, optimization_level) for c in result.circuits]
    )


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print a figure's data as an aligned text table."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
