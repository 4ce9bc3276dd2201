"""The Table-1 benchmark algorithm suite."""

from repro.algorithms.arith import adder, apply_cuccaro_adder, multiplier
from repro.algorithms.hamiltonian import (
    SpinModelParams,
    heisenberg,
    spin_evolution,
    tfim,
    xy_model,
)
from repro.algorithms.hlf import hlf, random_hlf
from repro.algorithms.observables import average_magnetization
from repro.algorithms.qft import qft
from repro.algorithms.variational import qaoa_maxcut, random_qaoa, vqe_ansatz

__all__ = [
    "adder",
    "apply_cuccaro_adder",
    "multiplier",
    "qft",
    "hlf",
    "random_hlf",
    "qaoa_maxcut",
    "random_qaoa",
    "vqe_ansatz",
    "tfim",
    "heisenberg",
    "xy_model",
    "spin_evolution",
    "SpinModelParams",
    "average_magnetization",
]

