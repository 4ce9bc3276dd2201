"""Qiskit-like transpiler: basis lowering, peephole passes, routing."""

from repro.transpile.basis import lower_to_basis
from repro.transpile.passes import (
    cancel_adjacent_cx,
    consolidate_two_qubit_runs,
    merge_one_qubit_gates,
    remove_identity_rotations,
)
from repro.transpile.pipeline import TranspileResult, transpile
from repro.transpile.routing import RoutingResult, route_to_coupling

__all__ = [
    "lower_to_basis",
    "merge_one_qubit_gates",
    "cancel_adjacent_cx",
    "remove_identity_rotations",
    "consolidate_two_qubit_runs",
    "route_to_coupling",
    "RoutingResult",
    "transpile",
    "TranspileResult",
]
