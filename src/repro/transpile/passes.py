"""Peephole optimization passes (the "Qiskit optimizations" baseline).

Implements the optimization classes the paper attributes to the Qiskit
pipeline (Sec. 1.2): collapsing adjacent one-qubit gates, deleting gates
using unitary/commutativity rules, and consolidating two-qubit runs for
KAK-style resynthesis.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.circuit import Circuit, Operation
from repro.linalg.su2 import ANGLE_ATOL, is_identity_angles, zyz_decompose

#: Fewest CNOTs in a same-pair run that consolidation resynthesizes.
_MIN_RUN_CNOTS = 2

#: One-qubit gate names the merge pass accumulates.
_ONE_QUBIT_UNITARIES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "rx", "ry", "rz",
     "p", "u1", "u2", "u3", "u"}
)


def _emit_zyz(circuit: Circuit, qubit: int, matrix: np.ndarray) -> None:
    theta, phi, lam, _ = zyz_decompose(matrix)
    if is_identity_angles(theta, phi, lam):
        return
    if abs(math.remainder(theta, 2.0 * math.pi)) < ANGLE_ATOL:
        circuit.rz(phi + lam, qubit)
        return
    if abs(math.remainder(lam, 2.0 * math.pi)) > ANGLE_ATOL:
        circuit.rz(lam, qubit)
    circuit.ry(theta, qubit)
    if abs(math.remainder(phi, 2.0 * math.pi)) > ANGLE_ATOL:
        circuit.rz(phi, qubit)


def merge_one_qubit_gates(circuit: Circuit) -> Circuit:
    """Collapse every run of adjacent one-qubit gates into <= 3 rotations.

    Runs are accumulated as 2x2 matrices and re-emitted in ZYZ form;
    identity products disappear entirely.
    """
    out = Circuit(circuit.num_qubits)
    pending: dict[int, np.ndarray] = {}

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is not None:
            _emit_zyz(out, qubit, matrix)

    for op in circuit.operations:
        if op.name in _ONE_QUBIT_UNITARIES and len(op.qubits) == 1:
            qubit = op.qubits[0]
            accumulated = pending.get(qubit)
            matrix = op.gate.matrix()
            pending[qubit] = matrix if accumulated is None else matrix @ accumulated
            continue
        if op.name == "barrier":
            for qubit in list(pending):
                flush(qubit)
            out.barrier()
            continue
        for qubit in op.qubits:
            flush(qubit)
        out.append(op)
    for qubit in list(pending):
        flush(qubit)
    return out


def _commutes_on_control(op: Operation, qubit: int) -> bool:
    """Whether ``op`` commutes with a CX whose *control* is ``qubit``."""
    if op.name in ("rz", "p", "u1", "z", "s", "sdg", "t", "tdg"):
        return op.qubits[0] == qubit
    if op.name == "cx":
        return op.qubits[0] == qubit and qubit not in op.qubits[1:]
    return False


def _commutes_on_target(op: Operation, qubit: int) -> bool:
    """Whether ``op`` commutes with a CX whose *target* is ``qubit``."""
    if op.name in ("rx", "x", "sx"):
        return op.qubits[0] == qubit
    if op.name == "cx":
        return op.qubits[1] == qubit and qubit != op.qubits[0]
    return False


def cancel_adjacent_cx(circuit: Circuit) -> Circuit:
    """Delete CX pairs that meet with nothing non-commuting in between.

    Uses the standard commutation rules: Z-like rotations and shared-control
    CXs commute on the control; X-like rotations and shared-target CXs
    commute on the target.  This subsumes plain adjacent-pair cancellation
    and is the pass that gives the Qiskit baseline its CNOT reductions.
    """
    kept: list[Operation | None] = []
    for op in circuit.operations:
        if op.name != "cx":
            kept.append(op)
            continue
        control, target = op.qubits
        cancelled = False
        for index in range(len(kept) - 1, -1, -1):
            earlier = kept[index]
            if earlier is None:
                continue
            if earlier.name == "barrier" or earlier.name == "measure":
                break
            touches_control = control in earlier.qubits
            touches_target = target in earlier.qubits
            if not (touches_control or touches_target):
                continue
            if (
                earlier.name == "cx"
                and earlier.qubits == (control, target)
            ):
                kept[index] = None
                cancelled = True
                break
            ok = True
            if touches_control and not _commutes_on_control(earlier, control):
                ok = False
            if touches_target and not _commutes_on_target(earlier, target):
                ok = False
            if not ok:
                break
        if not cancelled:
            kept.append(op)
    out = Circuit(circuit.num_qubits)
    for op in kept:
        if op is not None:
            out.append(op)
    return out


def remove_identity_rotations(circuit: Circuit) -> Circuit:
    """Drop rotations whose angle is a multiple of 2*pi (numerically)."""
    out = Circuit(circuit.num_qubits)
    for op in circuit.operations:
        if (
            op.name in ("rx", "ry", "rz", "p", "u1")
            and abs(math.remainder(op.params[0], 2.0 * math.pi)) < ANGLE_ATOL
        ):
            continue
        out.append(op)
    return out


def consolidate_two_qubit_runs(
    circuit: Circuit,
    rng: np.random.Generator | int | None = None,
) -> Circuit:
    """Resynthesize maximal same-pair runs through the 2-qubit decomposer.

    Finds maximal runs of operations confined to one qubit pair, computes
    the 4x4 unitary of each run with at least ``_MIN_RUN_CNOTS`` CNOTs,
    and re-emits it with at most 3 CNOTs when that is strictly cheaper.
    This is the Qiskit ``ConsolidateBlocks`` + KAK-resynthesis step.
    """
    from repro.synthesis.two_qubit import decompose_two_qubit

    rng = np.random.default_rng(rng)
    ops = list(circuit.operations)
    out = Circuit(circuit.num_qubits)
    index = 0
    while index < len(ops):
        op = ops[index]
        if op.name != "cx":
            out.append(op)
            index += 1
            continue
        pair = frozenset(op.qubits)
        run: list[Operation] = [op]
        deferred: list[Operation] = []
        scan = index + 1
        while scan < len(ops):
            candidate = ops[scan]
            if candidate.name in ("measure", "barrier"):
                break
            touched = set(candidate.qubits)
            if touched <= pair:
                run.append(candidate)
            elif touched & pair:
                break
            else:
                deferred.append(candidate)
            scan += 1
        run_cnots = sum(1 for r in run if r.name == "cx")
        if run_cnots >= _MIN_RUN_CNOTS:
            low, high = sorted(pair)
            local = Circuit(2)
            mapping = {low: 0, high: 1}
            for run_op in run:
                local.append(
                    Operation(
                        run_op.gate, tuple(mapping[q] for q in run_op.qubits)
                    )
                )
            replacement = decompose_two_qubit(local.unitary(), rng=rng)
            if replacement.cnot_count() < run_cnots:
                inverse = {0: low, 1: high}
                for rep_op in replacement.operations:
                    out.append(
                        Operation(
                            rep_op.gate,
                            tuple(inverse[q] for q in rep_op.qubits),
                        )
                    )
            else:
                out.extend(run)
        else:
            out.extend(run)
        out.extend(deferred)
        index = scan
    return out
