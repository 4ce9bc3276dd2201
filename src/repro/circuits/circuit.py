"""The circuit intermediate representation.

A :class:`Circuit` is an ordered list of :class:`Operation` objects over a
fixed number of qubits.  Operations are applied left-to-right, so the
circuit unitary is ``U = U_K ... U_2 U_1`` for operations ``1..K`` —
exactly the convention used in the QUEST paper (Sec. 3.2).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.circuits.gates import Gate
from repro.exceptions import CircuitError


@dataclass(frozen=True)
class Operation:
    """A gate applied to specific qubits (and, for measure, a classical bit).

    Attributes
    ----------
    gate:
        The :class:`Gate` being applied.
    qubits:
        Target qubit indices, ordered (e.g. ``(control, target)`` for CX).
    cbit:
        Classical bit receiving the result of a ``measure`` operation.
    """

    gate: Gate
    qubits: tuple[int, ...]
    cbit: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.gate.name == "barrier":
            return
        if len(self.qubits) != self.gate.num_qubits:
            raise CircuitError(
                f"gate {self.gate.name!r} needs {self.gate.num_qubits} "
                f"qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubits in operation: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {self.qubits}")

    @property
    def name(self) -> str:
        """The gate mnemonic of this operation."""
        return self.gate.name

    @property
    def params(self) -> tuple[float, ...]:
        """Bound gate parameters."""
        return self.gate.params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Operation({self.gate!r} @ {self.qubits})"


class Circuit:
    """A mutable quantum circuit over ``num_qubits`` qubits.

    The builder API mirrors common circuit libraries::

        circ = Circuit(3)
        circ.h(0)
        circ.cx(0, 1)
        circ.ry(1.2, qubit=2)
        circ.measure_all()
    """

    def __init__(self, num_qubits: int, operations: Iterable[Operation] = ()) -> None:
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._ops: list[Operation] = []
        for op in operations:
            self.append(op)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of qubits in the circuit."""
        return self._num_qubits

    @property
    def operations(self) -> tuple[Operation, ...]:
        """The operations in application order (immutable view)."""
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, index):
        return self._ops[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self._num_qubits == other._num_qubits and self._ops == other._ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit(num_qubits={self._num_qubits}, ops={len(self._ops)}, "
            f"cnots={self.cnot_count()})"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, op: Operation) -> None:
        """Append an operation, validating its qubit indices."""
        if op.gate.name != "barrier" and any(
            q >= self._num_qubits for q in op.qubits
        ):
            raise CircuitError(
                f"operation {op!r} out of range for {self._num_qubits} qubits"
            )
        self._ops.append(op)

    def add_gate(self, name: str, qubits, params: tuple[float, ...] = ()) -> None:
        """Append gate ``name`` on ``qubits`` (an int or a sequence of ints)."""
        if isinstance(qubits, int):
            qubits = (qubits,)
        self.append(Operation(Gate(name, tuple(params)), tuple(qubits)))

    def extend(self, ops: Iterable[Operation]) -> None:
        """Append every operation from ``ops``."""
        for op in ops:
            self.append(op)

    # Named builders -----------------------------------------------------
    def h(self, q: int) -> None:
        self.add_gate("h", q)

    def x(self, q: int) -> None:
        self.add_gate("x", q)

    def y(self, q: int) -> None:
        self.add_gate("y", q)

    def z(self, q: int) -> None:
        self.add_gate("z", q)

    def s(self, q: int) -> None:
        self.add_gate("s", q)

    def sdg(self, q: int) -> None:
        self.add_gate("sdg", q)

    def t(self, q: int) -> None:
        self.add_gate("t", q)

    def tdg(self, q: int) -> None:
        self.add_gate("tdg", q)

    def sx(self, q: int) -> None:
        self.add_gate("sx", q)

    def rx(self, theta: float, qubit: int) -> None:
        self.add_gate("rx", qubit, (theta,))

    def ry(self, theta: float, qubit: int) -> None:
        self.add_gate("ry", qubit, (theta,))

    def rz(self, theta: float, qubit: int) -> None:
        self.add_gate("rz", qubit, (theta,))

    def p(self, lam: float, qubit: int) -> None:
        self.add_gate("p", qubit, (lam,))

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> None:
        self.add_gate("u3", qubit, (theta, phi, lam))

    def cx(self, control: int, target: int) -> None:
        self.add_gate("cx", (control, target))

    def cz(self, a: int, b: int) -> None:
        self.add_gate("cz", (a, b))

    def swap(self, a: int, b: int) -> None:
        self.add_gate("swap", (a, b))

    def rzz(self, theta: float, a: int, b: int) -> None:
        self.add_gate("rzz", (a, b), (theta,))

    def rxx(self, theta: float, a: int, b: int) -> None:
        self.add_gate("rxx", (a, b), (theta,))

    def ryy(self, theta: float, a: int, b: int) -> None:
        self.add_gate("ryy", (a, b), (theta,))

    def cp(self, lam: float, control: int, target: int) -> None:
        self.add_gate("cp", (control, target), (lam,))

    def ccx(self, c1: int, c2: int, target: int) -> None:
        self.add_gate("ccx", (c1, c2, target))

    def measure(self, qubit: int, cbit: int | None = None) -> None:
        """Measure ``qubit`` into classical bit ``cbit`` (defaults to ``qubit``)."""
        self.append(
            Operation(Gate("measure"), (qubit,), cbit if cbit is not None else qubit)
        )

    def measure_all(self) -> None:
        """Measure every qubit into its same-index classical bit."""
        for q in range(self._num_qubits):
            self.measure(q)

    def barrier(self) -> None:
        """Append a barrier pseudo-operation (blocks pass reordering)."""
        self.append(Operation(Gate("barrier"), ()))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def cnot_count(self) -> int:
        """Total CNOT cost: native CX plus the CX cost of other 2q+ gates."""
        return sum(op.gate.cnot_cost() for op in self._ops)

    def depth(self) -> int:
        """Circuit depth counting unitary gates and measurements."""
        level = [0] * self._num_qubits
        depth = 0
        for op in self._ops:
            if op.name == "barrier":
                front = max(level) if level else 0
                level = [front] * self._num_qubits
                continue
            start = max(level[q] for q in op.qubits)
            for q in op.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def has_measurements(self) -> bool:
        """Whether the circuit contains any measure operation."""
        return any(op.name == "measure" for op in self._ops)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def copy(self) -> "Circuit":
        """Return a shallow copy (operations are immutable)."""
        return Circuit(self._num_qubits, self._ops)

    def without_measurements(self) -> "Circuit":
        """Return a copy with all measure/barrier pseudo-ops removed."""
        ops = [op for op in self._ops if op.name not in ("measure", "barrier")]
        return Circuit(self._num_qubits, ops)

    def inverse(self) -> "Circuit":
        """Return the adjoint circuit (reversed order, inverted gates)."""
        if self.has_measurements():
            raise CircuitError("cannot invert a circuit with measurements")
        ops = [
            Operation(op.gate.inverse(), op.qubits)
            for op in reversed(self._ops)
            if op.name != "barrier"
        ]
        return Circuit(self._num_qubits, ops)

    def remap(self, mapping: dict[int, int], num_qubits: int | None = None) -> "Circuit":
        """Return a copy with qubit ``q`` relabeled to ``mapping[q]``.

        ``num_qubits`` defaults to this circuit's width; pass a larger value
        to embed a block into a wider circuit.
        """
        width = self._num_qubits if num_qubits is None else int(num_qubits)
        out = Circuit(width)
        for op in self._ops:
            if op.name == "barrier":
                out.barrier()
                continue
            new_qubits = tuple(mapping[q] for q in op.qubits)
            cbit = mapping.get(op.cbit, op.cbit) if op.name == "measure" else None
            out.append(Operation(op.gate, new_qubits, cbit))
        return out

    # ------------------------------------------------------------------
    # Unitary
    # ------------------------------------------------------------------
    def unitary(self) -> np.ndarray:
        """Compute the full ``2^n x 2^n`` unitary of the circuit.

        Measurements must be absent.  Uses tensor contraction so no gate is
        ever embedded into a dense full-width matrix.
        """
        from repro.sim.unitary import circuit_unitary

        return circuit_unitary(self)

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self._num_qubits} qubits, {len(self._ops)} ops, "
            f"depth {self.depth()}, {self.cnot_count()} CNOTs"
        )
