"""Gate definitions and their unitary matrices.

The library uses a small, explicit gate set that covers everything the
QUEST pipeline needs:

* fixed one-qubit gates: ``I, X, Y, Z, H, S, SDG, T, TDG, SX``
* parametric one-qubit rotations: ``RX, RY, RZ, P (phase), U3``
* two-qubit gates: ``CX (CNOT), CZ, SWAP, RZZ, RXX, RYY, CP``
* three-qubit gates: ``CCX (Toffoli), CSWAP``
* ``MEASURE`` / ``BARRIER`` pseudo-gates

Conventions
-----------
Matrices are written in the computational basis with **little-endian**
qubit ordering: for a two-qubit gate acting on ``(q0, q1)``, basis state
``|b1 b0>`` has index ``b0 + 2*b1`` where ``b0`` is the state of the
*first* listed qubit.  This matches Qiskit and is used consistently by
the simulators and embedding helpers in :mod:`repro.linalg`.

Rotation gates follow ``R_P(theta) = exp(-i * theta / 2 * P)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GateError

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: Names of gates that take no parameters, with their matrices.
_FIXED_MATRICES: dict[str, np.ndarray] = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    # Two-qubit gates (little-endian: first qubit is the low-order bit).
    # CX: first listed qubit is the control, second is the target.
    "cx": np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    ),
}

#: Number of qubits for each named gate.
GATE_NUM_QUBITS: dict[str, int] = {
    "id": 1, "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1, "t": 1,
    "tdg": 1, "sx": 1, "rx": 1, "ry": 1, "rz": 1, "p": 1, "u1": 1,
    "u2": 1, "u3": 1, "u": 1,
    "cx": 2, "cz": 2, "swap": 2, "rzz": 2, "rxx": 2, "ryy": 2, "cp": 2,
    "ccx": 3, "cswap": 3,
    "measure": 1, "barrier": 0,
}

#: Number of parameters for each named gate.
GATE_NUM_PARAMS: dict[str, int] = {
    "id": 0, "x": 0, "y": 0, "z": 0, "h": 0, "s": 0, "sdg": 0, "t": 0,
    "tdg": 0, "sx": 0,
    "rx": 1, "ry": 1, "rz": 1, "p": 1, "u1": 1, "u2": 2, "u3": 3, "u": 3,
    "cx": 0, "cz": 0, "swap": 0, "rzz": 1, "rxx": 1, "ryy": 1, "cp": 1,
    "ccx": 0, "cswap": 0,
    "measure": 0, "barrier": 0,
}

#: Gates treated as entangling (two-qubit) for CNOT-count purposes.
TWO_QUBIT_GATES = frozenset({"cx", "cz", "swap", "rzz", "rxx", "ryy", "cp"})

#: Self-inverse gates: g . g == identity.
SELF_INVERSE_GATES = frozenset({"id", "x", "y", "z", "h", "cx", "cz", "swap"})

#: CNOT cost of each gate when lowered to the {1q, CX} basis.
CNOT_COST: dict[str, int] = {
    "cx": 1, "cz": 1, "cp": 2, "rzz": 2, "rxx": 2, "ryy": 2, "swap": 3,
    "ccx": 6, "cswap": 8,
}


def rx_entries(theta: float) -> tuple:
    """Row-major entries of :func:`rx_matrix` as Python scalars."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (c, -1j * s, -1j * s, c)


def ry_entries(theta: float) -> tuple:
    """Row-major entries of :func:`ry_matrix` as Python scalars."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (c, -s, s, c)


def rz_entries(theta: float) -> tuple:
    """Row-major entries of :func:`rz_matrix` as Python scalars."""
    phase = cmath.exp(1j * theta / 2.0)
    return (1.0 / phase, 0, 0, phase)


def rx_matrix(theta: float) -> np.ndarray:
    """Return the matrix of ``RX(theta) = exp(-i theta X / 2)``."""
    return np.array(rx_entries(theta), dtype=complex).reshape(2, 2)


def ry_matrix(theta: float) -> np.ndarray:
    """Return the matrix of ``RY(theta) = exp(-i theta Y / 2)``."""
    return np.array(ry_entries(theta), dtype=complex).reshape(2, 2)


def rz_matrix(theta: float) -> np.ndarray:
    """Return the matrix of ``RZ(theta) = exp(-i theta Z / 2)``."""
    return np.array(rz_entries(theta), dtype=complex).reshape(2, 2)


def phase_matrix(lam: float) -> np.ndarray:
    """Return the matrix of the phase gate ``P(lambda) = diag(1, e^{i lambda})``."""
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Return the matrix of the generic one-qubit gate ``U3(theta, phi, lambda)``.

    Follows the OpenQASM 2.0 / Qiskit convention::

        U3 = [[cos(t/2),             -e^{i lam} sin(t/2)],
              [e^{i phi} sin(t/2),    e^{i (phi+lam)} cos(t/2)]]
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def rzz_matrix(theta: float) -> np.ndarray:
    """Return ``exp(-i theta/2 Z (x) Z)``, diagonal in the computational basis."""
    p = cmath.exp(-1j * theta / 2.0)
    q = cmath.exp(1j * theta / 2.0)
    return np.diag([p, q, q, p]).astype(complex)


def rxx_matrix(theta: float) -> np.ndarray:
    """Return ``exp(-i theta/2 X (x) X)``."""
    c, s = math.cos(theta / 2.0), -1j * math.sin(theta / 2.0)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[1, 1] = out[2, 2] = out[3, 3] = c
    out[0, 3] = out[3, 0] = s
    out[1, 2] = out[2, 1] = s
    return out


def ryy_matrix(theta: float) -> np.ndarray:
    """Return ``exp(-i theta/2 Y (x) Y)``."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[1, 1] = out[2, 2] = out[3, 3] = c
    out[0, 3] = out[3, 0] = 1j * s
    out[1, 2] = out[2, 1] = -1j * s
    return out


def cp_matrix(lam: float) -> np.ndarray:
    """Return the controlled-phase matrix ``diag(1, 1, 1, e^{i lambda})``."""
    return np.diag([1, 1, 1, cmath.exp(1j * lam)]).astype(complex)


def _ccx_matrix() -> np.ndarray:
    # Little-endian on (control, control, target): target is the *last*
    # listed qubit, i.e. the high-order bit of the local index.
    out = np.eye(8, dtype=complex)
    # Flip bit 2 (the target) when bits 0 and 1 (controls) are both 1.
    i, j = 0b011, 0b111
    out[[i, j]] = out[[j, i]]
    return out


def _cswap_matrix() -> np.ndarray:
    # (control, a, b): swap bits 1 and 2 when bit 0 is set.
    out = np.eye(8, dtype=complex)
    i, j = 0b011, 0b101
    out[[i, j]] = out[[j, i]]
    return out


_PARAMETRIC_BUILDERS = {
    "rx": lambda p: rx_matrix(p[0]),
    "ry": lambda p: ry_matrix(p[0]),
    "rz": lambda p: rz_matrix(p[0]),
    "p": lambda p: phase_matrix(p[0]),
    "u1": lambda p: phase_matrix(p[0]),
    "u2": lambda p: u3_matrix(math.pi / 2.0, p[0], p[1]),
    "u3": lambda p: u3_matrix(p[0], p[1], p[2]),
    "u": lambda p: u3_matrix(p[0], p[1], p[2]),
    "rzz": lambda p: rzz_matrix(p[0]),
    "rxx": lambda p: rxx_matrix(p[0]),
    "ryy": lambda p: ryy_matrix(p[0]),
    "cp": lambda p: cp_matrix(p[0]),
}


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Return the unitary matrix of the named gate.

    Raises :class:`GateError` for unknown gates, pseudo-gates
    (``measure``/``barrier``), or a wrong number of parameters.
    """
    if name in ("measure", "barrier"):
        raise GateError(f"pseudo-gate {name!r} has no unitary matrix")
    expected = GATE_NUM_PARAMS.get(name)
    if expected is None:
        raise GateError(f"unknown gate {name!r}")
    if len(params) != expected:
        raise GateError(
            f"gate {name!r} takes {expected} parameter(s), got {len(params)}"
        )
    if name in _FIXED_MATRICES:
        return _FIXED_MATRICES[name].copy()
    if name == "ccx":
        return _ccx_matrix()
    if name == "cswap":
        return _cswap_matrix()
    return _PARAMETRIC_BUILDERS[name](params)


@dataclass(frozen=True)
class Gate:
    """A named gate with bound parameters.

    Attributes
    ----------
    name:
        Lower-case gate mnemonic (e.g. ``"cx"``, ``"ry"``).
    params:
        Bound real parameters, empty for fixed gates.
    """

    name: str
    params: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        expected = GATE_NUM_PARAMS.get(self.name)
        if expected is None:
            raise GateError(f"unknown gate {self.name!r}")
        if len(self.params) != expected:
            raise GateError(
                f"gate {self.name!r} takes {expected} parameter(s), "
                f"got {len(self.params)}"
            )
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    @property
    def num_qubits(self) -> int:
        """Number of qubits this gate acts on."""
        return GATE_NUM_QUBITS[self.name]

    def matrix(self) -> np.ndarray:
        """Return the gate's unitary matrix (little-endian)."""
        return gate_matrix(self.name, self.params)

    def inverse(self) -> "Gate":
        """Return a gate whose matrix is the adjoint of this gate's matrix.

        Raises :class:`GateError` for pseudo-gates.
        """
        if self.name in ("measure", "barrier"):
            raise GateError(f"pseudo-gate {self.name!r} has no inverse")
        inverse_names = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
        if self.name in SELF_INVERSE_GATES or self.name in ("ccx", "cswap"):
            return self
        if self.name in inverse_names:
            return Gate(inverse_names[self.name])
        if self.name in ("rx", "ry", "rz", "p", "u1", "rzz", "rxx", "ryy", "cp"):
            return Gate(self.name, (-self.params[0],))
        if self.name == "sx":
            return Gate("rx", (-math.pi / 2.0,))
        if self.name in ("u3", "u"):
            theta, phi, lam = self.params
            return Gate(self.name, (-theta, -lam, -phi))
        if self.name == "u2":
            phi, lam = self.params
            return Gate("u3", (-math.pi / 2.0, -lam, -phi))
        raise GateError(f"no inverse rule for gate {self.name!r}")

    def cnot_cost(self) -> int:
        """CNOT count of this gate after lowering to the {1q, CX} basis."""
        return CNOT_COST.get(self.name, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"Gate({self.name}({args}))"
        return f"Gate({self.name})"
