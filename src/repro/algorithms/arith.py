"""Quantum arithmetic circuits: Cuccaro ripple-carry adder and multiplier.

The adder follows Cuccaro et al. (2004): MAJ/UMA chains computing
``b <- a + b`` in place with one carry-in and one carry-out ancilla.
The multiplier is a shift-and-add array: each partial product
``a_i AND b`` is computed into a temporary register with Toffolis, added
into the accumulator with the Cuccaro adder, and uncomputed.
Both are verified against classical arithmetic on computational-basis
inputs by the test suite.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.exceptions import CircuitError


def _maj(circuit: Circuit, c: int, b: int, a: int) -> None:
    circuit.cx(a, b)
    circuit.cx(a, c)
    circuit.ccx(c, b, a)


def _uma(circuit: Circuit, c: int, b: int, a: int) -> None:
    circuit.ccx(c, b, a)
    circuit.cx(a, c)
    circuit.cx(c, b)


def apply_cuccaro_adder(
    circuit: Circuit,
    a_bits: list[int],
    b_bits: list[int],
    carry_in: int,
    carry_out: int | None,
) -> None:
    """Append ``b <- a + b`` (mod ``2^n`` if ``carry_out`` is None).

    ``a_bits`` and ``b_bits`` are equal-length LSB-first qubit lists;
    ``carry_in`` must be ``|0>`` for plain addition.
    """
    if len(a_bits) != len(b_bits) or not a_bits:
        raise CircuitError("adder needs equal-length, non-empty registers")
    n = len(a_bits)
    _maj(circuit, carry_in, b_bits[0], a_bits[0])
    for i in range(1, n):
        _maj(circuit, a_bits[i - 1], b_bits[i], a_bits[i])
    if carry_out is not None:
        circuit.cx(a_bits[n - 1], carry_out)
    for i in range(n - 1, 0, -1):
        _uma(circuit, a_bits[i - 1], b_bits[i], a_bits[i])
    _uma(circuit, carry_in, b_bits[0], a_bits[0])


def adder(num_bits: int = 1, with_carry_out: bool = True) -> Circuit:
    """The Cuccaro ripple-carry adder on ``2*num_bits + 2`` qubits.

    Qubit layout (LSB first): ``[cin, a0, b0, a1, b1, ..., cout]``.
    ``num_bits = 1`` gives the 4-qubit "Adder 4" benchmark circuit.
    """
    if num_bits < 1:
        raise CircuitError("adder needs at least one bit")
    num_qubits = 2 * num_bits + (2 if with_carry_out else 1)
    circuit = Circuit(num_qubits)
    a_bits = [1 + 2 * i for i in range(num_bits)]
    b_bits = [2 + 2 * i for i in range(num_bits)]
    carry_out = num_qubits - 1 if with_carry_out else None
    apply_cuccaro_adder(circuit, a_bits, b_bits, 0, carry_out)
    return circuit


def multiplier(num_bits: int = 1) -> Circuit:
    """Shift-and-add multiplier: ``out <- a * b`` on ``5*num_bits + 1`` qubits.

    Layout: ``a`` = qubits ``[0, n)``, ``b`` = ``[n, 2n)``, ``out`` =
    ``[2n, 4n)``, temporary partial-product register ``[4n, 5n)``, carry-in
    ancilla ``5n``.  ``num_bits = 1`` reduces to a Toffoli (the smallest
    "Multiplier" benchmark); larger sizes exercise deep CCX/CX structure.
    """
    if num_bits < 1:
        raise CircuitError("multiplier needs at least one bit")
    n = num_bits
    circuit = Circuit(5 * n + 1)
    a_bits = list(range(0, n))
    b_bits = list(range(n, 2 * n))
    out_bits = list(range(2 * n, 4 * n))
    temp_bits = list(range(4 * n, 5 * n))
    carry_in = 5 * n
    for i in range(n):
        # temp <- a_i AND b (bitwise).
        for j in range(n):
            circuit.ccx(a_bits[i], b_bits[j], temp_bits[j])
        if n == 1:
            # Single partial product: out bit 0 accumulates directly.
            circuit.cx(temp_bits[0], out_bits[i])
        else:
            target = out_bits[i : i + n]
            apply_cuccaro_adder(
                circuit,
                temp_bits,
                target,
                carry_in,
                out_bits[i + n] if i + n < len(out_bits) else None,
            )
        # Uncompute temp.
        for j in range(n):
            circuit.ccx(a_bits[i], b_bits[j], temp_bits[j])
    return circuit

