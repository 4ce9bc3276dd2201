"""Fake backend descriptors (the paper's quantum-hardware substitute).

The paper runs on the IBMQ Manila QPU (5 qubits, linear coupling) and on
the cloud noisy simulator.  Neither is reachable offline, so backends here
bundle a topology with a calibrated :class:`NoiseModel`; the transpiler
routes to the topology and the noisy simulators apply the model.  The
``FakeManila`` rates follow typical published Manila calibration data
(CX ~0.9 %, 1q ~0.03 %, readout ~2.5 %), which reproduces the error
*regime* of Fig. 10/13 even though per-day calibrations drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import NoiseModelError
from repro.noise.model import NoiseModel


@dataclass(frozen=True)
class Backend:
    """A device descriptor: name, size, topology, noise."""

    name: str
    num_qubits: int
    coupling_map: tuple[tuple[int, int], ...]
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self) -> None:
        for a, b in self.coupling_map:
            if a == b or not (
                0 <= a < self.num_qubits and 0 <= b < self.num_qubits
            ):
                raise NoiseModelError(f"bad coupling edge {(a, b)}")

    @property
    def is_fully_connected(self) -> bool:
        """Whether every qubit pair is directly coupled."""
        edges = {tuple(sorted(e)) for e in self.coupling_map}
        wanted = {
            (a, b)
            for a in range(self.num_qubits)
            for b in range(a + 1, self.num_qubits)
        }
        return edges >= wanted


def linear_coupling(num_qubits: int) -> tuple[tuple[int, int], ...]:
    """The 0-1-2-...-(n-1) chain topology."""
    return tuple((q, q + 1) for q in range(num_qubits - 1))


def fake_manila() -> Backend:
    """A 5-qubit linear device with Manila-like calibration."""
    return Backend(
        name="fake_manila",
        num_qubits=5,
        coupling_map=linear_coupling(5),
        noise=NoiseModel(
            one_qubit_error=0.0003,
            two_qubit_error=0.009,
            readout_error=0.025,
        ),
    )

