"""Numerical circuit synthesis: templates, instantiation, LEAP, 2q decomposition."""

from repro.synthesis.ansatz import Ansatz, Slot, build_leap_ansatz
from repro.synthesis.instantiate import InstantiationResult, instantiate
from repro.synthesis.leap import LeapConfig, SynthesisSolution, synthesize
from repro.synthesis.two_qubit import decompose_two_qubit

__all__ = [
    "Ansatz",
    "Slot",
    "build_leap_ansatz",
    "instantiate",
    "InstantiationResult",
    "synthesize",
    "LeapConfig",
    "SynthesisSolution",
    "decompose_two_qubit",
]
