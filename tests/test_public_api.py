"""Smoke tests for the public API surface."""

from __future__ import annotations

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("name", repro.__all__)
def test_top_level_exports_resolve(name):
    assert getattr(repro, name) is not None


@pytest.mark.parametrize(
    "module",
    [
        "repro.circuits",
        "repro.linalg",
        "repro.sim",
        "repro.noise",
        "repro.transpile",
        "repro.partition",
        "repro.synthesis",
        "repro.core",
        "repro.algorithms",
        "repro.metrics",
        "repro.parallel",
        "repro.resilience",
        "repro.observability",
        "repro.store",
        "repro.batch",
        "repro.service",
        "repro.verify",
    ],
)
def test_subpackage_all_exports_resolve(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__")
    for name in mod.__all__:
        assert getattr(mod, name) is not None, f"{module}.{name}"


def test_exception_hierarchy():
    from repro import exceptions

    subclasses = [
        exceptions.CircuitError,
        exceptions.GateError,
        exceptions.QasmError,
        exceptions.SimulationError,
        exceptions.NoiseModelError,
        exceptions.TranspilerError,
        exceptions.PartitionError,
        exceptions.SynthesisError,
        exceptions.SelectionError,
        exceptions.ValidationError,
        exceptions.BlockTimeoutError,
        exceptions.StoreError,
    ]
    for exc in subclasses:
        assert issubclass(exc, exceptions.ReproError)
        assert issubclass(exc, Exception)
