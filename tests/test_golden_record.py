"""Golden behaviour record of the paper workload.

``tests/golden/bench_suite.json`` pins what QUEST produces for every
Table-1 circuit and for ``tfim(8, steps=2)``, compiled at
``benchmarks/conftest.py::BENCH_CONFIG`` with certification on.  Per
circuit it records:

* the selected choice vectors and the ensemble size;
* each approximation's CNOT count;
* each approximation's per-block ε and its Σε;
* the ``certify=True`` verdict;
* the TVD from the ideal output of the QUEST ensemble and of the
  baseline, both evaluated under 1 % noise with ``run_ptm_ensemble``.

Integers, verdicts and choice vectors must match exactly; floats match
to a relative 1e-9.  A change that moves results on purpose regenerates
the record in the same change and shows the diff.  Regenerate with::

    PYTHONPATH=src python tests/test_golden_record.py

The cheapest entries run in tier-1; the rest are marked ``slow``.
"""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro import run_quest
from repro.algorithms import tfim
from repro.metrics import average_distributions, tvd
from repro.noise import NoiseModel, run_ptm_ensemble
from repro.sim import ideal_distribution

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).resolve().parent / "golden" / "bench_suite.json"
#: Two-qubit Pauli error rate of the noisy evaluation (paper Fig. 11's 1 %).
NOISE_LEVEL = 0.01
REL_TOL = 1e-9
#: Entries cheap enough for tier-1 (each compiles in well under a second).
TIER1 = ("adder_4", "hlf_4", "qaoa_4", "vqe_4")


def _load_bench_conftest():
    """``benchmarks/conftest.py``, loaded by path: the figure benches'
    circuits and config are the workload this record pins."""
    spec = importlib.util.spec_from_file_location(
        "_bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BENCH = _load_bench_conftest()
CONFIG = replace(_BENCH.BENCH_CONFIG, certify=True)
#: The Table-1 suite at bench scale, plus the wide Trotter circuit.
CIRCUITS = {**_BENCH.bench_suite(), "tfim_8": tfim(8, steps=2)}


def golden_entry(circuit) -> dict:
    """Compile ``circuit`` and record what the golden record pins."""
    result = run_quest(circuit, CONFIG)
    noise = NoiseModel.from_noise_level(NOISE_LEVEL)
    truth = ideal_distribution(result.baseline)
    ensemble = average_distributions(list(run_ptm_ensemble(result.circuits, noise)))
    baseline = run_ptm_ensemble([result.baseline], noise)[0]
    choices = [[int(i) for i in choice] for choice in result.selection.choices]
    return {
        "original_cnots": result.original_cnot_count,
        "ensemble_size": len(result.circuits),
        "choices": choices,
        "cnot_counts": [int(n) for n in result.cnot_counts],
        "block_eps": [
            [float(pool.candidates[i].distance) for pool, i in zip(result.pools, choice)]
            for choice in choices
        ],
        "sum_eps": [float(bound) for bound in result.selection.bounds],
        "certified": result.certified,
        "tvd_quest": float(tvd(truth, ensemble)),
        "tvd_baseline": float(tvd(truth, baseline)),
    }


def _assert_matches(expected, actual, path: str) -> None:
    """Exact on everything but floats, which match to ``REL_TOL``."""
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{path}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=REL_TOL), (
            f"{path}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{path}: {actual!r} != {expected!r}"
        )
        for index, (e, a) in enumerate(zip(expected, actual)):
            _assert_matches(e, a, f"{path}[{index}]")
    elif isinstance(expected, dict):
        assert set(actual) == set(expected), f"{path}: keys {sorted(actual)}"
        for key in expected:
            _assert_matches(expected[key], actual[key], f"{path}.{key}")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} != {expected!r}"
        )


@pytest.fixture(scope="module")
def record() -> dict:
    return json.loads(RECORD.read_text())


def test_record_covers_the_workload(record):
    assert record["noise_level"] == NOISE_LEVEL
    assert list(record["circuits"]) == list(CIRCUITS)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=() if name in TIER1 else pytest.mark.slow)
        for name in CIRCUITS
    ],
)
def test_compilation_matches_the_golden_record(record, name):
    expected = record["circuits"][name]
    assert expected["certified"] is True
    _assert_matches(expected, golden_entry(CIRCUITS[name]), name)


def main() -> None:
    circuits = {name: golden_entry(circuit) for name, circuit in CIRCUITS.items()}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(
        json.dumps({"noise_level": NOISE_LEVEL, "circuits": circuits}, indent=1) + "\n"
    )
    print(f"wrote {RECORD.relative_to(ROOT)} ({len(circuits)} circuits)")


if __name__ == "__main__":
    main()
