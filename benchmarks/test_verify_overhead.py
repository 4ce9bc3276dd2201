"""Smoke benchmark: what certification costs when on, and that it never
changes a result.

Runs the same 5-qubit Trotterized TFIM circuit through QUEST with
certification disabled (the default) and enabled, and records the
timings to ``BENCH_verify.json`` at the repo root.  Asserts the
certifier's core claim: certification is an observer, never a
participant — enabling it produces bit-identical selections, and the
honest pipeline output certifies clean.

No timing is asserted.  Certification off is the default configuration,
so a gate on its overhead would time identical code on both sides and
measure only the host.  The enabled-path cost is recorded for reading:
it scales with the number of kept approximations and the exact-diff
dimension.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import print_table

from repro import QuestConfig, run_quest
from repro.algorithms import tfim

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_verify.json"

#: Mirrors BENCH_observability's scale: heavy enough that synthesis
#: dominates and the certification stage is measured against real work.
SCALING_CONFIG = dict(
    seed=2022,
    max_samples=4,
    max_block_qubits=2,
    threshold_per_block=0.25,
    max_layers_per_block=3,
    solutions_per_layer=3,
    instantiation_starts=2,
    max_optimizer_iterations=120,
    annealing_maxiter=80,
    block_time_budget=20.0,
    sphere_variants_per_count=2,
)


def _timed_run(circuit, **overrides):
    config = QuestConfig(**{**SCALING_CONFIG, **overrides})
    start = time.perf_counter()
    result = run_quest(circuit, config)
    return result, time.perf_counter() - start


def _signature(result):
    return [
        result.cnot_counts,
        result.selection.bounds,
        [tuple(int(i) for i in c) for c in result.selection.choices],
    ]


def test_verify_overhead_smoke():
    circuit = tfim(5, steps=2)

    # Warm-up absorbs one-time costs (imports, numpy dispatch caches) so
    # they don't land on whichever mode happens to run first.
    _timed_run(circuit)

    baseline, baseline_wall = _timed_run(circuit)
    certified, certified_wall = _timed_run(circuit, certify=True)

    certify_stage = certified.timings.certify_seconds
    rows = [
        ["certify off", f"{baseline_wall:.2f}", "-", "-"],
        ["certify on", f"{certified_wall:.2f}",
         f"{(certified_wall / baseline_wall - 1.0) * 100:+.2f}%",
         f"{certify_stage:.3f}s stage"],
    ]
    print_table(
        "Certification overhead (TFIM-5, 2 Trotter steps)",
        ["mode", "wall s", "vs baseline", "certify"],
        rows,
    )

    # Certification is an observer, never a participant.
    assert _signature(certified) == _signature(baseline)

    # A run that doesn't ask for certification doesn't run it.
    assert baseline.timings.certify_seconds == 0.0
    assert baseline.certified is None

    # The certified run actually certified, and cleanly.
    assert certified.certified is True
    assert len(certified.certifications) == len(certified.circuits)
    assert certify_stage > 0.0

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "circuit": "tfim(5, steps=2)",
                "blocks": len(baseline.blocks),
                "certify_off_seconds": baseline_wall,
                "certify_on_seconds": certified_wall,
                "certify_stage_seconds": certify_stage,
                "certifications": [
                    report.to_dict() for report in certified.certifications
                ],
                "original_cnot_count": baseline.original_cnot_count,
                "selected_cnot_counts": baseline.cnot_counts,
            },
            indent=1,
        )
    )
