"""Smoke benchmark: what certification costs when off — and when on.

Runs the same 5-qubit Trotterized TFIM circuit through QUEST with
certification disabled (the default) and enabled, and records the
timings to ``BENCH_verify.json`` at the repo root.  Asserts the
certifier's two core claims:

* the disabled path is effectively free: the median wall-clock overhead
  over interleaved pairs of baseline and certify-off runs stays under
  5%, and
* certification is an observer, never a participant — enabling it
  produces bit-identical selections, and the honest pipeline output
  certifies clean.

The enabled-path cost is recorded but not asserted: it scales with the
number of kept approximations and the exact-diff dimension, and the
contract is only that runs which *don't* ask for certification don't
pay for it.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from conftest import interleaved_overhead, print_table

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

#: Disabled-path overhead budget (fractional).  With ``certify=False``
#: the pipeline takes a single branch past the certification stage, so
#: 5% is generous headroom for scheduler noise.
MAX_DISABLED_OVERHEAD = 0.05


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

    # ``certify=False`` is the default: the gate asks whether the off
    # path costs anything against a baseline taken alongside it.
    disabled_overhead, baseline_runs, disabled_runs = interleaved_overhead(
        lambda: _timed_run(circuit), lambda: _timed_run(circuit, certify=False)
    )
    baseline_walls = [wall for _, wall in baseline_runs]
    disabled_walls = [wall for _, wall in disabled_runs]
    baseline_wall = statistics.median(baseline_walls)
    disabled_wall = statistics.median(disabled_walls)
    baseline, disabled = baseline_runs[-1][0], disabled_runs[-1][0]
    certified, certified_wall = _timed_run(
        circuit, certify=True, certify_candidates=True
    )

    certify_stage = certified.timings.certify_seconds
    rows = [
        [f"baseline (median of {len(baseline_walls)})",
         f"{baseline_wall:.2f}", "-", "-"],
        [f"certify off (median of {len(disabled_walls)})",
         f"{disabled_wall:.2f}", f"{disabled_overhead * 100:+.2f}% paired", "-"],
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
    signature = _signature(baseline)
    assert _signature(disabled) == signature
    assert _signature(certified) == signature

    # A run that doesn't ask for certification doesn't pay for it.
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"certify-off overhead {disabled_overhead:.1%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%}"
    )
    assert disabled.timings.certify_seconds == 0.0
    assert disabled.certified is None

    # The certified run actually certified, and cleanly.
    assert certified.certified is True
    assert len(certified.certifications) == len(certified.circuits)
    assert certify_stage > 0.0

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "circuit": "tfim(5, steps=2)",
                "blocks": len(baseline.blocks),
                "baseline_seconds": baseline_wall,
                "baseline_runs_seconds": baseline_walls,
                "certify_off_seconds": disabled_wall,
                "certify_off_runs_seconds": disabled_walls,
                "certify_off_overhead_fraction": disabled_overhead,
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
