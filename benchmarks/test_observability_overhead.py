"""Smoke benchmark: what observability costs when off — and when on.

Runs the same 5-qubit Trotterized TFIM circuit through QUEST three
ways — tracing disabled (the default no-op tracer), tracing to an
in-memory sink, and tracing to a JSON-lines file — and records the
timings to ``BENCH_observability.json`` at the repo root.  Asserts the
layer's two core claims:

* the disabled path is effectively free: the median wall-clock overhead
  over interleaved pairs of baseline and disabled runs stays under 2%,
  and
* tracing never changes results — all modes produce bit-identical
  selections.

The enabled-path cost is recorded but not asserted: it depends on how
chatty the run is (events scale with layers and retries), and the
contract is only that *disabled* observability costs nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from conftest import interleaved_overhead, print_table

from repro import QuestConfig, run_quest
from repro.algorithms import tfim
from repro.observability import JsonlSink, ListSink, Tracer

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_observability.json"
)

#: Mirrors BENCH_resilience's scale: heavy enough that synthesis
#: dominates and the per-event bookkeeping is measured against real work.
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

#: Disabled-path overhead budget (fractional). The no-op tracer is a
#: single ``is_enabled`` check per call site, so 2% is generous.
MAX_DISABLED_OVERHEAD = 0.02


def _timed_run(circuit, tracer=None):
    config = QuestConfig(**SCALING_CONFIG)
    start = time.perf_counter()
    result = run_quest(circuit, config, tracer=tracer)
    return result, time.perf_counter() - start


def _signature(result):
    return [
        result.cnot_counts,
        result.selection.bounds,
        [tuple(int(i) for i in c) for c in result.selection.choices],
    ]


def test_observability_overhead_smoke(tmp_path):
    circuit = tfim(5, steps=2)

    # Warm-up absorbs one-time costs (imports, numpy dispatch caches) so
    # they don't land on whichever mode happens to run first.
    _timed_run(circuit)

    # Both sides run the default no-op tracer: the gate asks whether the
    # disabled path costs anything against a baseline taken alongside it.
    disabled_overhead, baseline_runs, disabled_runs = interleaved_overhead(
        lambda: _timed_run(circuit), lambda: _timed_run(circuit)
    )
    baseline_walls = [wall for _, wall in baseline_runs]
    disabled_walls = [wall for _, wall in disabled_runs]
    baseline_wall = statistics.median(baseline_walls)
    disabled_wall = statistics.median(disabled_walls)
    baseline, disabled = baseline_runs[-1][0], disabled_runs[-1][0]
    list_sink = ListSink()
    listed, listed_wall = _timed_run(circuit, tracer=Tracer(list_sink))
    trace_path = tmp_path / "bench.trace"
    file_tracer = Tracer(JsonlSink(trace_path))
    filed, filed_wall = _timed_run(circuit, tracer=file_tracer)
    file_tracer.close()
    trace_records = len(trace_path.read_text().strip().splitlines())

    rows = [
        [f"baseline (median of {len(baseline_walls)})",
         f"{baseline_wall:.2f}", "-", "-"],
        [f"tracing disabled (median of {len(disabled_walls)})",
         f"{disabled_wall:.2f}", f"{disabled_overhead * 100:+.2f}% paired", "-"],
        ["tracing to memory", f"{listed_wall:.2f}",
         f"{(listed_wall / baseline_wall - 1.0) * 100:+.2f}%",
         len(list_sink.records)],
        ["tracing to file", f"{filed_wall:.2f}",
         f"{(filed_wall / baseline_wall - 1.0) * 100:+.2f}%",
         trace_records],
    ]
    print_table(
        "Observability overhead (TFIM-5, 2 Trotter steps)",
        ["mode", "wall s", "vs baseline", "records"],
        rows,
    )

    # Tracing is an observer, never a participant.
    signature = _signature(baseline)
    for other in (disabled, listed, filed):
        assert _signature(other) == signature

    # Disabled observability is effectively free.
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled-tracer overhead {disabled_overhead:.1%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%}"
    )

    # The traced runs actually produced a trace.
    assert len(list_sink.records) > 0
    assert trace_records == len(list_sink.records)

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "circuit": "tfim(5, steps=2)",
                "blocks": len(baseline.blocks),
                "baseline_seconds": baseline_wall,
                "baseline_runs_seconds": baseline_walls,
                "disabled_seconds": disabled_wall,
                "disabled_runs_seconds": disabled_walls,
                "disabled_overhead_fraction": disabled_overhead,
                "list_sink_seconds": listed_wall,
                "jsonl_sink_seconds": filed_wall,
                "trace_records": trace_records,
                "metrics_counters": filed.metrics["counters"],
                "original_cnot_count": baseline.original_cnot_count,
                "selected_cnot_counts": baseline.cnot_counts,
            },
            indent=1,
        )
    )
