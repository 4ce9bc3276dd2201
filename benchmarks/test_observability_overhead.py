"""Smoke benchmark: what observability costs when on, and that it never
changes a result.

Runs the same 5-qubit Trotterized TFIM circuit through QUEST three
ways — tracing disabled (the default no-op tracer), tracing to an
in-memory sink, and tracing to a JSON-lines file — and records the
timings to ``BENCH_observability.json`` at the repo root.  Asserts that
tracing never changes results (all modes produce bit-identical
selections) and that the traced runs produce a trace.

No timing is asserted.  Tracing disabled is the default configuration,
so a gate on its overhead would time identical code on both sides and
measure only the host.  The enabled-path cost is recorded for reading:
it depends on how chatty the run is (events scale with layers and
retries).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import print_table

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

    baseline, baseline_wall = _timed_run(circuit)
    list_sink = ListSink()
    listed, listed_wall = _timed_run(circuit, tracer=Tracer(list_sink))
    trace_path = tmp_path / "bench.trace"
    file_tracer = Tracer(JsonlSink(trace_path))
    filed, filed_wall = _timed_run(circuit, tracer=file_tracer)
    file_tracer.close()
    trace_records = len(trace_path.read_text().strip().splitlines())

    rows = [
        ["tracing disabled", f"{baseline_wall:.2f}", "-", "-"],
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
    for other in (listed, filed):
        assert _signature(other) == signature

    # The traced runs actually produced a trace.
    assert len(list_sink.records) > 0
    assert trace_records == len(list_sink.records)

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "circuit": "tfim(5, steps=2)",
                "blocks": len(baseline.blocks),
                "baseline_seconds": baseline_wall,
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
