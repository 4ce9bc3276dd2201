"""Integration tests: observability threaded through the QUEST pipeline.

The tracing contract has two halves: the trace must *cover* the run
(every pipeline stage, worker-side events included), and it must not
*perturb* it (selections bit-identical with tracing on or off, on both
the inline and process-pool paths).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.algorithms import tfim
from repro.circuits import circuit_to_qasm
from repro.cli import main
from repro.core import QuestConfig, run_quest
from repro.observability import (
    JsonlSink,
    ListSink,
    Tracer,
    use_tracer,
)
from repro.resilience.faults import FaultInjector, FaultSpec

CONFIG = dict(
    seed=5,
    max_samples=3,
    max_block_qubits=2,
    threshold_per_block=0.3,
    max_layers_per_block=2,
    solutions_per_layer=2,
    instantiation_starts=2,
    max_optimizer_iterations=60,
    block_time_budget=10.0,
    sphere_variants_per_count=1,
)


def _circuit():
    return tfim(3, steps=1)


def _span_names(records):
    return [r["name"] for r in records if r["type"] == "span"]


def _event_names(records):
    return [r["name"] for r in records if r["type"] == "event"]


def test_run_quest_emits_stage_spans_and_events():
    sink = ListSink()
    result = run_quest(
        _circuit(), QuestConfig(**CONFIG), tracer=Tracer(sink)
    )
    spans = _span_names(sink.records)
    for name in (
        "quest.run",
        "quest.partition",
        "quest.synthesis",
        "quest.selection",
        "quest.stitch",
    ):
        assert spans.count(name) == 1, name
    assert "synthesis.block" in spans
    events = _event_names(sink.records)
    assert "selection.round" in events
    assert "leap.layer" in events
    # The per-run metrics snapshot landed on the result.
    counters = result.metrics["counters"]
    assert counters["leap.synthesis_runs"] >= 1
    assert counters["selection.rounds"] >= 1
    assert result.metrics["gauges"]["partition.blocks"] == len(result.blocks)
    assert result.metrics["histograms"]["synthesis.pool_size"]["count"] >= 1


def test_untraced_run_still_snapshots_metrics():
    result = run_quest(_circuit(), QuestConfig(**CONFIG))
    assert result.metrics["counters"]["selection.rounds"] >= 1


def test_each_run_keeps_its_own_counts_under_an_ambient_registry(counters):
    """An enclosing registry receives every count of every run, while
    each result's snapshot, and the counter attributes read from it,
    hold that run's counts alone."""
    config = QuestConfig(**CONFIG)
    first = run_quest(_circuit(), config)
    second = run_quest(_circuit(), config)
    assert second.metrics == first.metrics
    assert second.cache_misses == first.metrics["counters"]["cache.miss"] > 0
    assert counters() == {
        name: 2 * value for name, value in first.metrics["counters"].items()
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_selections_bit_identical_with_tracing(workers):
    config = QuestConfig(workers=workers, **CONFIG)
    plain = run_quest(_circuit(), config)
    traced = run_quest(_circuit(), config, tracer=Tracer(ListSink()))
    assert len(plain.selection.choices) == len(traced.selection.choices)
    for a, b in zip(plain.selection.choices, traced.selection.choices):
        assert np.array_equal(a, b)
    assert [circuit_to_qasm(c) for c in plain.circuits] == [
        circuit_to_qasm(c) for c in traced.circuits
    ]


def test_file_trace_holds_every_record_of_a_memory_trace(tmp_path):
    config = QuestConfig(**CONFIG)
    memory = ListSink()
    run_quest(_circuit(), config, tracer=Tracer(memory))
    trace_path = tmp_path / "run.trace"
    tracer = Tracer(JsonlSink(trace_path))
    run_quest(_circuit(), config, tracer=tracer)
    tracer.close()
    lines = trace_path.read_text().strip().splitlines()
    assert memory.records
    assert len(lines) == len(memory.records)
    assert _span_names(map(json.loads, lines)) == _span_names(memory.records)


def test_worker_records_are_marshalled_back():
    sink = ListSink()
    run_quest(
        _circuit(),
        QuestConfig(workers=2, **CONFIG),
        tracer=Tracer(sink),
    )
    worker_records = [
        r for r in sink.records if r.get("origin") == "worker"
    ]
    assert worker_records
    assert all(r["pid"] != os.getpid() for r in worker_records)
    assert "synthesis.block" in _span_names(worker_records)


def test_fault_injection_produces_retry_and_failure_events():
    sink = ListSink()
    injector = FaultInjector(specs=(FaultSpec("raise", None, 0),))
    result = run_quest(
        _circuit(),
        QuestConfig(retry_attempts=2, **CONFIG),
        fault_injector=injector,
        tracer=Tracer(sink),
    )
    events = _event_names(sink.records)
    assert "fault.injected" in events
    assert "synthesis.failure" in events
    assert "retry.attempt" in events
    assert not result.synthesis_fallbacks  # same-seed retry recovered
    counters = result.metrics["counters"]
    assert counters["retry.attempts"] >= 1
    assert counters["synthesis.failures.exception"] >= 1


def test_worker_fault_events_marshal_under_process_pool():
    """A fault fired inside a worker still lands in the parent trace."""
    sink = ListSink()
    injector = FaultInjector(specs=(FaultSpec("nan", 0, 0),), seed=3)
    run_quest(
        _circuit(),
        QuestConfig(workers=2, retry_attempts=2, **CONFIG),
        fault_injector=injector,
        tracer=Tracer(sink),
    )
    fault_events = [
        r
        for r in sink.records
        if r["type"] == "event" and r["name"] == "fault.injected"
    ]
    assert fault_events
    assert any(r.get("origin") == "worker" for r in fault_events)
    # The quarantine the fault provoked is visible too.
    assert "synthesis.failure" in _event_names(sink.records)


def test_trace_summary_stage_totals_match_timings(tmp_path):
    from repro.noise import NoiseModel
    from repro.observability import summarize_trace

    path = tmp_path / "run.trace"
    tracer = Tracer(JsonlSink(path))
    result = run_quest(_circuit(), QuestConfig(**CONFIG), tracer=tracer)
    with use_tracer(tracer):
        result.noisy_ensemble(NoiseModel.from_noise_level(0.01))
    tracer.close()
    totals = summarize_trace(path).stage_totals()
    expected = {
        "partition": result.timings.partition_seconds,
        "synthesis": result.timings.synthesis_seconds,
        "selection": result.timings.selection_seconds,
        "noisy_eval": result.timings.noisy_eval_seconds,
    }
    assert set(totals) == set(expected)
    for stage, timing in expected.items():
        # Within 5%, with an absolute floor for the near-zero stages
        # where relative error is dominated by clock granularity.
        assert totals[stage] == pytest.approx(timing, rel=0.05, abs=0.02), (
            stage
        )


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def _write_input(tmp_path):
    qasm_path = tmp_path / "in.qasm"
    qasm_path.write_text(circuit_to_qasm(_circuit()))
    return qasm_path


def _base_args(tmp_path, qasm_path):
    return [
        str(qasm_path),
        "--out-dir", str(tmp_path / "out"),
        "--threshold", "0.3",
        "--max-samples", "2",
        "--block-qubits", "2",
        "--time-budget", "10",
        "--seed", "1",
    ]


def test_cli_trace_and_metrics_flags(tmp_path, capsys):
    qasm_path = _write_input(tmp_path)
    trace_path = tmp_path / "run.trace"
    metrics_path = tmp_path / "metrics.json"
    code = main(
        _base_args(tmp_path, qasm_path)
        + [
            "--trace-file", str(trace_path),
            "--metrics-json", str(metrics_path),
        ]
    )
    assert code == 0
    records = [
        json.loads(line)
        for line in trace_path.read_text().strip().splitlines()
    ]
    assert {"quest.partition", "quest.synthesis", "quest.selection"} <= set(
        _span_names(records)
    )
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["selection.rounds"] >= 1
    out = capsys.readouterr().out
    assert str(trace_path) in out
    assert str(metrics_path) in out

    # The trace-summary subcommand renders the same file.
    assert main(["trace-summary", str(trace_path)]) == 0
    summary_out = capsys.readouterr().out
    assert "pipeline stages:" in summary_out
    assert "quest.synthesis" in summary_out


def test_cli_trace_summary_missing_file(tmp_path, capsys):
    code = main(["trace-summary", str(tmp_path / "nope.trace")])
    assert code == 2
    assert "error reading" in capsys.readouterr().err


def test_cli_log_level_silences_stdout_diagnostics(tmp_path, capsys):
    qasm_path = _write_input(tmp_path)
    code = main(
        _base_args(tmp_path, qasm_path) + ["--log-level", "warning"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "CNOTs" not in captured.out
    # The run itself still happened.
    assert sorted((tmp_path / "out").glob("approx_*.qasm"))


def test_cli_fault_records_go_to_stderr_at_warning_level(tmp_path, capsys):
    qasm_path = _write_input(tmp_path)
    code = main(
        _base_args(tmp_path, qasm_path)
        + ["--inject-faults", "raise@0:0", "--log-level", "warning"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "[exception]" in captured.err
    assert "fault: block 0" in captured.err
