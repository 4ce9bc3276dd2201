"""Integration tests: observability threaded through the QUEST pipeline.

The tracing contract has three parts: the trace must *cover* the run
(every pipeline stage, worker-side events included), it must *agree*
with the run's record (every event is the count of the same name, and
every span the histogram of the same name), and it must not *perturb*
the run (selections bit-identical with tracing on or off, on both the
inline and process-pool paths).
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.algorithms import heisenberg, tfim
from repro.batch import run_quest_batch
from repro.circuits import circuit_to_qasm
from repro.cli import main
from repro.core import QuestConfig, run_quest
from repro.observability import (
    STAGE_SPANS,
    JsonlSink,
    ListSink,
    Record,
    summarize_records,
    summarize_trace,
    use_record,
)
from repro.parallel.pool_manager import PersistentWorkerPool
from repro.resilience.faults import FaultInjector, FaultSpec, parse_fault_spec
from repro.resilience.retry import FAILURE_EXCEPTION

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


def _traced(run, *args, **options):
    """``run(*args, **options)`` under a tracing record; returns the
    result and the trace records."""
    sink = ListSink()
    with use_record(Record(sink)):
        result = run(*args, **options)
    return result, sink.records


def test_run_quest_emits_stage_spans_and_events():
    result, records = _traced(run_quest, _circuit(), QuestConfig(**CONFIG))
    spans = _span_names(records)
    for name in (
        "quest.run",
        "quest.partition",
        "quest.synthesis",
        "quest.selection",
        "quest.stitch",
    ):
        assert spans.count(name) == 1, name
    assert "synthesis.block" in spans
    events = _event_names(records)
    assert "selection.rounds" in events
    assert "leap.layers" in events
    # The per-run metrics snapshot landed on the result.
    counters = result.metrics["counters"]
    assert counters["leap.synthesis_runs"] >= 1
    assert counters["selection.rounds"] >= 1
    assert result.metrics["gauges"]["partition.blocks"] == len(result.blocks)
    assert result.metrics["histograms"]["synthesis.pool_size"]["count"] >= 1


def test_untraced_run_still_snapshots_metrics():
    result = run_quest(_circuit(), QuestConfig(**CONFIG))
    assert result.metrics["counters"]["selection.rounds"] >= 1


def _histogram_counts(metrics) -> dict:
    return {name: h["count"] for name, h in metrics["histograms"].items()}


def test_untraced_runs_time_every_span_into_their_record():
    """With no sink, a solo run's and a batch's metrics still hold each
    span's time: the histogram of the span's name."""
    config = QuestConfig(**CONFIG)
    result = run_quest(_circuit(), config)
    counts = _histogram_counts(result.metrics)
    for name in (
        "quest.run",
        "quest.partition",
        "quest.synthesis",
        "quest.selection",
        "quest.stitch",
    ):
        assert counts[name] == 1, name
    assert counts["synthesis.block"] == result.cache_misses > 0
    histograms = result.metrics["histograms"]
    assert result.timings.synthesis_seconds == histograms["quest.synthesis"]["sum"]
    assert result.timings.block_synthesis_seconds
    batch = run_quest_batch([_circuit(), _circuit()], config)
    counts = _histogram_counts(batch.metrics)
    assert counts["quest.run"] == 2
    assert counts["quest.batch"] == 1
    assert batch.wall_seconds == batch.metrics["histograms"]["quest.batch"]["sum"]


def test_each_run_keeps_its_own_counts_under_an_ambient_registry(counters):
    """An enclosing registry receives every count of every run, while
    each result's snapshot, and the counter attributes read from it,
    hold that run's counts alone."""
    config = QuestConfig(**CONFIG)
    first = run_quest(_circuit(), config)
    second = run_quest(_circuit(), config)
    # Span histograms hold times, which differ run to run: only their
    # counts repeat.
    assert second.metrics["counters"] == first.metrics["counters"]
    assert second.metrics["gauges"] == first.metrics["gauges"]
    assert _histogram_counts(second.metrics) == _histogram_counts(first.metrics)
    assert second.cache_misses == first.metrics["counters"]["cache.miss"] > 0
    assert counters() == {
        name: 2 * value for name, value in first.metrics["counters"].items()
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_selections_bit_identical_with_tracing(workers):
    config = QuestConfig(workers=workers, **CONFIG)
    plain = run_quest(_circuit(), config)
    traced, _ = _traced(run_quest, _circuit(), config)
    assert len(plain.selection.choices) == len(traced.selection.choices)
    for a, b in zip(plain.selection.choices, traced.selection.choices):
        assert np.array_equal(a, b)
    assert [circuit_to_qasm(c) for c in plain.circuits] == [
        circuit_to_qasm(c) for c in traced.circuits
    ]


def test_file_trace_holds_every_record_of_a_memory_trace(tmp_path):
    config = QuestConfig(**CONFIG)
    _, memory = _traced(run_quest, _circuit(), config)
    trace_path = tmp_path / "run.trace"
    sink = JsonlSink(trace_path)
    with use_record(Record(sink)):
        run_quest(_circuit(), config)
    sink.close()
    lines = trace_path.read_text().strip().splitlines()
    assert memory
    assert len(lines) == len(memory)
    assert _span_names(map(json.loads, lines)) == _span_names(memory)


def test_worker_records_are_marshalled_back():
    _, records = _traced(run_quest, _circuit(), QuestConfig(workers=2, **CONFIG))
    worker_records = [r for r in records if r.get("origin") == "worker"]
    assert worker_records
    assert all(r["pid"] != os.getpid() for r in worker_records)
    assert "synthesis.block" in _span_names(worker_records)


def test_fault_injection_produces_retry_and_failure_events():
    injector = FaultInjector(specs=(FaultSpec("raise", None, 0),))
    result, records = _traced(
        run_quest,
        _circuit(),
        QuestConfig(retry_attempts=2, **CONFIG),
        fault_injector=injector,
    )
    events = _event_names(records)
    assert "faults.injected" in events
    assert "synthesis.failures" in events
    assert "retry.attempts" in events
    assert not result.synthesis_fallbacks  # same-seed retry recovered
    counters = result.metrics["counters"]
    assert counters["retry.attempts"] >= 1
    assert counters["synthesis.failures.exception"] >= 1


def test_worker_fault_events_marshal_under_process_pool():
    """A fault fired inside a worker still lands in the parent trace."""
    injector = FaultInjector(specs=(FaultSpec("nan", 0, 0),), seed=3)
    _, records = _traced(
        run_quest,
        _circuit(),
        QuestConfig(workers=2, retry_attempts=2, **CONFIG),
        fault_injector=injector,
    )
    fault_events = [
        r
        for r in records
        if r["type"] == "event" and r["name"] == "faults.injected"
    ]
    assert fault_events
    assert any(r.get("origin") == "worker" for r in fault_events)
    # The quarantine the fault provoked is visible too.
    assert "synthesis.failures" in _event_names(records)


def _assert_events_equal_counters(records, metrics):
    totals = Counter(_event_names(records))
    assert totals
    counters = metrics["counters"]
    assert {name: counters.get(name, 0) for name in totals} == dict(totals)


def test_every_event_total_equals_its_counter():
    """A traced, fault-injected run on worker processes, solo and in a
    batch: each event name's total in the trace is the counter of the
    same name."""
    config = QuestConfig(workers=2, retry_attempts=2, **CONFIG)
    faults = "raise@*:0"
    result, records = _traced(
        run_quest, _circuit(), config, fault_injector=parse_fault_spec(faults)
    )
    _assert_events_equal_counters(records, result.metrics)
    assert {"synthesis.failures", "retry.attempts", "leap.layers"} <= set(
        _event_names(records)
    )
    batch, records = _traced(
        run_quest_batch,
        [_circuit(), _circuit(), tfim(4, steps=1)],
        config,
        fault_injector=parse_fault_spec(faults),
    )
    _assert_events_equal_counters(records, batch.metrics)
    assert "dedup.hits" in _event_names(records)


def test_untraced_workers_ship_counts_but_no_trace_records(monkeypatch):
    """Workers of an untraced run send back no trace records, yet the
    run's counters hold the work they did."""
    futures = []
    submit = PersistentWorkerPool.submit

    def spy(pool, fn, /, *args):
        future = submit(pool, fn, *args)
        futures.append(future)
        return future

    monkeypatch.setattr(PersistentWorkerPool, "submit", spy)
    result = run_quest(_circuit(), QuestConfig(workers=2, **CONFIG))
    assert futures
    for future in futures:
        _, records, snapshot = future.result()
        assert records == []
        assert snapshot["counters"]["leap.layers"] >= 1
    counters = result.metrics["counters"]
    for name in ("leap.layers", "instantiate.starts", "costgrad.calls"):
        assert counters[name] == sum(
            future.result()[2]["counters"][name] for future in futures
        )


def _assert_spans_equal_histograms(records, metrics):
    spans = summarize_records(records).spans
    assert spans
    histograms = metrics["histograms"]
    for name, stats in spans.items():
        assert histograms[name]["count"] == stats.count, name
        assert histograms[name]["sum"] == pytest.approx(
            stats.total_seconds, rel=1e-12
        ), name


def test_trace_summary_stage_totals_match_timings(tmp_path):
    """QuestTimings and trace-summary read one stage table: every stage,
    certify and noisy eval included, is its span's total, exactly; and
    every span name's count and total in the trace are the record's
    histogram of that name."""
    from repro.noise import NoiseModel

    path = tmp_path / "run.trace"
    sink = JsonlSink(path)
    with use_record(Record(sink)) as record:
        result = run_quest(_circuit(), QuestConfig(certify=True, **CONFIG))
        result.noisy_ensemble(NoiseModel.from_noise_level(0.01))
    sink.close()
    totals = summarize_trace(path).stage_totals()
    assert set(totals) == set(STAGE_SPANS)
    for stage, total in totals.items():
        assert getattr(result.timings, f"{stage}_seconds") == total, stage
    records = [json.loads(line) for line in path.read_text().splitlines()]
    _assert_spans_equal_histograms(records, record.snapshot())


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_attempt_ships_its_counts_and_spans(workers):
    """An attempt that raises keeps its record, inline or in a worker:
    every fault fired is counted, and every failed attempt is a
    ``synthesis.block`` span with status error."""
    config = QuestConfig(workers=workers, retry_attempts=2, **CONFIG)
    result, records = _traced(
        run_quest, _circuit(), config, fault_injector=parse_fault_spec("raise@*:0")
    )
    failed = [r for r in result.failure_log if r.kind == FAILURE_EXCEPTION]
    assert len(failed) == result.cache_misses > 0
    assert result.metrics["counters"]["faults.injected"] == len(failed)
    errors = [
        r
        for r in records
        if r["type"] == "span"
        and r["name"] == "synthesis.block"
        and r["status"] == "error"
    ]
    assert len(errors) == len(failed)
    _assert_spans_equal_histograms(records, result.metrics)


def test_worker_spans_nest_under_the_run_that_submitted_them():
    """A batch's worker pool forks during its first circuit, yet each
    circuit's ``quest.run`` holds exactly the synthesis attempts of its
    own jobs."""
    config = QuestConfig(workers=2, **CONFIG)
    batch, records = _traced(
        run_quest_batch, [_circuit(), heisenberg(3, steps=1)], config, window=1
    )
    spans = [r for r in records if r["type"] == "span"]
    parents = {r["span_id"]: r.get("parent_id") for r in spans}
    names = {r["span_id"]: r["name"] for r in spans}

    def run_of(span_id):
        while span_id is not None and names.get(span_id) != "quest.run":
            span_id = parents.get(span_id)
        return span_id

    attempts = Counter(
        run_of(r["span_id"]) for r in spans if r["name"] == "synthesis.block"
    )
    runs = [r["span_id"] for r in spans if r["name"] == "quest.run"]
    expected = [result.cache_misses - result.dedup_joins for result in batch.results]
    assert min(expected) > 0
    assert [attempts[run] for run in runs] == expected


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


@pytest.mark.parametrize(
    "junk",
    [
        b'{"type":"span","name":"quest.bad","dur":"abc","status":"ok"}\n',
        b'{"type":"span","name":"quest.bad","dur":null,"status":"ok"}\n',
        b'{"type":"event","name":"cache.h\xffit"}\n',
    ],
    ids=["text-dur", "null-dur", "not-utf8"],
)
def test_cli_trace_summary_counts_malformed_records(tmp_path, capsys, junk):
    path = tmp_path / "run.trace"
    path.write_bytes(
        b'{"type":"span","name":"quest.partition","dur":0.25,"status":"ok"}\n'
        + junk
        + b'{"type":"event","name":"cache.hit"}\n'
    )
    assert main(["trace-summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "quest.partition" in out
    assert "cache.hit" in out
    assert "quest.bad" not in out
    assert "2 record(s), 1 malformed line(s) skipped" in out


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
