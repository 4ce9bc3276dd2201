"""Unit tests for the observability substrate (run record, logs, summary)."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.observability import (
    NULL_RECORD,
    JsonlSink,
    ListSink,
    Record,
    configure_logging,
    get_logger,
    get_record,
    render_summary,
    summarize_records,
    summarize_trace,
    use_record,
)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_record_shape():
    sink = ListSink()
    record = Record(sink)
    with record.span("stage.one", block=3):
        pass
    (span,) = sink.records
    assert span["type"] == "span"
    assert span["name"] == "stage.one"
    assert span["status"] == "ok"
    assert span["dur"] >= 0.0
    assert span["attrs"] == {"block": 3}
    assert "parent_id" not in span
    assert isinstance(span["span_id"], str)


def test_span_nesting_links_parent_ids():
    sink = ListSink()
    record = Record(sink)
    with record.span("outer") as outer:
        with record.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        record.event("marker")
    inner_rec, marker, outer_rec = sink.records
    assert inner_rec["name"] == "inner"
    assert inner_rec["parent_id"] == outer_rec["span_id"]
    # The event fired after "inner" closed, so it parents to "outer".
    assert marker["type"] == "event"
    assert marker["span_id"] == outer_rec["span_id"]
    assert outer_rec["name"] == "outer"
    assert "parent_id" not in outer_rec


def test_span_ids_stay_distinct_across_records_sharing_a_sink():
    # Every run gets a fresh record on the caller's sink: ids must not
    # restart per record, or parent links would be ambiguous.
    sink = ListSink()
    for _ in range(3):
        with Record(sink).span("quest.run"):
            pass
    ids = [span["span_id"] for span in sink.records]
    assert len(set(ids)) == 3


def test_span_closes_with_error_status_and_propagates():
    sink = ListSink()
    record = Record(sink)
    with pytest.raises(ValueError, match="boom"):
        with record.span("exploding"):
            raise ValueError("boom")
    (span,) = sink.records
    assert span["status"] == "error"
    assert span["error"] == "ValueError: boom"
    # The failed span must not leak as the current parent.
    record.event("after")
    assert "span_id" not in sink.records[-1]


def test_event_records_carry_attrs():
    sink = ListSink()
    record = Record(sink)
    record.event("cache.hit", block=2, source="disk")
    (event,) = sink.records
    assert event["type"] == "event"
    assert event["attrs"] == {"block": 2, "source": "disk"}


def test_an_event_is_the_count_of_its_name_traced_or_not():
    sink = ListSink()
    traced, untraced = Record(sink), Record()
    for record in (traced, untraced):
        with record.span("stage"):
            record.event("cache.hit", block=0)
            record.event("cache.hit", block=1)
        assert record.snapshot()["counters"] == {"cache.hit": 2}
    assert traced.is_enabled and not untraced.is_enabled
    assert [r["name"] for r in sink.records] == ["cache.hit", "cache.hit", "stage"]


def test_a_span_is_the_histogram_of_its_name_traced_or_not():
    sink = ListSink()
    for record in (Record(sink), Record()):
        with record.span("stage") as ok:
            pass
        with pytest.raises(ValueError):
            with record.span("stage") as failed:
                raise ValueError("boom")
        histogram = record.snapshot()["histograms"]["stage"]
        assert histogram["count"] == 2
        assert histogram["sum"] == ok.duration + failed.duration
        if record.sink is not None:
            # A traced span's ``dur`` is the float its histogram got.
            assert [(r["status"], r["dur"]) for r in sink.records] == [
                ("ok", ok.duration),
                ("error", failed.duration),
            ]
    # The null record's spans still measure, and it keeps nothing.
    with NULL_RECORD.span("stage") as span:
        pass
    assert span.duration >= 0.0
    assert NULL_RECORD.snapshot()["histograms"] == {}


def test_replay_preserves_origin_and_ids():
    worker_sink = ListSink()
    worker = Record(worker_sink, origin="worker")
    with worker.span("synthesis.block", block=0):
        worker.event("leap.layers", layer=1)
    parent_sink = ListSink()
    parent = Record(parent_sink)
    parent.replay(worker_sink.records)
    assert [r["origin"] for r in parent_sink.records] == ["worker"] * 2
    assert (
        parent_sink.records[0]["span_id"]
        == parent_sink.records[1]["span_id"]
    )
    # Replay re-emits records; the counts travel in the snapshot.
    assert parent.snapshot()["counters"] == {}


def test_null_tracer_is_inert():
    # The null record traces nothing.
    assert NULL_RECORD.is_enabled is False
    assert NULL_RECORD.sink is None
    with NULL_RECORD.span("anything", attr=1):
        NULL_RECORD.event("nothing")
    NULL_RECORD.replay([{"type": "event"}])


def test_ambient_tracer_contextvar():
    assert get_record() is NULL_RECORD
    record = Record(ListSink())
    with use_record(record) as installed:
        assert installed is record
        assert get_record() is record
        inner = Record()
        with use_record(inner):
            assert get_record() is inner
        assert get_record() is record
    assert get_record() is NULL_RECORD


def test_jsonl_sink_emits_parseable_lines_with_numpy_attrs(tmp_path):
    path = tmp_path / "run.trace"
    sink = JsonlSink(path)
    record = Record(sink)
    with record.span("stage", count=np.int64(3), cost=np.float64(0.5)):
        record.event("point", value=np.float32(1.5))
    sink.close()
    lines = path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["type"] for r in records] == ["event", "span"]
    assert records[1]["attrs"] == {"count": 3, "cost": 0.5}
    # Emitting after close is a silent no-op, not a crash.
    record.event("late")


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------
def test_metrics_counters_gauges_histograms():
    registry = Record()
    registry.inc("hits")
    registry.inc("hits", 4)
    registry.gauge("level", 2)
    registry.gauge("level", 7)
    registry.observe("size", 3.0)
    registry.observe("size", 9.0)
    snap = registry.snapshot()
    assert snap["counters"] == {"hits": 5}
    assert snap["gauges"] == {"level": 7}
    assert snap["histograms"]["size"] == {
        "count": 2,
        "sum": 12.0,
        "min": 3.0,
        "max": 9.0,
        "mean": 6.0,
    }


def test_metrics_merge_combines_snapshots():
    parent = Record()
    parent.inc("hits", 2)
    parent.observe("size", 1.0)
    worker = Record()
    worker.inc("hits", 3)
    worker.inc("layers")
    worker.gauge("level", 5)
    worker.observe("size", 7.0)
    parent.merge(worker.snapshot())
    snap = parent.snapshot()
    assert snap["counters"] == {"hits": 5, "layers": 1}
    assert snap["gauges"] == {"level": 5}
    assert snap["histograms"]["size"]["count"] == 2
    assert snap["histograms"]["size"]["min"] == 1.0
    assert snap["histograms"]["size"]["max"] == 7.0
    parent.merge({})  # Empty merge is a no-op.
    assert parent.snapshot() == snap


def test_null_metrics_is_inert():
    # The null record counts nothing.
    NULL_RECORD.inc("x")
    NULL_RECORD.event("x")
    NULL_RECORD.gauge("x", 1)
    NULL_RECORD.observe("x", 1)
    NULL_RECORD.merge({"counters": {"x": 1}})
    assert NULL_RECORD.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


def test_ambient_metrics_contextvar():
    assert get_record() is NULL_RECORD
    registry = Record()
    with use_record(registry):
        get_record().inc("hits")
    get_record().inc("hits")
    assert registry.snapshot()["counters"] == {"hits": 1}


# ----------------------------------------------------------------------
# Trace summary
# ----------------------------------------------------------------------
def test_summarize_records_aggregates_spans_and_events():
    records = [
        {"type": "span", "name": "quest.synthesis", "dur": 2.0, "status": "ok"},
        {"type": "span", "name": "quest.synthesis", "dur": 1.0, "status": "error"},
        {"type": "span", "name": "quest.selection", "dur": 0.5, "status": "ok"},
        {"type": "event", "name": "cache.hit"},
        {"type": "event", "name": "cache.hit"},
    ]
    summary = summarize_records(records)
    assert summary.records == 5
    assert summary.spans["quest.synthesis"].count == 2
    assert summary.spans["quest.synthesis"].total_seconds == 3.0
    assert summary.spans["quest.synthesis"].errors == 1
    assert summary.events == {"cache.hit": 2}
    assert summary.stage_totals() == {"synthesis": 3.0, "selection": 0.5}
    text = render_summary(summary)
    assert "quest.synthesis" in text
    assert "cache.hit" in text
    assert "5 record(s)" in text


def test_summarize_trace_skips_malformed_lines(tmp_path):
    path = tmp_path / "junk.trace"
    path.write_text(
        '{"type":"span","name":"quest.partition","dur":0.25,"status":"ok"}\n'
        "this is not json\n"
        "\n"
        '["a","list","not","a","dict"]\n'
    )
    summary = summarize_trace(path)
    assert summary.records == 1
    assert summary.malformed_lines == 2
    assert "malformed" in render_summary(summary)


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
def test_configure_logging_splits_streams(capsys):
    logger = configure_logging("info")
    logger.info("progress line")
    logger.warning("degradation line")
    captured = capsys.readouterr()
    assert "progress line" in captured.out
    assert "progress line" not in captured.err
    assert "degradation line" in captured.err
    assert "degradation line" not in captured.out


def test_configure_logging_level_filters(capsys):
    logger = configure_logging("warning")
    logger.info("hidden")
    logger.warning("shown")
    captured = capsys.readouterr()
    assert "hidden" not in captured.out
    assert "shown" in captured.err


def test_configure_logging_is_idempotent(capsys):
    configure_logging("info")
    logger = configure_logging("info")
    assert len(logger.handlers) == 2
    logger.info("once")
    assert capsys.readouterr().out.count("once") == 1


def test_configure_logging_rejects_unknown_level():
    with pytest.raises(ValueError, match="unknown log level"):
        configure_logging("verbose")


def test_get_logger_namespacing():
    assert get_logger().name == "repro"
    assert get_logger("cli").name == "repro.cli"
    assert isinstance(get_logger("cli"), logging.Logger)
