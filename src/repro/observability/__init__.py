"""Observability substrate: the run record, structured logging, and
trace summaries.

One vocabulary threads through every pipeline layer (see DESIGN.md
"Observability layer" for the table): the counter names.  This package
provides the mechanisms:

* :mod:`repro.observability.trace` — the run :class:`Record`, which
  always counts and times its spans and, given a sink, traces spans and
  events as JSON lines;
* :mod:`repro.observability.logs` — the ``repro`` logger configuration;
* :mod:`repro.observability.summary` — trace aggregation for the
  ``python -m repro trace-summary`` subcommand.

The record is ambient (context-variable scoped) so inner layers need no
signature changes.  Outside a run it is :data:`NULL_RECORD`, which
neither counts nor traces.
"""

from repro.observability.logs import configure_logging, get_logger
from repro.observability.summary import (
    STAGE_SPANS,
    SpanStats,
    TraceSummary,
    render_summary,
    summarize_records,
    summarize_trace,
)
from repro.observability.trace import (
    NULL_RECORD,
    TRACE_VERSION,
    JsonlSink,
    ListSink,
    Record,
    Span,
    counter_property,
    get_record,
    use_record,
)

__all__ = [
    "Record",
    "NULL_RECORD",
    "Span",
    "JsonlSink",
    "ListSink",
    "get_record",
    "use_record",
    "TRACE_VERSION",
    "counter_property",
    "configure_logging",
    "get_logger",
    "TraceSummary",
    "SpanStats",
    "STAGE_SPANS",
    "summarize_trace",
    "summarize_records",
    "render_summary",
]
