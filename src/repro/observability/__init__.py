"""Observability substrate: spans, metrics, structured logging.

One consistent event vocabulary threads through every pipeline layer
(see DESIGN.md "Observability layer" for the full table); this package
provides the mechanisms:

* :mod:`repro.observability.trace` — span tracer + JSON-lines sinks;
* :mod:`repro.observability.metrics` — counters / gauges / histograms;
* :mod:`repro.observability.logs` — the ``repro`` logger configuration;
* :mod:`repro.observability.summary` — trace aggregation for the
  ``python -m repro trace-summary`` subcommand.

Tracing and metrics are ambient (context-variable scoped) so inner
layers need no signature changes, and both default to no-op
implementations: an untraced run pays one ``is_enabled`` check per
would-be record.
"""

from repro.observability.logs import configure_logging, get_logger
from repro.observability.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    counter_property,
    get_metrics,
    use_metrics,
)
from repro.observability.summary import (
    STAGE_SPANS,
    SpanStats,
    TraceSummary,
    render_summary,
    summarize_records,
    summarize_trace,
)
from repro.observability.trace import (
    NULL_TRACER,
    TRACE_VERSION,
    JsonlSink,
    ListSink,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    use_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "JsonlSink",
    "ListSink",
    "get_tracer",
    "use_tracer",
    "TRACE_VERSION",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "counter_property",
    "get_metrics",
    "use_metrics",
    "configure_logging",
    "get_logger",
    "TraceSummary",
    "SpanStats",
    "STAGE_SPANS",
    "summarize_trace",
    "summarize_records",
    "render_summary",
]
