"""The run record: a run's one clock and one tally, and a trace of spans
and events when it holds a sink.

A :class:`Record` is a run's one account of what it did.  It keeps three
shapes of count:

* **counters** (``inc``) — growing totals, e.g. ``cache.miss``,
  ``selection.batch_evals``;
* **gauges** (``gauge``) — last-observed values, e.g.
  ``partition.blocks``;
* **histograms** (``observe``) — streaming summaries (count / sum /
  min / max) of a distribution, e.g. ``synthesis.pool_size``.

A *span* times a region (``with record.span("synthesis.block",
block=i): ...``): on every exit, errors included, it adds its duration
to the histogram of its own name, traced or not, so a histogram named
after a span is where that region's time went.  An *event* marks a
point-in-time occurrence and is a count: ``event(name)`` adds one to
counter ``name``.  Given a sink the record also traces, writing each
span and event as one JSON object per line (rendered by ``python -m
repro trace-summary``).  So every span name in a trace is a histogram
whose count and sum are the trace's count and total ``dur`` of that
span, and every event name is a counter equal to its total.

**The ambient record.**  Components read the current record with
:func:`get_record` and keep no tallies or clocks of their own.  It is
:data:`NULL_RECORD`, which neither counts nor traces, unless a run
installs one with :func:`use_record`;
:func:`repro.core.quest.run_quest` counts every run into a fresh record
that shares its caller's sink.  A record never touches an RNG, so
results are bit-identical whatever it records.

**Monotonic durations.**  Span durations come from ``time.monotonic()``;
``ts`` is wall-clock ``time.time()``, for correlation across processes.

**Nesting and safety.**  The current traced span lives in a
:class:`~contextvars.ContextVar`, so nesting works per thread and per
``asyncio`` task; span ids embed the pid plus a process-wide count.  Every
mutator takes the record's lock, and :class:`JsonlSink` writes whole
lines under a lock, so threads sharing a record interleave records,
never bytes.

**Worker marshalling.**  A worker process counts into a fresh record
stamped ``origin="worker"``, tracing into a :class:`ListSink` only when
the parent traces, under the parent's span shipped with the work
(:func:`within_span`), and returns the records and a
:meth:`Record.snapshot`, raised or not; the parent re-emits the records
through :meth:`Record.replay` and folds the snapshot in with
:meth:`Record.merge`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

#: Bump when the trace record layout changes incompatibly.
TRACE_VERSION = 1


def _json_default(value):
    """Serialize non-native values: numpy scalars via .item(), rest via str."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


class ListSink:
    """In-memory sink: collects records in a list.

    Used by tests and by worker processes, whose records are marshalled
    back to the parent with the synthesis payload.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


class JsonlSink:
    """Append-only JSON-lines file sink.

    Each record is serialized and written as one complete line under a
    lock, so records from concurrent threads interleave line-wise, never
    byte-wise.  The handle is flushed per record: a crashed run keeps
    every record emitted before the crash.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=_json_default)
        with self._lock:
            if not self._handle.closed:
                self._handle.write(line + "\n")
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


#: Id of the innermost open traced span in this thread/task (None at
#: top level).
_CURRENT_SPAN: ContextVar[str | None] = ContextVar(
    "repro_current_span", default=None
)

#: Span ordinals, process-wide so that the records of every run sharing
#: a sink carry distinct ids (``next`` on a count is atomic).
_SPAN_ORDINALS = itertools.count(1)


class Span:
    """One timed region of a record.

    On exit, errors included, the span sets ``duration`` (monotonic
    seconds) and adds it to its record's histogram of its own name.  A
    span of a tracing record also writes one ``span`` record, whose
    ``dur`` is the same float, with the wall-clock start (``ts``), the
    span/parent ids, and ``status`` — ``"error"`` with the exception
    text when the body raised (the exception still propagates).
    """

    __slots__ = (
        "_record", "name", "attrs", "duration",
        "span_id", "parent_id", "_start", "_wall", "_token",
    )

    def __init__(self, record: "Record", name: str, attrs: dict) -> None:
        self._record = record
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        if self._record.sink is not None:
            self.parent_id = _CURRENT_SPAN.get()
            self.span_id = f"{os.getpid():x}:{next(_SPAN_ORDINALS):x}"
            self._token = _CURRENT_SPAN.set(self.span_id)
            self._wall = time.time()
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.monotonic() - self._start
        self._record.observe(self.name, self.duration)
        if self._record.sink is None:
            return False
        _CURRENT_SPAN.reset(self._token)
        record = {
            "type": "span",
            "name": self.name,
            "ts": self._wall,
            "dur": self.duration,
            "span_id": self.span_id,
            "pid": os.getpid(),
            "status": "ok" if exc_type is None else "error",
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if exc_type is not None:
            record["error"] = f"{exc_type.__name__}: {exc}"
        if self.attrs:
            record["attrs"] = self.attrs
        self._record._emit(record)
        return False


class Record:
    """A run's counts and span times and, with a ``sink``, its trace.

    ``origin`` (e.g. ``"worker"``) is stamped on every trace record this
    instance emits, so marshalled worker records stay distinguishable
    after the parent replays them into the run's sink.
    """

    def __init__(self, sink=None, origin: str | None = None) -> None:
        self.sink = sink
        self.origin = origin
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: dict[str, list[float]] = {}

    @property
    def is_enabled(self) -> bool:
        """Whether this record traces (holds a sink).  Guard only the
        attributes that cost work to compute on it."""
        return self.sink is not None

    # -- Counts --------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observed ``value``."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``'s running summary."""
        value = float(value)
        with self._lock:
            entry = self._histograms.get(name)
            if entry is None:
                self._histograms[name] = [1, value, value, value]
            else:
                entry[0] += 1
                entry[1] += value
                entry[2] = min(entry[2], value)
                entry[3] = max(entry[3], value)

    def snapshot(self) -> dict:
        """JSON-serializable copy of every count."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": entry[0],
                        "sum": entry[1],
                        "min": entry[2],
                        "max": entry[3],
                        "mean": entry[1] / entry[0],
                    }
                    for name, entry in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another record's :meth:`snapshot` into this one.

        Counters and histogram summaries combine exactly; gauges adopt
        the merged snapshot's value (last write wins), matching their
        "latest observation" semantics.
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(snapshot.get("gauges", {}))
            for name, summary in snapshot.get("histograms", {}).items():
                entry = self._histograms.get(name)
                if entry is None:
                    self._histograms[name] = [
                        summary["count"],
                        summary["sum"],
                        summary["min"],
                        summary["max"],
                    ]
                else:
                    entry[0] += summary["count"]
                    entry[1] += summary["sum"]
                    entry[2] = min(entry[2], summary["min"])
                    entry[3] = max(entry[3], summary["max"])

    # -- Trace ---------------------------------------------------------
    def _emit(self, record: dict) -> None:
        if self.origin is not None:
            record.setdefault("origin", self.origin)
        self.sink.emit(record)

    def span(self, name: str, **attrs) -> Span:
        """Context manager timing a region into histogram ``name`` and,
        when tracing, the trace (see :class:`Span`)."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Count one ``name`` and, when tracing, emit an ``event`` record
        inside the current span."""
        self.inc(name)
        if self.sink is None:
            return
        record = {
            "type": "event",
            "name": name,
            "ts": time.time(),
            "pid": os.getpid(),
        }
        span_id = _CURRENT_SPAN.get()
        if span_id is not None:
            record["span_id"] = span_id
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def replay(self, records) -> None:
        """Re-emit trace records marshalled back from a worker process.

        Records pass through verbatim (they already carry the worker's
        pid, span ids, and ``origin`` stamp).
        """
        for record in records:
            self.sink.emit(dict(record))


class _NullRecord(Record):
    """The record outside any run: it keeps no count and traces nothing,
    though its spans still measure their ``duration``."""

    def inc(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def merge(self, snapshot: dict) -> None:
        return None

    def replay(self, records) -> None:
        return None


NULL_RECORD = _NullRecord()


def counter_property(name: str) -> property:
    """Read-only attribute: counter ``name`` of the ``self.metrics``
    snapshot, 0 when absent."""
    return property(
        lambda self: self.metrics.get("counters", {}).get(name, 0),
        doc=f"The ``{name}`` counter of ``metrics`` (read-only).",
    )


def current_span_id() -> str | None:
    """Id of the innermost open span of a tracing record in this thread
    or task (None outside any)."""
    return _CURRENT_SPAN.get()


@contextmanager
def within_span(span_id: str | None):
    """Parent the spans and events of the ``with`` body to ``span_id``,
    a span of another process or thread that shipped it with the work: a
    forked worker otherwise inherits whatever span was open when it
    forked, and a pool thread starts with none."""
    token = _CURRENT_SPAN.set(span_id)
    try:
        yield
    finally:
        _CURRENT_SPAN.reset(token)


#: The ambient record; :data:`NULL_RECORD` unless a run installs one.
_CURRENT_RECORD: ContextVar = ContextVar("repro_record", default=NULL_RECORD)


def get_record():
    """The record of the current context (never None)."""
    return _CURRENT_RECORD.get()


@contextmanager
def use_record(record):
    """Install ``record`` as the ambient record for the ``with`` body."""
    token = _CURRENT_RECORD.set(record)
    try:
        yield record
    finally:
        _CURRENT_RECORD.reset(token)
