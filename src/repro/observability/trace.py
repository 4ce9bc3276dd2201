"""The run record: counts always, and a trace of spans and events when
it holds a sink.

A :class:`Record` is a run's one account of what it did.  It keeps three
shapes of count:

* **counters** (``inc``) — growing totals, e.g. ``cache.miss``,
  ``selection.batch_evals``;
* **gauges** (``gauge``) — last-observed values, e.g.
  ``partition.blocks``;
* **histograms** (``observe``) — streaming summaries (count / sum /
  min / max) of a distribution, e.g. ``synthesis.pool_size``.

Given a sink it also traces: a *span* wraps a timed region (``with
record.span("synthesis.block", block=i): ...``) and an *event* marks a
point-in-time occurrence, each written as one JSON object per line
(rendered by ``python -m repro trace-summary``).  An event is a count
too: ``event(name)`` adds one to counter ``name`` whether or not the
record traces, so every event name in a trace is a counter name, and
its total in the trace equals the counter.

**The ambient record.**  Components read the current record with
:func:`get_record` and keep no tallies of their own.  It is
:data:`NULL_RECORD`, which neither counts nor traces, unless a run
installs one with :func:`use_record`;
:func:`repro.core.quest.run_quest` counts every run into a fresh record
that shares its caller's sink.  A record never touches an RNG, so
results are bit-identical whatever it records.

**Monotonic durations.**  Span durations come from ``time.monotonic()``;
``ts`` is wall-clock ``time.time()``, for correlation across processes.

**Nesting and safety.**  The current span lives in a
:class:`~contextvars.ContextVar`, so nesting works per thread and per
``asyncio`` task; span ids embed the pid plus a process-wide count.  Every
mutator takes the record's lock, and :class:`JsonlSink` writes whole
lines under a lock, so threads sharing a record interleave records,
never bytes.

**Worker marshalling.**  A worker process counts into a fresh record
stamped ``origin="worker"``, tracing into a :class:`ListSink`
only when the parent traces, and returns the records and a
:meth:`Record.snapshot` with its payload; the parent re-emits the
records through :meth:`Record.replay` and folds the snapshot in with
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


#: Id of the innermost open span in this thread/task (None at top level).
_CURRENT_SPAN: ContextVar[str | None] = ContextVar(
    "repro_current_span", default=None
)

#: Span ordinals, process-wide so that the records of every run sharing
#: a sink carry distinct ids (``next`` on a count is atomic).
_SPAN_ORDINALS = itertools.count(1)


class _NullSpan:
    """Reusable no-op context manager: the span of a record that does
    not trace."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region; emits a single ``span`` record when it closes.

    The record carries the wall-clock start (``ts``), the monotonic
    duration (``dur``), the span/parent ids, and ``status`` — ``"error"``
    with the exception text when the body raised (the exception still
    propagates).
    """

    __slots__ = (
        "_record", "name", "attrs",
        "span_id", "parent_id", "_start", "_wall", "_token",
    )

    def __init__(self, record: "Record", name: str, attrs: dict) -> None:
        self._record = record
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self.parent_id = _CURRENT_SPAN.get()
        self.span_id = f"{os.getpid():x}:{next(_SPAN_ORDINALS):x}"
        self._token = _CURRENT_SPAN.set(self.span_id)
        self._wall = time.time()
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.monotonic() - self._start
        _CURRENT_SPAN.reset(self._token)
        record = {
            "type": "span",
            "name": self.name,
            "ts": self._wall,
            "dur": duration,
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
    """A run's counts and, with a ``sink``, its trace.

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

    def span(self, name: str, **attrs):
        """Context manager timing a region (see :class:`Span`); a no-op
        unless this record traces."""
        return _NULL_SPAN if self.sink is None else Span(self, name, attrs)

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


class _NullRecord:
    """The record outside any run: it neither counts nor traces."""

    __slots__ = ()
    sink = None
    is_enabled = False

    def inc(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: dict) -> None:
        return None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
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
