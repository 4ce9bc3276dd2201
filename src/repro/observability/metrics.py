"""Run-scoped metrics: counters, gauges, and histogram summaries.

A :class:`MetricsRegistry` accumulates three shapes of telemetry:

* **counters** (``inc``) — monotonically growing totals, e.g.
  ``cache.hit``, ``retry.attempts``, ``selection.batch_evals``;
* **gauges** (``gauge``) — last-observed values, e.g.
  ``partition.blocks``;
* **histograms** (``observe``) — streaming summaries (count / sum /
  min / max) of a distribution, e.g. ``synthesis.pool_size``.

The registry is the only place a count lives: components increment the
ambient one (see :func:`use_metrics`) and keep no tallies, so a count
made outside any registry is dropped.  :func:`repro.core.quest.run_quest`
counts every run into a fresh registry, snapshots it into
``QuestResult.metrics`` and merges it into the enclosing registry when
the run ends, raised or not.  The CLI dumps the same snapshot via
``--metrics-json``.  Worker processes accumulate into their own registry
and return ``snapshot()`` with the synthesis payload; the parent folds
it in with :meth:`MetricsRegistry.merge`.

All mutators take a lock, so threads sharing a registry (the executor's
callbacks) stay consistent; like the tracer, the registry never touches
an RNG, so metrics collection cannot perturb results.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar


class MetricsRegistry:
    """Thread-safe counters / gauges / histogram summaries."""

    is_enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: dict[str, list[float]] = {}

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
        """JSON-serializable copy of every metric."""
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
        """Fold another registry's :meth:`snapshot` into this one.

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


class NullMetrics:
    """Disabled registry: all mutators are no-ops, snapshots are empty."""

    is_enabled = False
    __slots__ = ()

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


NULL_METRICS = NullMetrics()


def counter_property(name: str) -> property:
    """Read-only attribute: counter ``name`` of the ``self.metrics``
    snapshot, 0 when absent."""
    return property(
        lambda self: self.metrics.get("counters", {}).get(name, 0),
        doc=f"The ``{name}`` counter of ``metrics`` (read-only).",
    )


#: The ambient registry; :data:`NULL_METRICS` unless a run installs one.
_CURRENT_METRICS: ContextVar = ContextVar("repro_metrics", default=NULL_METRICS)


def get_metrics():
    """The metrics registry for the current context (never None)."""
    return _CURRENT_METRICS.get()


@contextmanager
def use_metrics(registry):
    """Install ``registry`` (None = disabled) as the ambient registry."""
    token = _CURRENT_METRICS.set(
        NULL_METRICS if registry is None else registry
    )
    try:
        yield _CURRENT_METRICS.get()
    finally:
        _CURRENT_METRICS.reset(token)
