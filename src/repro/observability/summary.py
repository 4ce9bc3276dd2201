"""Aggregate a JSON-lines trace into a per-stage breakdown.

``python -m repro trace-summary run.trace`` renders, from the raw
span/event stream, the same wall-time story ``QuestTimings`` tells —
both read their stages through :data:`STAGE_SPANS` — but per span name,
with counts, and including worker-side spans the parent-side timings
can only see in aggregate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: QuestTimings stage -> the span that times it: a stage's seconds are
#: its span's total, in a trace or in a record's histogram of that name.
STAGE_SPANS = {
    "partition": "quest.partition",
    "synthesis": "quest.synthesis",
    "selection": "quest.selection",
    "certify": "quest.certify",
    "noisy_eval": "quest.noisy_eval",
}


@dataclass
class SpanStats:
    """Aggregate of every closed span sharing one name."""

    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    errors: int = 0

    def add(self, duration: float, failed: bool) -> None:
        self.count += 1
        self.total_seconds += duration
        self.max_seconds = max(self.max_seconds, duration)
        if failed:
            self.errors += 1


@dataclass
class TraceSummary:
    """Everything ``trace-summary`` renders."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    records: int = 0
    malformed_lines: int = 0

    def stage_totals(self) -> dict[str, float]:
        """Total seconds per QuestTimings stage present in the trace."""
        return {
            stage: self.spans[span].total_seconds
            for stage, span in STAGE_SPANS.items()
            if span in self.spans
        }


def iter_trace_records(path: str | Path):
    """Yield each non-blank line's record dict, or None for a line that
    is not one (not UTF-8, not JSON, or not an object)."""
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            except ValueError:
                yield None
                continue
            yield record if isinstance(record, dict) else None


def summarize_records(records) -> TraceSummary:
    """Aggregate an iterable of trace record dicts.

    A None, or a span whose ``dur`` is not a number, counts as a
    malformed line.
    """
    summary = TraceSummary()
    for record in records:
        if record is None:
            summary.malformed_lines += 1
            continue
        kind = record.get("type")
        name = str(record.get("name", "?"))
        if kind == "span":
            try:
                duration = float(record.get("dur", 0.0))
            except (TypeError, ValueError):
                summary.malformed_lines += 1
                continue
            stats = summary.spans.setdefault(name, SpanStats())
            stats.add(duration, record.get("status") == "error")
        elif kind == "event":
            summary.events[name] = summary.events.get(name, 0) + 1
        summary.records += 1
    return summary


def summarize_trace(path: str | Path) -> TraceSummary:
    """Parse and aggregate a JSON-lines trace file."""
    return summarize_records(iter_trace_records(path))


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.extend(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows
    )
    return lines


def render_summary(summary: TraceSummary) -> str:
    """Human-readable per-stage wall-time/count breakdown."""
    lines: list[str] = []
    stage_totals = summary.stage_totals()
    if stage_totals:
        lines.append("pipeline stages:")
        lines.extend(
            _table(
                ["stage", "seconds"],
                [
                    [stage, f"{seconds:.3f}"]
                    for stage, seconds in stage_totals.items()
                ],
            )
        )
        lines.append("")
    if summary.spans:
        lines.append("spans:")
        rows = [
            [
                name,
                str(stats.count),
                f"{stats.total_seconds:.3f}",
                f"{stats.total_seconds / stats.count:.3f}",
                f"{stats.max_seconds:.3f}",
                str(stats.errors),
            ]
            for name, stats in sorted(
                summary.spans.items(),
                key=lambda item: -item[1].total_seconds,
            )
        ]
        lines.extend(
            _table(
                ["span", "count", "total s", "mean s", "max s", "errors"],
                rows,
            )
        )
        lines.append("")
    if summary.events:
        lines.append("events:")
        lines.extend(
            _table(
                ["event", "count"],
                [
                    [name, str(count)]
                    for name, count in sorted(
                        summary.events.items(), key=lambda item: -item[1]
                    )
                ],
            )
        )
        lines.append("")
    lines.append(
        f"{summary.records} record(s)"
        + (
            f", {summary.malformed_lines} malformed line(s) skipped"
            if summary.malformed_lines
            else ""
        )
    )
    return "\n".join(lines)
