"""Telemetry stream reader: parse, fold and report.

``repro run --telemetry-out run.jsonl`` streams schema-versioned
records (see :mod:`repro.obs.telemetry`); this module reads them back:

* :func:`read_records` -- parse a JSONL stream, validating the schema
  version and tolerating a torn final line (the writer may be
  mid-append when we read), so a run still in flight reads too.
* :func:`last_run` -- the records of the stream's last run, for sinks
  that several runs appended to.
* :class:`MonitorState` -- folds records into the latest view of the
  run (its ``run_start``, last snapshot and ``run_end``).
* :func:`fold_stream` -- reduce a stream to a report document
  (``telemetry_version`` 1) that ``repro bench-diff`` can diff.
"""

from __future__ import annotations

import json

from repro.obs.telemetry import SCHEMA_VERSION


def parse_record(line: str) -> dict | None:
    """One JSONL line -> record dict; None for blank/torn lines."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None  # torn tail: the writer is mid-append
    if not isinstance(record, dict):
        return None
    schema = record.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"telemetry schema mismatch: stream has {schema!r}, "
            f"this reader understands {SCHEMA_VERSION}"
        )
    return record


def read_records(path: str) -> list[dict]:
    """All complete records currently in the stream file."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = parse_record(line)
            if record is not None:
                records.append(record)
    return records


def last_run(records: list[dict]) -> list[dict]:
    """The records from the stream's last ``run_start`` on."""
    starts = [i for i, r in enumerate(records) if r.get("kind") == "run_start"]
    return records[starts[-1]:] if starts else records


class MonitorState:
    """Latest-view fold over a telemetry record stream."""

    def __init__(self) -> None:
        self.run: dict = {}
        self.last_snapshot: dict = {}
        self.end: dict = {}
        self.records = 0
        self.snapshots = 0

    def ingest(self, record: dict) -> None:
        self.records += 1
        kind = record.get("kind")
        if kind == "run_start":
            self.run = record
        elif kind == "snapshot":
            self.last_snapshot = record
            self.snapshots += 1
        elif kind == "run_end":
            self.end = record


def fold_stream(records: list[dict]) -> dict:
    """Reduce a finished stream to a diffable report document.

    The result carries ``telemetry_version`` so the bench tooling's
    ``metric_table`` recognizes it: two streams (say, before and after
    an optimization) diff with ``repro bench-diff a.json b.json``.
    """
    state = MonitorState()
    rates = []
    frontier_peak = 0
    first_wall = last_wall = None
    for record in records:
        state.ingest(record)
        wall = record.get("wall_time")
        if wall is not None:
            first_wall = wall if first_wall is None else first_wall
            last_wall = wall
        if record.get("kind") == "snapshot":
            rates.append(record.get("iterations_per_sec", 0.0))
            frontier_peak = max(frontier_peak, record.get("frontier") or 0)
    counters = dict(state.last_snapshot.get("counters", {}))
    doc = {
        "schema": SCHEMA_VERSION,
        "telemetry_version": 1,
        "run": {"algorithm": state.run.get("algorithm")},
        "records": state.records,
        "snapshots": state.snapshots,
        "iterations": state.end.get("iterations", 0),
        "converged": bool(state.end.get("converged")),
        "sim_time": state.end.get("sim_time", 0.0),
        "wall_seconds": (
            (last_wall - first_wall) if first_wall is not None else 0.0
        ),
        "iterations_per_sec_mean": (
            sum(rates) / len(rates) if rates else 0.0
        ),
        "frontier_peak": frontier_peak,
        "counters": counters,
    }
    return doc


def report_text(doc: dict) -> str:
    """Human-readable rendering of :func:`fold_stream` output."""
    run = doc.get("run", {})
    lines = [
        f"telemetry report: {run.get('algorithm', '?')}",
        f"  records   {doc['records']} ({doc['snapshots']} snapshots)",
        f"  iterations {doc['iterations']} "
        f"({'converged' if doc['converged'] else 'not converged'})",
        f"  sim time  {doc['sim_time']:.3f}s  "
        f"wall {doc['wall_seconds']:.3f}s",
        f"  rate      {doc['iterations_per_sec_mean']:.2f} it/s mean, "
        f"frontier peak {doc['frontier_peak']}",
    ]
    if doc.get("counters"):
        lines.append("  counters:")
        for name, value in sorted(doc["counters"].items()):
            v = int(value) if float(value).is_integer() else value
            lines.append(f"    {name:<40} {v}")
    return "\n".join(lines)
