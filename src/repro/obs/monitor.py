"""Telemetry stream consumers: live monitor view and report folding.

``repro run --telemetry-out run.jsonl`` streams schema-versioned
records (see :mod:`repro.obs.telemetry`); this module reads them back:

* :func:`read_records` / :func:`follow` -- parse a JSONL stream,
  validating the schema version and tolerating a torn final line (the
  writer may be mid-append when we read).
* :class:`MonitorState` -- folds records into the latest view of the
  run (iterations/sec, frontier, plan-cache and prefetch rates,
  heartbeat ages, incident log) and checks health expectations for CI
  (``--fail-on-incident``).
* :func:`render` -- the terminal view ``repro monitor`` repaints.
* :func:`fold_stream` -- reduce a finished stream to a report document
  (``telemetry_version`` 1) that ``repro bench-diff`` can diff.
"""

from __future__ import annotations

import json
import time

from repro.obs.profile import plan_summary
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


def follow(path: str, poll: float = 0.2, stop=None):
    """Yield records as they are appended (like ``tail -f``).

    ``stop`` is an optional zero-argument callable checked between
    polls so callers (and tests) can end the tail without signals.
    Ends on its own when a ``run_end`` record arrives.
    """
    buffer = ""
    position = 0
    while True:
        with open(path, "r", encoding="utf-8") as fh:
            fh.seek(position)
            chunk = fh.read()
            position = fh.tell()
        buffer += chunk
        ended = False
        while "\n" in buffer:
            line, buffer = buffer.split("\n", 1)
            record = parse_record(line)
            if record is not None:
                yield record
                if record.get("kind") == "run_end":
                    ended = True
        if ended:
            return
        if stop is not None and stop():
            return
        time.sleep(poll)


class MonitorState:
    """Latest-view fold over a telemetry record stream."""

    def __init__(self) -> None:
        self.run: dict = {}
        self.last_snapshot: dict = {}
        self.end: dict = {}
        self.incidents: list[dict] = []
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
        elif kind == "incident":
            self.incidents.append(record)
        elif kind == "run_end":
            self.end = record

    # -- derived views -------------------------------------------------
    @property
    def heartbeats(self) -> dict:
        return self.last_snapshot.get("heartbeats", {})

    def problems(self, fail_on_incident: bool = False) -> list[str]:
        """Health-expectation violations, empty when all is well."""
        out = []
        if not self.run and not self.last_snapshot:
            out.append("no telemetry records seen")
        if fail_on_incident:
            real = [
                i for i in self.incidents
                if i.get("incident_kind") != "recovered"
            ]
            end_count = self.end.get("incidents")
            if end_count:
                out.append(f"run reported {end_count} incidents")
            elif real:
                out.append(f"{len(real)} incidents on the stream")
        return out


def _rate(block: dict, hit_key: str = "hits", miss_key: str = "misses") -> str:
    hits = block.get(hit_key, 0)
    total = hits + block.get(miss_key, 0)
    return f"{hits / total:.2f}" if total else "-"


def render(state: MonitorState) -> str:
    """One repaint of the live terminal view."""
    lines = []
    run = state.run
    snap = state.last_snapshot
    lines.append(
        f"run: {run.get('algorithm', '?')}  "
        f"kernels={run.get('kernel_backend', '?')}  pid={run.get('pid', '-')}"
    )
    if snap:
        lines.append(
            f"iteration {snap.get('iteration', '-')}  "
            f"frontier {snap.get('frontier', '-')}  "
            f"{snap.get('iterations_per_sec', 0.0):.1f} it/s  "
            f"sim {snap.get('sim_time', 0.0):.3f}s"
        )
        sources = snap.get("sources", {})
        cache = sources.get("plan_cache", {})
        prefetch = sources.get("prefetch", {})
        kernels = sources.get("kernels", {})
        parts = []
        if cache:
            parts.append(plan_summary(cache))
        if kernels:
            parts.append(
                f"kernels {kernels.get('fused_calls', 0)} fused "
                f"{kernels.get('premaps', 0)} premaps "
                f"{kernels.get('merged_groups', 0)} merged"
            )
        if prefetch:
            parts.append(
                f"prefetch hit {_rate(prefetch, 'hits', 'faults')} "
                f"evictions {prefetch.get('evictions', 0)}"
            )
        if parts:
            lines.append("  ".join(parts))
        beats = state.heartbeats
        if beats:
            lines.append("heartbeats:")
            for hb_name, hb in sorted(beats.items()):
                busy = "busy" if hb.get("busy") else "idle"
                lines.append(
                    f"  {hb_name:<16} {busy:<5} "
                    f"age {hb.get('age', 0.0):6.2f}s  "
                    f"beats {hb.get('beats', 0)}"
                )
    else:
        lines.append("(waiting for first snapshot...)")
    if state.incidents:
        lines.append(f"incidents ({len(state.incidents)}):")
        for inc in state.incidents[-5:]:
            lines.append(
                f"  [{inc.get('incident_kind')}] {inc.get('component')}: "
                f"{inc.get('details', '')}"
            )
    else:
        lines.append("incidents: none")
    if state.end:
        status = "converged" if state.end.get("converged") else "stopped"
        err = state.end.get("error")
        lines.append(
            f"run ended: {status} after {state.end.get('iterations', '?')} "
            f"iterations" + (f"  error: {err}" if err else "")
        )
    return "\n".join(lines)


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
        "incidents": len(
            [i for i in state.incidents
             if i.get("incident_kind") != "recovered"]
        ),
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
        f"  incidents {doc['incidents']}",
    ]
    if doc.get("counters"):
        lines.append("  counters:")
        for name, value in sorted(doc["counters"].items()):
            v = int(value) if float(value).is_integer() else value
            lines.append(f"    {name:<40} {v}")
    return "\n".join(lines)
