"""Exporters: plain JSON and Chrome ``trace_event`` format.

The Chrome format (one ``traceEvents`` list of complete ``"ph": "X"``
events, timestamps in microseconds) opens directly in
``chrome://tracing`` and in Perfetto's legacy-trace importer. The
export merges two sources onto one timeline:

* the observer's span tree (run / iteration / phase; a phase's shards
  are columns in its ``args``) as the *runtime* process, and
* the simulated device's interval trace (every H2D/D2H copy, kernel and
  storage op) as the *device* process with one row per stream.

Summed ``dur`` of the ``h2d``/``d2h`` events therefore equals the
``ExecutionReport`` memcpy time exactly -- both read the same intervals.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Conversion from simulated seconds to trace_event microseconds.
US = 1e6

RUNTIME_PID = 1
DEVICE_PID = 2


def _json_safe(value):
    """Coerce NumPy scalars and other oddballs into JSON-native types."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def observer_to_json(observer) -> dict:
    """The span tree plus the metrics snapshot, as one JSON document."""
    return {
        "spans": [_json_safe(root.to_dict()) for root in observer.roots],
        "metrics": observer.metrics.snapshot(),
    }


def _span_events(observer) -> list[dict]:
    events = []
    for span in observer.iter_spans():
        events.append(
            {
                "ph": "X",
                "pid": RUNTIME_PID,
                "tid": 1,
                "ts": span.start * US,
                "dur": span.duration * US,
                "name": span.name,
                "cat": span.category,
                "args": _json_safe(span.attrs),
            }
        )
    return events


def _interval_events(trace) -> list[dict]:
    intervals = trace.intervals  # built on each read: read once
    streams = sorted({i.stream for i in intervals})
    tid_of = {name: tid for tid, name in enumerate(streams, start=1)}
    events = [
        {
            "ph": "M",
            "pid": DEVICE_PID,
            "tid": tid_of[name],
            "name": "thread_name",
            "args": {"name": name},
        }
        for name in streams
    ]
    for iv in intervals:
        args = {"amount": iv.amount, "category": iv.category}
        if iv.service_start is not None:
            # Engine-service entry (kernels: SM entry after launch
            # overhead/queueing) -- lets `repro profile` occupancy be
            # recomputed from the exported document alone.
            args["service_ts"] = iv.service_start * US
        events.append(
            {
                "ph": "X",
                "pid": DEVICE_PID,
                "tid": tid_of[iv.stream],
                "ts": iv.start * US,
                "dur": iv.duration * US,
                "name": iv.label or iv.category,
                "cat": iv.category,
                "args": args,
            }
        )
    return events


def to_chrome_trace(observer=None, trace=None) -> dict:
    """Merge an observer's spans and a device trace into one document.

    Either source may be None. The result is a valid trace_event JSON
    object; extra top-level keys (``metrics``) are ignored by viewers.
    """
    events: list[dict] = [
        {"ph": "M", "pid": RUNTIME_PID, "name": "process_name", "args": {"name": "runtime"}},
        {"ph": "M", "pid": DEVICE_PID, "name": "process_name", "args": {"name": "device"}},
        {"ph": "M", "pid": RUNTIME_PID, "tid": 1, "name": "thread_name", "args": {"name": "spans"}},
    ]
    doc: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if observer is not None:
        events.extend(_span_events(observer))
        doc["metrics"] = observer.metrics.snapshot()
    if trace is not None:
        events.extend(_interval_events(trace))
    return doc


def result_to_chrome_trace(result) -> dict:
    """Chrome trace for one :class:`~repro.core.runtime.GraphReduceResult`."""
    return to_chrome_trace(
        observer=getattr(result, "observer", None),
        trace=getattr(result, "trace", None),
    )


def write_chrome_trace(path, observer=None, trace=None, result=None) -> Path:
    """Serialize to ``path``; returns the path written."""
    if result is not None:
        doc = result_to_chrome_trace(result)
    else:
        doc = to_chrome_trace(observer=observer, trace=trace)
    path = Path(path)
    path.write_text(json.dumps(doc, indent=None, separators=(",", ":")))
    return path


def memcpy_duration_us(doc: dict) -> float:
    """Summed duration of every transfer event in a trace document.

    The consistency check behind ``repro trace``: this total divided by
    1e6 must match ``ExecutionReport.memcpy_time``.
    """
    return sum(
        ev.get("dur", 0.0)
        for ev in doc.get("traceEvents", ())
        if ev.get("ph") == "X" and ev.get("cat") in ("h2d", "d2h")
    )
