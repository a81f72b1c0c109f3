"""Structured observability: spans, metrics, exporters, regression checks.

The paper's evaluation is built on per-phase measurement -- Figure 15's
memcpy/kernel breakdown, Figure 5's compute-transfer overlap, Figures
16-17's frontier-skip savings. This package gives the runtime a
first-class version of that instrumentation:

* :mod:`repro.obs.span` -- hierarchical spans (run -> iteration ->
  phase, shards as phase columns) over the simulated clock, recorded through a
  context-manager API with a zero-overhead no-op recorder when disabled;
* :mod:`repro.obs.metrics` -- typed counters and histograms (bytes
  moved, kernels launched, shards skipped, fusion decisions);
* :mod:`repro.obs.export` -- JSON and Chrome ``trace_event`` exporters,
  so a run opens directly in ``chrome://tracing`` / Perfetto;
* :mod:`repro.obs.bench` -- phase-timing snapshots, the
  ``repro bench-check`` regression comparison and the
  ``repro bench-diff`` snapshot differ;
* :mod:`repro.obs.profile` -- the bottleneck-attribution profiler
  (per-engine occupancy, overlap efficiency, frontier-skip
  effectiveness) behind ``repro profile``;
* :mod:`repro.obs.attribution` -- bottleneck verdicts with tuning
  recommendations, and the Eq. (1)/(2) + cost-model validation pass;
* :mod:`repro.obs.telemetry` -- the schema-versioned JSONL snapshot
  stream behind ``--telemetry-out``, written on the run's own thread;
* :mod:`repro.obs.monitor` -- the stream reader and folder behind
  ``repro telemetry-report``.
"""

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.span import NULL_OBSERVER, NoopObserver, Observer, Span
from repro.obs.export import (
    observer_to_json,
    result_to_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.attribution import ModelCheck, Verdict, diagnose, validate_cost_model
from repro.obs.monitor import MonitorState, fold_stream, last_run, read_records
from repro.obs.profile import ProfileReport, build_profile, write_profile
from repro.obs.telemetry import RunTelemetry, TelemetryBus, TelemetryConfig

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ModelCheck",
    "MonitorState",
    "NULL_OBSERVER",
    "NoopObserver",
    "Observer",
    "ProfileReport",
    "RunTelemetry",
    "Span",
    "TelemetryBus",
    "TelemetryConfig",
    "Verdict",
    "build_profile",
    "diagnose",
    "fold_stream",
    "last_run",
    "observer_to_json",
    "read_records",
    "result_to_chrome_trace",
    "to_chrome_trace",
    "validate_cost_model",
    "write_chrome_trace",
    "write_profile",
]
