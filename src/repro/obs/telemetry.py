"""Telemetry: one JSONL snapshot stream, written on the run's own thread.

Everything else in ``repro.obs`` is post-hoc -- spans, profiles and
bench snapshots only exist once the run has finished. This module
streams a run's progress while it runs:

* :class:`TelemetryBus` -- the publisher. The runtime emits
  schema-versioned records (``run_start``, ``snapshot``, ``run_end``)
  and the bus appends them as JSONL to a sink file, flushed per
  record, which ``repro telemetry-report`` folds (a partial stream
  included). Records carry both the wall clock and the simulated clock.
* :class:`RunTelemetry` -- the runtime's glue object: opens the sink,
  emits the throttled snapshots, and folds the stream's totals into a
  summary dict on the result.

The JSONL schema (version :data:`SCHEMA_VERSION`) is documented in
``docs/observability.md``; every record carries ``schema`` and ``kind``
so readers can reject streams they do not understand.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

#: Version stamped on every record; bump on incompatible layout change.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TelemetryConfig:
    """Per-run telemetry selection, carried on ``GraphReduceOptions``.

    ``out`` is the JSONL sink path. ``interval`` throttles snapshot
    records on the wall clock (``0`` emits one per iteration).
    """

    out: str
    interval: float = 0.5


class TelemetryBus:
    """Publisher of schema-versioned JSONL records to one sink.

    Each record gets a dense, monotone ``seq`` so readers detect
    ordering and loss. The runtime emits from its one thread; the lock
    keeps ``seq`` dense for any caller that emits from more.
    """

    def __init__(self, sink):
        self._sink = sink
        self._lock = threading.Lock()
        self._seq = 0

    @classmethod
    def open(cls, path: str) -> "TelemetryBus":
        """Bus appending to ``path`` (created if missing)."""
        return cls(open(path, "a", encoding="utf-8"))

    def emit(self, kind: str, **fields) -> dict:
        record = {"schema": SCHEMA_VERSION, "kind": kind, "pid": os.getpid()}
        record.update(fields)
        record["wall_time"] = time.time()
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            self._sink.write(json.dumps(record, sort_keys=True) + "\n")
            self._sink.flush()
        return record

    @property
    def emitted(self) -> int:
        return self._seq

    def close(self) -> None:
        with self._lock:
            self._sink.close()


class RunTelemetry:
    """One run's telemetry lifecycle, driven by the runtime.

    The runtime calls :meth:`start` once, :meth:`iteration` after every
    BSP iteration (which emits a ``snapshot`` record when one is due),
    and :meth:`finish` from its ``finally`` block -- so even a failed
    setup emits ``run_end`` and closes the sink. Components that expose
    a ``snapshot()`` dict (prefetcher, plan cache, kernels) register as
    *sources* and get polled into every snapshot record.
    """

    def __init__(self, config: TelemetryConfig, sim=None, obs=None):
        self.config = config
        self.sim = sim
        self.obs = obs
        self.bus = TelemetryBus.open(config.out)
        self._sources: dict = {}
        self._last_wall = 0.0
        self._rate_iter = 0
        self._finished = False

    def _sim_now(self) -> float:
        return 0.0 if self.sim is None else self.sim.now

    # -- wiring --------------------------------------------------------
    def add_source(self, name: str, fn) -> None:
        """Register ``fn() -> dict`` to be polled into snapshots."""
        self._sources[name] = fn

    def start(self, **run_fields) -> None:
        self._last_wall = time.monotonic()
        self.bus.emit(
            "run_start",
            sim_time=self._sim_now(),
            config={"interval": self.config.interval},
            **run_fields,
        )

    # -- per-iteration -------------------------------------------------
    def iteration(self, index: int, frontier: int, **fields) -> None:
        """Emit a ``snapshot`` record if ``interval`` has elapsed."""
        now = time.monotonic()
        elapsed = now - self._last_wall
        if elapsed < self.config.interval:
            return
        done = index + 1 - self._rate_iter
        rate = done / elapsed if elapsed > 0 else 0.0
        self._last_wall, self._rate_iter = now, index + 1
        sources = {name: fn() for name, fn in sorted(self._sources.items())}
        counters = {}
        if self.obs is not None and getattr(self.obs, "enabled", False):
            counters = {
                n: c.value
                for n, c in sorted(self.obs.metrics.counters.items())
            }
        self.bus.emit(
            "snapshot",
            iteration=index,
            frontier=frontier,
            sim_time=self._sim_now(),
            iterations_per_sec=rate,
            counters=counters,
            sources=sources,
            **fields,
        )

    # -- teardown ------------------------------------------------------
    def finish(
        self,
        iterations: int,
        converged: bool,
        error: str | None = None,
    ) -> dict:
        """``run_end`` and close the sink; safe to call more than once."""
        if not self._finished:
            self._finished = True
            self.bus.emit(
                "run_end",
                iterations=iterations,
                converged=converged,
                error=error,
                sim_time=self._sim_now(),
            )
            self.bus.close()
        return self.summary()

    def summary(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "records": self.bus.emitted,
            "out": self.config.out,
        }
