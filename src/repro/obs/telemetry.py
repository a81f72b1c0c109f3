"""Live telemetry: streaming bus, bounded flight recorder, run glue.

Everything else in ``repro.obs`` is post-hoc -- spans, profiles and
bench snapshots only exist once the run has finished, and the span tree
grows with the run. This module adds the live side:

* :class:`TelemetryBus` -- a process-wide publisher. Components emit
  schema-versioned records (``run_start``, ``snapshot``, ``incident``,
  ``run_end``, ...) and the bus appends them as JSONL to a sink file
  that a concurrent ``repro monitor`` tails. Records carry both the
  wall clock and (where meaningful) the simulated clock.
* :class:`FlightRecorder` -- an :class:`~repro.obs.span.Observer`
  drop-in whose storage is two fixed-capacity rings (closed spans,
  events) instead of an unbounded tree: a million-iteration run holds
  O(budget) memory, with exact drop counters for everything evicted.
* :class:`RunTelemetry` -- the runtime's glue object: opens the sink,
  owns the heartbeat registry and watchdog, emits the periodic
  snapshots, and folds everything into a summary dict on the result.

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

from repro.obs.health import HeartbeatRegistry, Watchdog
from repro.obs.span import Observer, Span

#: Version stamped on every record; bump on incompatible layout change.
SCHEMA_VERSION = 1

#: Estimated serialized size of one flight-recorder record, used to
#: turn a byte budget into ring capacities. Deliberately conservative
#: (a span dict with a short name and a couple of attrs is ~150 bytes).
SPAN_RECORD_BYTES = 256


class Ring:
    """Fixed-capacity ring buffer with an exact drop counter.

    Appends are O(1) into a preallocated slot list, so memory is
    bounded by ``capacity`` regardless of how many items pass through.
    ``dropped`` counts evictions exactly: ``appended - len(ring)``.
    """

    __slots__ = ("capacity", "_slots", "_next", "appended")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._slots: list = [None] * capacity
        self._next = 0
        self.appended = 0

    def append(self, item) -> None:
        self._slots[self._next] = item
        self._next = (self._next + 1) % self.capacity
        self.appended += 1

    @property
    def dropped(self) -> int:
        return max(0, self.appended - self.capacity)

    def __len__(self) -> int:
        return min(self.appended, self.capacity)

    def __iter__(self):
        """Oldest to newest."""
        n = len(self)
        start = (self._next - n) % self.capacity
        for i in range(n):
            yield self._slots[(start + i) % self.capacity]

    def to_list(self) -> list:
        return list(self)

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "recorded": len(self),
            "appended": self.appended,
            "dropped": self.dropped,
        }


class FlightRecorder(Observer):
    """Bounded observer: rings of flat span/event records, no tree.

    Open spans still nest through the observer stack (so ``with
    obs.span(...)`` code is unchanged), but closed spans are recorded
    flat -- ``{name, category, start, end, attrs}`` -- into the spans
    ring instead of being linked into a parent. ``roots`` therefore
    stays empty and ``find``/``iter_spans`` yield nothing: profile and
    trace export need the full :class:`Observer`; the flight recorder
    is the black box for runs too long to hold a tree.

    Metrics are unaffected: the inherited registry is O(instruments),
    not O(run), so counters and histograms stay exact.
    """

    def __init__(self, clock=None, budget_bytes: int = 1 << 20):
        super().__init__(clock=clock)
        self.budget_bytes = budget_bytes
        capacity = max(1, budget_bytes // (2 * SPAN_RECORD_BYTES))
        self.span_ring = Ring(capacity)
        self.event_ring = Ring(capacity)

    # Events bypass the tree entirely: record and forget.
    def _attach(self, span: Span) -> None:
        self.event_ring.append(self._record(span))

    # Open spans only join the stack -- no parent/child links, so a
    # closed span is garbage the moment its flat record is taken.
    def _push(self, span: Span) -> None:
        span.start = self.clock()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.clock()
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = span.end
            self.span_ring.append(self._record(top))
            if top is span:
                break

    @staticmethod
    def _record(span: Span) -> dict:
        rec = {
            "name": span.name,
            "category": span.category,
            "start": span.start,
            "end": span.end,
        }
        if span.attrs:
            rec["attrs"] = dict(span.attrs)
        return rec

    def snapshot(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "budget_bytes": self.budget_bytes,
            "spans": self.span_ring.stats(),
            "events": self.event_ring.stats(),
        }


@dataclass(frozen=True)
class TelemetryConfig:
    """Per-run telemetry selection, carried on ``GraphReduceOptions``.

    ``out`` is the JSONL sink path (None streams nothing but still runs
    the watchdog and flight recorder if asked). ``interval`` throttles
    snapshot records on the wall clock; ``sim_interval`` additionally
    forces one whenever the simulated clock advances that far, so slow
    simulated regions still show up in a fast wall-clock run.
    """

    out: str | None = None
    interval: float = 0.5
    sim_interval: float = 0.0
    budget_bytes: int = 1 << 20
    flight_recorder: bool = False
    watchdog_poll: float = 1.0


class TelemetryBus:
    """Process-wide publisher of schema-versioned JSONL records.

    Thread-safe: the main loop and the watchdog thread emit
    concurrently. Each record gets a monotone
    ``seq`` so readers detect ordering and loss; the last few records
    are kept in a small ring for in-process consumers (the result
    summary, tests) without re-reading the sink.
    """

    def __init__(self, sink=None, recent: int = 64):
        self._sink = sink
        self._lock = threading.Lock()
        self._seq = 0
        self.recent = Ring(recent)
        self.heartbeats = HeartbeatRegistry()

    @classmethod
    def open(cls, path: str, recent: int = 64) -> "TelemetryBus":
        """Bus appending to ``path`` (created if missing)."""
        return cls(sink=open(path, "a", encoding="utf-8"), recent=recent)

    def emit(self, kind: str, **fields) -> dict:
        record = {"schema": SCHEMA_VERSION, "kind": kind, "pid": os.getpid()}
        record.update(fields)
        record["wall_time"] = time.time()
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            self.recent.append(record)
            if self._sink is not None:
                self._sink.write(json.dumps(record, sort_keys=True) + "\n")
                self._sink.flush()
        return record

    @property
    def emitted(self) -> int:
        return self._seq

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                self._sink.close()
                self._sink = None


class RunTelemetry:
    """One run's telemetry lifecycle, driven by the runtime.

    The runtime calls :meth:`start` once, :meth:`iteration` after every
    BSP iteration (which beats the main-loop heartbeat and emits a
    ``snapshot`` record when one is due), and :meth:`finish` from its
    ``finally`` block -- so even a failed setup emits ``run_end`` and
    closes the sink. Components that expose a ``snapshot()`` dict
    (prefetcher, plan cache, kernels) register as *sources* and
    get polled into every snapshot record.
    """

    def __init__(self, config: TelemetryConfig, sim=None, obs=None):
        self.config = config
        self.sim = sim
        self.obs = obs
        self.bus = (
            TelemetryBus.open(config.out) if config.out else TelemetryBus()
        )
        self.heartbeats = self.bus.heartbeats
        self.watchdog = Watchdog(
            self.heartbeats, bus=self.bus, stall_timeout=30.0, poll=config.watchdog_poll
        )
        self._threads_before: set[int] = set()
        self._sources: dict = {}
        self._last_wall = 0.0
        self._last_sim = 0.0
        self._rate_wall = 0.0
        self._rate_iter = 0
        self._finished = False

    # -- wiring --------------------------------------------------------
    def add_source(self, name: str, fn) -> None:
        """Register ``fn() -> dict`` to be polled into snapshots."""
        self._sources[name] = fn

    def start(self, **run_fields) -> None:
        self.heartbeats.register("main-loop", kind="loop", busy=True)
        # Threads alive before this run (another run's watchdog, say)
        # are not this run's leaks.
        self._threads_before = {t.ident for t in threading.enumerate()}
        self.watchdog.start()
        now = time.monotonic()
        self._last_wall = self._rate_wall = now
        self.bus.emit(
            "run_start",
            sim_time=0.0 if self.sim is None else self.sim.now,
            config={
                "interval": self.config.interval,
                "sim_interval": self.config.sim_interval,
                "budget_bytes": self.config.budget_bytes,
                "flight_recorder": self.config.flight_recorder,
            },
            **run_fields,
        )

    # -- per-iteration -------------------------------------------------
    def iteration(self, index: int, frontier: int, **fields) -> None:
        self.heartbeats.beat("main-loop")
        now = time.monotonic()
        sim_now = 0.0 if self.sim is None else self.sim.now
        due = now - self._last_wall >= self.config.interval
        if self.config.sim_interval > 0:
            due = due or sim_now - self._last_sim >= self.config.sim_interval
        if not due:
            return
        self.snapshot_now(
            index, frontier, now=now, sim_now=sim_now, **fields
        )

    def snapshot_now(
        self, index: int, frontier: int, now=None, sim_now=None, **fields
    ) -> dict:
        """Emit one snapshot record unconditionally."""
        now = time.monotonic() if now is None else now
        sim_now = (
            (0.0 if self.sim is None else self.sim.now)
            if sim_now is None
            else sim_now
        )
        elapsed = now - self._rate_wall
        done = index + 1 - self._rate_iter
        rate = done / elapsed if elapsed > 0 else 0.0
        self._last_wall, self._last_sim = now, sim_now
        self._rate_wall, self._rate_iter = now, index + 1
        sources = {name: fn() for name, fn in sorted(self._sources.items())}
        counters = {}
        if self.obs is not None and getattr(self.obs, "enabled", False):
            counters = {
                n: c.value
                for n, c in sorted(self.obs.metrics.counters.items())
            }
        return self.bus.emit(
            "snapshot",
            iteration=index,
            frontier=frontier,
            sim_time=sim_now,
            iterations_per_sec=rate,
            counters=counters,
            sources=sources,
            heartbeats=self.heartbeats.snapshot(),
            **fields,
        )

    # -- teardown ------------------------------------------------------
    def finish(
        self,
        iterations: int,
        converged: bool,
        error: str | None = None,
    ) -> dict:
        """Final check + ``run_end``; safe to call exactly once."""
        if self._finished:
            return self.summary()
        self._finished = True
        self.heartbeats.unregister("main-loop")
        self.watchdog.shutdown()
        self.watchdog.check_threads(self._threads_before)
        flight = (
            self.obs.snapshot()
            if isinstance(self.obs, FlightRecorder)
            else None
        )
        self.bus.emit(
            "run_end",
            iterations=iterations,
            converged=converged,
            error=error,
            sim_time=0.0 if self.sim is None else self.sim.now,
            incidents=len(self.watchdog.incidents),
            flight_recorder=flight,
        )
        summary = self.summary()
        self.bus.close()
        return summary

    def summary(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "records": self.bus.emitted,
            "out": self.config.out,
            "incidents": [i.to_dict() for i in self.watchdog.incidents],
            "flight_recorder": (
                self.obs.snapshot()
                if isinstance(self.obs, FlightRecorder)
                else None
            ),
        }
