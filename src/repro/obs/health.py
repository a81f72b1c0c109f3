"""Health watchdog: heartbeats, stall detection, incident events.

Long-lived runs need to know that every moving part is still moving:
the main iteration loop, and any other component that registers. Each
component registers a **heartbeat** in a :class:`HeartbeatRegistry`
and beats it whenever it makes progress; the :class:`Watchdog`
periodically inspects the registry and raises a structured
:class:`Incident` when a *busy* component has not beaten within the
stall timeout.

Two design points keep false positives out:

* A component is only eligible for stall detection while its ``busy``
  flag is set. An idle component blocked on its input beats nothing --
  that is healthy, not a hang. Clean shutdown unregisters the component
  entirely.
* Incidents are edge-triggered: one ``stall`` incident when a component
  crosses the timeout, one ``recovered`` when it beats again. A stalled
  component does not spam one incident per poll.

The watchdog publishes every incident to the telemetry bus (when one is
attached) as an ``incident`` record, keeps them all in ``incidents``
for post-hoc inspection, and exposes :meth:`Watchdog.check` so tests
can drive detection with a fake clock instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass
class Heartbeat:
    """Liveness record for one component."""

    name: str
    kind: str = "component"
    last: float = 0.0
    beats: int = 0
    busy: bool = False


@dataclass(frozen=True)
class Incident:
    """One structured health event (stall, recovery, leaked thread)."""

    kind: str  # 'stall' | 'recovered' | 'leaked-thread'
    component: str
    component_kind: str
    age: float
    wall_time: float
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "component": self.component,
            "component_kind": self.component_kind,
            "age": self.age,
            "wall_time": self.wall_time,
            "details": self.details,
        }


class HeartbeatRegistry:
    """Thread-safe name-addressed heartbeats.

    ``beat`` is the hot call (once per iteration / task / shard load):
    one lock acquire and two attribute writes. ``clock`` is injectable
    so watchdog tests advance time instead of sleeping.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self._beats: dict[str, Heartbeat] = {}
        self._lock = threading.Lock()

    def register(self, name: str, kind: str = "component", busy: bool = False) -> None:
        with self._lock:
            hb = self._beats.get(name)
            if hb is None:
                self._beats[name] = Heartbeat(name, kind, self.clock(), busy=busy)
            else:
                hb.kind = kind
                hb.busy = busy

    def beat(self, name: str) -> None:
        now = self.clock()
        with self._lock:
            hb = self._beats.get(name)
            if hb is None:
                hb = self._beats[name] = Heartbeat(name)
            hb.last = now
            hb.beats += 1

    def busy(self, name: str, flag: bool = True) -> None:
        with self._lock:
            hb = self._beats.get(name)
            if hb is None:
                hb = self._beats[name] = Heartbeat(name)
                hb.last = self.clock()
            hb.busy = flag

    def unregister(self, name: str) -> None:
        with self._lock:
            self._beats.pop(name, None)

    def age(self, name: str, now: float | None = None) -> float | None:
        now = self.clock() if now is None else now
        with self._lock:
            hb = self._beats.get(name)
            return None if hb is None else now - hb.last

    def ages(self, now: float | None = None) -> dict[str, float]:
        now = self.clock() if now is None else now
        with self._lock:
            return {name: now - hb.last for name, hb in sorted(self._beats.items())}

    def stalled(self, timeout: float, now: float | None = None) -> list[Heartbeat]:
        """Busy components whose heartbeat age exceeds ``timeout``."""
        now = self.clock() if now is None else now
        with self._lock:
            return [
                Heartbeat(hb.name, hb.kind, hb.last, hb.beats, hb.busy)
                for hb in self._beats.values()
                if hb.busy and now - hb.last > timeout
            ]

    def snapshot(self, now: float | None = None) -> dict:
        """``{name: {age, busy, kind, beats}}`` for telemetry records."""
        now = self.clock() if now is None else now
        with self._lock:
            return {
                name: {
                    "age": now - hb.last,
                    "busy": hb.busy,
                    "kind": hb.kind,
                    "beats": hb.beats,
                }
                for name, hb in sorted(self._beats.items())
            }


#: Thread-name prefixes the leak check knows about: the only thread the
#: runtime spawns is the watchdog's own poll thread.
OWNED_THREAD_PREFIXES = ("repro-watchdog",)


class Watchdog:
    """Periodic stall detection over one :class:`HeartbeatRegistry`.

    ``check`` is synchronous and side-effect-complete (tests call it
    directly with a pinned ``now``); ``start`` runs it from a daemon
    poll thread for live runs. Incidents go to ``incidents`` and -- when
    a telemetry bus is attached -- onto the stream as ``incident``
    records.
    """

    def __init__(
        self,
        registry: HeartbeatRegistry,
        bus=None,
        stall_timeout: float = 30.0,
        poll: float = 1.0,
    ):
        self.registry = registry
        self.bus = bus
        self.stall_timeout = stall_timeout
        self.poll = poll
        self.incidents: list[Incident] = []
        self._stalled: set[str] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- detection -----------------------------------------------------
    def check(self, now: float | None = None) -> list[Incident]:
        """One detection pass; returns (and records) the new incidents."""
        now = self.registry.clock() if now is None else now
        fresh: list[Incident] = []
        stalled_now = {hb.name: hb for hb in self.registry.stalled(self.stall_timeout, now)}
        with self._lock:
            for name, hb in stalled_now.items():
                if name not in self._stalled:
                    self._stalled.add(name)
                    fresh.append(
                        Incident(
                            kind="stall",
                            component=name,
                            component_kind=hb.kind,
                            age=now - hb.last,
                            wall_time=now,
                            details=(
                                f"no heartbeat for {now - hb.last:.3f}s "
                                f"(timeout {self.stall_timeout:.3f}s)"
                            ),
                        )
                    )
            for name in sorted(self._stalled - set(stalled_now)):
                self._stalled.discard(name)
                age = self.registry.age(name, now)
                if age is None:
                    continue  # unregistered while stalled: clean shutdown
                fresh.append(
                    Incident(
                        kind="recovered",
                        component=name,
                        component_kind="component",
                        age=age,
                        wall_time=now,
                        details="heartbeat resumed",
                    )
                )
            self.incidents.extend(fresh)
        self._publish(fresh)
        return fresh

    def check_threads(self, baseline: set[int] | None = None) -> list[Incident]:
        """Flag still-running runtime-owned threads (leak detection).

        Call after the run's watchdog has shut down: any surviving
        thread whose name carries one of the known prefixes (minus
        ``baseline`` idents, captured before the run) leaked.
        """
        now = self.registry.clock()
        fresh = [
            Incident(
                kind="leaked-thread",
                component=t.name,
                component_kind="thread",
                age=0.0,
                wall_time=now,
                details="thread still alive after shutdown",
            )
            for t in threading.enumerate()
            if t.name.startswith(OWNED_THREAD_PREFIXES)
            and t.is_alive()
            and (baseline is None or t.ident not in baseline)
        ]
        with self._lock:
            self.incidents.extend(fresh)
        self._publish(fresh)
        return fresh

    def _publish(self, incidents: list[Incident]) -> None:
        if self.bus is None:
            return
        for inc in incidents:
            # The record's ``kind`` is the stream-level discriminator
            # ("incident"); the incident's own type travels as
            # ``incident_kind`` (stall | recovered | leaked-thread).
            fields = inc.to_dict()
            fields["incident_kind"] = fields.pop("kind")
            self.bus.emit("incident", **fields)

    # -- background polling --------------------------------------------
    def start(self) -> "Watchdog":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-watchdog", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop.wait(self.poll):
            self.check()

    def shutdown(self) -> None:
        """Stop polling. No final check runs: components a clean
        shutdown already tore down must not be flagged post-mortem."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
