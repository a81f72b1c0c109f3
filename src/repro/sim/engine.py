"""Event loop and simulated clock.

The simulator is a classic discrete-event engine: callbacks are scheduled
on a binary heap and executed in time order. Ties are broken by insertion
order so runs are fully deterministic.

Event times are *phase-local*. When the device drains at a barrier
(:meth:`Simulator.fold`), the local clock ``t`` is folded into the global
``epoch`` and restarts at 0, so a phase's timeline depends only on what
the phase issues, never on when it started -- which is what lets a
phase's record be applied again (:meth:`Simulator.replay`), or rebuilt
from a tape of an earlier phase (:mod:`repro.sim.tape`), instead of
re-simulated. ``now`` is always global: ``epoch + t``.

All other :mod:`repro.sim` components (resources, streams, devices) hang
off one :class:`Simulator` instance; a GraphReduce run owns exactly one.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from typing import Callable

from repro.sim.tape import real


class SimulationError(RuntimeError):
    """Raised for causality violations or malformed schedules."""


#: A scheduled callback: heap entry ``[time, seq, callback]``, ordered by
#: time, then insertion. Cancelling clears the callback (a tombstone the
#: loop skips), so the heap is never re-ordered.
Event = list


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.at(2.0, lambda: order.append("b"))
    >>> _ = sim.at(1.0, lambda: order.append("a"))
    >>> sim.run()
    >>> order
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self.epoch = 0.0  # global time at which the current phase started
        self.t = 0.0  # phase-local clock
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._parts: list[weakref.ref] = []

    def attach(self, part) -> None:
        """Fold and replay ``part``'s phase-local state with the clock's:

        it has ``close_phase() -> state`` and ``replay_phase(epoch,
        state)``. Held weakly: observers keep the simulator, and must not
        keep a finished run's device with it."""
        self._parts.append(weakref.ref(part))

    @property
    def now(self) -> float:
        """Global simulated time."""
        return self.epoch + self.t if self.t else self.epoch

    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Returns a handle whose :meth:`cancel` removes the event. Scheduling
        in the past is a causality violation and raises.
        """
        if not time >= self.now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event at t={time!r} before now={self.now!r}"
            )
        event = [max(self.t, real(time) - self.epoch), next(self._seq), callback]
        heapq.heappush(self._heap, event)
        return event

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` seconds from the current time."""
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay {delay!r}")
        event = [self.t + delay, next(self._seq), callback]
        heapq.heappush(self._heap, event)
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event[2] = None

    def step(self) -> bool:
        """Run the earliest pending event. Returns False when idle."""
        while self._heap:
            time, _, callback = heapq.heappop(self._heap)
            if callback is not None:
                self.t = time
                callback()
                return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run events until the queue drains (or past ``until``).

        With ``until`` set, events strictly later than ``until`` stay
        queued and the clock advances exactly to ``until``.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None:
            until -= self.epoch
        heap, pop = self._heap, heapq.heappop
        self._running = True
        try:
            while heap:
                if until is not None and heap[0][0] > until and heap[0][2] is not None:
                    break
                time, _, callback = pop(heap)
                if callback is not None:
                    self.t = time
                    callback()
            if until is not None and until > self.t:
                self.t = until
        finally:
            self._running = False

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) queued events."""
        return sum(1 for e in self._heap if e[2] is not None)

    @property
    def quiescent(self) -> bool:
        """Nothing pending and the local clock at 0: a phase starts here."""
        return not self._heap and not self.t

    def fold(self, recorder=None) -> tuple:
        """Close a drained phase: fold the local clock into ``epoch`` and

        each part's phase-local state into its totals. Returns the
        phase's record -- local duration, each part's closed state --
        for :meth:`replay`, made concrete by ``recorder`` (a
        :class:`~repro.sim.tape.TapeRecorder`) when one recorded it.
        """
        if self._heap:
            raise SimulationError("cannot fold a phase with events pending")
        duration, self.t = self.t, 0.0
        states = []
        for ref in self._parts:
            part = ref()
            if part is not None:
                states.append((ref, part.close_phase()))
        record = (duration, states)
        if recorder is not None:
            record = recorder.finish(record)
        self.replay(record)
        return record

    def replay(self, record: tuple) -> None:
        """Apply a phase :meth:`fold` recorded as if it ran again now --

        exact, since a phase's local timeline does not depend on its
        start. The caller guarantees the phase would issue the same
        operations on the same parts.
        """
        if not self.quiescent:
            raise SimulationError("replay needs a quiescent simulator")
        duration, states = record
        for ref, state in states:
            part = ref()
            if part is not None:
                part.replay_phase(self.epoch, state)
        self.epoch += duration

    def play(self, tape, inputs) -> tuple | None:
        """Fold a phase from ``tape`` (see :mod:`repro.sim.tape`) on

        ``inputs``; None, with nothing applied, when its guards fail."""
        record = tape.play(inputs, self._parts)
        if record is not None:
            self.replay(record)
        return record
