"""Shared rate resources with water-filling allocation.

Two hardware behaviours recur throughout the modeled machine:

* A **copy engine** (one per PCIe direction on Kepler) serves one DMA at a
  time at link bandwidth; queued transfers from any stream are serviced
  FIFO back-to-back.
* The **SM pool** executes up to ``hyperq`` concurrent kernels; each kernel
  can consume at most its *demand* (how much of the machine its grid can
  occupy) and the pool's total throughput is shared by water-filling. A
  kernel launched over a tiny frontier leaves most of the machine idle,
  which a concurrent kernel from another shard can soak up -- exactly the
  paper's compute-compute scheme (Section 3.3).

Both are instances of :class:`FluidResource`: total capacity ``capacity``
(units/second), at most ``max_concurrent`` jobs in service, each job
capped at its own ``max_rate``, with fair water-filling of the residual
capacity. A copy engine is simply ``max_concurrent=1``.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from functools import reduce
from typing import Callable

from repro.sim.engine import SimulationError, Simulator
from repro.sim.tape import maximum, minimum, real
from repro.sim.trace import union_length


class _Job:
    __slots__ = ("work", "remaining", "max_rate", "callback", "on_start", "rate")

    def __init__(self, work: float, max_rate: float, callback: Callable[[], None],
                 on_start: Callable[[], None] | None = None):
        self.work = work
        self.remaining = work
        self.max_rate = max_rate
        self.callback = callback
        self.on_start = on_start
        self.rate = 0.0


class FluidResource:
    """A resource of ``capacity`` work units per second shared by jobs

    via water-filling: at most ``max_concurrent`` jobs in service, the
    excess queued FIFO. ``name`` labels traces and errors.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        max_concurrent: int | None = None,
        name: str = "resource",
    ) -> None:
        if not 0 < capacity < math.inf:
            raise ValueError(f"capacity must be positive and finite, got {capacity!r}")
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent!r}")
        self.sim = sim
        self.capacity = float(capacity)
        self.max_concurrent = max_concurrent
        self.name = name
        self._active: list[_Job] = []
        self._queue: deque[_Job] = deque()
        self._last_update = sim.t  # phase-local, like every time below
        self._completion_event = None
        # Integrals of (allocated rate / capacity) dt and of rate dt; the
        # current phase's fold into the totals once per phase.
        self._busy = self._served = self._phase_busy = self._phase_served = 0.0
        # Utilization timeline: (start, end, fraction-of-capacity)
        # segments covering every instant the resource served work, in
        # local time while the phase is open (adjacent segments at the same
        # fraction merge), then in global time, three doubles each.
        self._closed = array("d")
        self._open: list[tuple[float, float, float]] = []
        sim.attach(self)

    # ------------------------------------------------------------------
    def submit(
        self,
        work: float,
        callback: Callable[[], None],
        max_rate: float | None = None,
        on_start: Callable[[], None] | None = None,
    ) -> None:
        """Submit a job of ``work`` units; ``callback`` fires on completion.

        ``max_rate`` caps how fast this job may be served (defaults to the
        full capacity). ``on_start`` fires when the job enters service
        (after any FIFO queueing) -- how transfers distinguish queue wait
        from actual DMA time. Zero-work jobs complete after the current
        event.
        """
        if not 0 <= work < math.inf:
            raise ValueError(f"work must be finite and non-negative, got {work!r}")
        rate_cap = self.capacity if max_rate is None else real(max_rate)
        if not rate_cap > 0:
            raise ValueError(f"max_rate must be positive, got {max_rate!r}")
        job = _Job(real(work), rate_cap, callback, on_start)
        if work == 0:
            # Completes "immediately" but asynchronously, preserving the
            # invariant that callbacks never run inside submit().
            if on_start is not None:
                self.sim.after(0.0, on_start)
            self.sim.after(0.0, callback)
            return
        self._sync()
        if self.max_concurrent is not None and len(self._active) >= self.max_concurrent:
            self._queue.append(job)
        else:
            self._active.append(job)
            if job.on_start is not None:
                job.on_start()
        self._reallocate()

    @property
    def active_jobs(self) -> int:
        return len(self._active)

    @property
    def busy_time(self) -> float:
        """Integral of (allocated rate / capacity) dt."""
        return self._busy + self._phase_busy

    @property
    def served_work(self) -> float:
        """Work units delivered."""
        return self._served + self._phase_served

    @property
    def timeline(self) -> list[tuple[float, float, float]]:
        """Utilization segments ``(start, end, fraction)`` in global time."""
        closed, epoch = self._closed, self.sim.epoch
        return list(zip(closed[0::3], closed[1::3], closed[2::3])) + [
            (epoch + start, epoch + end, frac) for start, end, frac in self._open
        ]

    def close_phase(self) -> tuple:
        """Close the current phase (the resource is idle); returns its

        state for :meth:`replay_phase`."""
        state = (self._open, self._phase_busy, self._phase_served)
        self._open, self._phase_busy, self._phase_served = [], 0.0, 0.0
        self._last_update = 0.0
        return state

    def replay_phase(self, epoch: float, state: tuple) -> None:
        """Add a closed phase's segments and integrals at ``epoch``."""
        block, busy, served = state
        self._closed.extend([x for start, end, frac in block
                             for x in (epoch + start, epoch + end, frac)])
        self._busy += busy
        self._served += served

    def profile_snapshot(self) -> dict:
        """Occupancy data for the profiler, JSON-shaped.

        ``busy_seconds`` is wall time in service (the union of the
        timeline, the occupancy numerator), ``busy_time`` the
        capacity-weighted integral, ``served_work`` total work units
        delivered -- for a copy engine, exactly the bytes transferred.
        """
        timeline = self.timeline
        return {
            "name": self.name,
            "capacity": self.capacity,
            "busy_seconds": union_length((start, end) for start, end, _ in timeline),
            "busy_time": self.busy_time,
            "served_work": self.served_work,
            "timeline": timeline,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Advance all active jobs' remaining work up to the local clock."""
        now = self.sim.t
        dt = now - self._last_update
        if dt < 0:
            raise SimulationError(f"{self.name}: clock moved backwards")
        if dt > 0:
            total_rate = 0.0
            for job in self._active:
                job.remaining -= job.rate * dt
                # Rounding tolerance: dt is a difference of two clock
                # values, so its absolute error grows with the (local)
                # clock; at rate r that is ~r * now * eps work units. The
                # tolerance is at least its first term, so test that first.
                floor = 1e-9 * maximum(1.0, job.work)
                if job.remaining < -floor:
                    tol = floor + job.rate * (now + 1.0) * 1e-11
                    if job.remaining < -tol:
                        raise SimulationError(
                            f"{self.name}: job overshot completion by {-job.remaining!r}"
                        )
                job.remaining = maximum(job.remaining, 0.0)
                total_rate += job.rate
            self._phase_busy += (total_rate / self.capacity) * dt
            self._phase_served += total_rate * dt
            if total_rate > 0.0:
                frac = total_rate / self.capacity
                last = self._open[-1] if self._open else None
                if last and last[1] >= self._last_update - 1e-15 and abs(last[2] - frac) <= 1e-12:
                    self._open[-1] = (last[0], now, last[2])
                else:
                    self._open.append((self._last_update, now, frac))
        self._last_update = now

    def _water_fill(self) -> None:
        """Assign rates: each job gets min(demand, fair residual share)."""
        demand = 0.0  # summed in order (sum() may compensate)
        for job in self._active:
            demand += job.max_rate
        if demand <= self.capacity * (1.0 - 1e-9):
            # Every fair share below would exceed its job's demand by far
            # more than rounding: each job gets its demand, in any order.
            for job in self._active:
                job.rate = job.max_rate
            return
        jobs = sorted(self._active, key=lambda j: j.max_rate)
        remaining = self.capacity
        n = len(jobs)
        for i, job in enumerate(jobs):
            share = remaining / (n - i)
            job.rate = minimum(job.max_rate, share)
            remaining -= job.rate

    def _reallocate(self) -> None:
        """Recompute rates and (re)schedule the next completion event."""
        if self._completion_event is not None:
            self.sim.cancel(self._completion_event)
            self._completion_event = None
        finished: list[_Job] = []
        while True:
            # Retire jobs whose remaining work is (numerically) zero.
            done = [j for j in self._active if j.remaining <= 1e-12 * maximum(1.0, j.work)]
            if done:
                self._active = [j for j in self._active if j not in done]
                finished.extend(done)
                while self._queue and (
                    self.max_concurrent is None or len(self._active) < self.max_concurrent
                ):
                    job = self._queue.popleft()
                    self._active.append(job)
                    if job.on_start is not None:
                        job.on_start()
                continue
            if not self._active:
                break
            self._water_fill()
            t_next = reduce(minimum, [j.remaining / j.rate for j in self._active])
            if self.sim.t + t_next > self.sim.t:
                self._completion_event = self.sim.after(t_next, self._on_completion)
                break
            # Residual work too small for the clock to represent its
            # completion: snap those jobs to done and retire them now,
            # otherwise the completion event would fire at the current
            # time forever (dt = 0 -> no progress).
            for j in self._active:
                if j.remaining / j.rate <= t_next:
                    j.remaining = 0.0
        for job in finished:
            job.callback()

    def _on_completion(self) -> None:
        self._completion_event = None
        self._sync()
        self._reallocate()
