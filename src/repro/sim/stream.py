"""CUDA-stream semantics on the simulated device.

A :class:`Stream` is an ordered queue of operations; operations on one
stream execute strictly in issue order, while operations on different
streams overlap subject to resource limits (copy engines, Hyper-Q slots).
This mirrors the CUDA execution model the paper's Data Movement Engine is
built on (Sections 4.3 and 5.1).

Supported operations:

* :class:`Memcpy` -- an async transfer; pays a per-call driver setup
  latency, then occupies the direction's copy engine FIFO at link
  bandwidth. Spray streams win precisely because setups on *different*
  streams overlap with in-flight DMA, while on a single stream they
  serialize.
* :class:`Kernel` -- pays a launch overhead then runs on the SM pool.
  Work is expressed in items (edges or vertices); a kernel whose grid is
  too small to fill the machine consumes only its occupancy fraction,
  letting concurrent kernels from other shards use the idle SMs
  (the paper's compute-compute scheme).
* :class:`Callback` -- host-side function, zero simulated time.
* :class:`EventRecord` / :class:`EventWait` -- cross-stream ordering.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.sim.tape import maximum, minimum, whole

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.device import GPUDevice


class StreamEvent:
    """A CUDA event: recorded once, awaited by any number of streams."""

    def __init__(self, name: str = "event"):
        self.name = name
        self.recorded = False
        self._waiters: list[Callable[[], None]] = []

    def _fire(self) -> None:
        self.recorded = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter()

    def _add_waiter(self, callback: Callable[[], None]) -> None:
        if self.recorded:
            callback()
        else:
            self._waiters.append(callback)


class _Op:
    """Base operation; subclasses implement :meth:`start`."""

    label = ""

    def start(self, device: "GPUDevice", stream: "Stream", done: Callable[[], None]) -> None:
        raise NotImplementedError


class Memcpy(_Op):
    """Asynchronous host<->device copy of ``nbytes``."""

    __slots__ = ("nbytes", "direction", "label")

    def __init__(self, nbytes: int, direction: str = "h2d", label: str = ""):
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"direction must be 'h2d' or 'd2h', got {direction!r}")
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        self.nbytes = int(nbytes)
        self.direction = direction
        self.label = label

    def start(self, device, stream, done):
        engine = device.copy_engine(self.direction)
        spec = device.spec
        # Trace the *DMA service* interval (from entering the copy
        # engine, not from issue), so "memcpy time" counts transfer
        # occupancy rather than queueing behind other streams.
        sim = device.sim
        state = {"t_service": sim.t}

        def mark_service():
            state["t_service"] = sim.t

        def finish():
            device.trace.record(
                state["t_service"], sim.t, self.direction, stream.name, self.nbytes, self.label
            )
            done()

        def enqueue_dma():
            engine.submit(
                float(self.nbytes), finish, max_rate=spec.pcie_bandwidth, on_start=mark_service
            )

        sim.after(spec.memcpy_setup, enqueue_dma)


class Kernel(_Op):
    """A device kernel over ``items`` work items of a given ``kind``.

    ``work_seconds`` overrides the items/rate cost for fused kernels
    whose phases mix edge- and vertex-centric rates; ``items`` then only
    sizes the grid (occupancy). ``occupancy`` pins the fraction of the
    machine the grid can fill (e.g. threads/machine-width for a GEMM
    stripe); when omitted it is inferred from the work volume.
    """

    __slots__ = ("items", "kind", "label", "work_seconds", "occupancy")

    def __init__(
        self,
        items: int,
        kind: str = "edge_seq",
        label: str = "",
        work_seconds: float | None = None,
        occupancy: float | None = None,
    ):
        if items < 0:
            raise ValueError(f"negative work items {items!r}")
        if work_seconds is not None and not 0 <= work_seconds < math.inf:
            raise ValueError(f"work_seconds must be finite and non-negative, got {work_seconds!r}")
        if occupancy is not None and not (0 < occupancy <= 1):
            raise ValueError(f"occupancy must be in (0, 1], got {occupancy!r}")
        self.items = whole(items)
        self.kind = kind
        self.label = label
        self.work_seconds = work_seconds
        self.occupancy = occupancy

    def start(self, device, stream, done):
        spec = device.spec
        if self.work_seconds is None:
            rate = spec.kernel_rate(self.kind)
            # Machine-seconds of work; the SM pool has capacity 1.0.
            work = self.items / rate
        else:
            spec.kernel_rate(self.kind)  # still validate the kind
            work = self.work_seconds
        # Occupancy: fraction of the machine this grid can fill. A kernel
        # smaller than one full wave (kernel_min_time of work) leaves SMs
        # idle for concurrent kernels; solo it still takes kernel_min_time.
        if self.occupancy is not None:
            occupancy = self.occupancy
        else:
            occupancy = minimum(1.0, maximum(work / spec.kernel_min_time, 1e-6))
        sim = device.sim
        t_issue = sim.t
        # The SM-service window (entry into the pool after launch
        # overhead and any Hyper-Q queueing) feeds the occupancy
        # profiler; the full issue-to-completion window stays the
        # interval's [start, end] so kernel_time semantics are unchanged.
        state = {"t_service": t_issue}

        def mark_service():
            state["t_service"] = sim.t

        def finish():
            device.trace.record(
                t_issue, sim.t, "kernel", stream.name, self.items, self.label,
                service_start=state["t_service"],
            )
            done()

        def launch():
            device.sm_pool.submit(work, finish, max_rate=occupancy, on_start=mark_service)

        sim.after(spec.kernel_launch_overhead, launch)


class ResourceOp(_Op):
    """Occupy an arbitrary shared :class:`FluidResource` for ``work``

    units -- e.g. an SSD read ahead of an H2D copy when the host memory
    spilled to storage. Contends with every other stream using the same
    resource. Recorded under the ``storage`` trace category when
    ``record`` is set.
    """

    __slots__ = ("resource", "work", "max_rate", "label", "record")

    def __init__(self, resource, work: float, max_rate: float | None = None,
                 label: str = "", record: bool = True):
        if work < 0:
            raise ValueError(f"negative work {work!r}")
        self.resource = resource
        self.work = float(work)
        self.max_rate = max_rate
        self.label = label
        self.record = record

    def start(self, device, stream, done):
        sim = device.sim
        t_issue = sim.t

        def finish():
            if self.record:
                device.trace.record(t_issue, sim.t, "storage", stream.name, self.work, self.label)
            done()

        self.resource.submit(self.work, finish, max_rate=self.max_rate)


class Callback(_Op):
    """Host callback: runs instantly when reached in stream order."""

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable[[], None], label: str = ""):
        self.fn = fn
        self.label = label

    def start(self, device, stream, done):
        self.fn()
        done()


class EventRecord(_Op):
    __slots__ = ("event", "label")

    def __init__(self, event: StreamEvent):
        self.event = event
        self.label = f"record:{event.name}"

    def start(self, device, stream, done):
        self.event._fire()
        done()


class EventWait(_Op):
    __slots__ = ("event", "label")

    def __init__(self, event: StreamEvent):
        self.event = event
        self.label = f"wait:{event.name}"

    def start(self, device, stream, done):
        self.event._add_waiter(done)


class Stream:
    """An in-order operation queue on a :class:`~repro.sim.device.GPUDevice`."""

    def __init__(self, device: "GPUDevice", name: str):
        self._device = weakref.ref(device)  # no cycle: a run's device dies with it
        self.name = name
        self._queue: deque[_Op] = deque()
        #: the operation in progress (None when the stream is idle)
        self.current: _Op | None = None

    # ------------------------------------------------------------------
    def enqueue(self, op: _Op) -> "Stream":
        """Append an operation; returns self for chaining."""
        self._queue.append(op)
        if self.current is None:
            self._dispatch_next()
        return self

    def memcpy_h2d(self, nbytes: int, label: str = "") -> "Stream":
        return self.enqueue(Memcpy(nbytes, "h2d", label))

    def memcpy_d2h(self, nbytes: int, label: str = "") -> "Stream":
        return self.enqueue(Memcpy(nbytes, "d2h", label))

    def kernel(self, items: int, kind: str = "edge_seq", label: str = "") -> "Stream":
        return self.enqueue(Kernel(items, kind, label))

    def callback(self, fn: Callable[[], None], label: str = "") -> "Stream":
        return self.enqueue(Callback(fn, label))

    def record_event(self, event: StreamEvent) -> "Stream":
        return self.enqueue(EventRecord(event))

    def wait_event(self, event: StreamEvent) -> "Stream":
        return self.enqueue(EventWait(event))

    device = property(lambda self: self._device())

    @property
    def idle(self) -> bool:
        return self.current is None and not self._queue

    # ------------------------------------------------------------------
    def _dispatch_next(self) -> None:
        if not self._queue:
            self.current = None
            return
        op = self.current = self._queue.popleft()
        op.start(self._device(), self, self._dispatch_next)
