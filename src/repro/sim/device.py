"""The simulated GPU: copy engines, SM pool, memory and streams.

Kepler-class devices have two DMA copy engines (one per PCIe direction),
so host-to-device and device-to-host transfers proceed full duplex, and
up to 32 hardware queues (Hyper-Q) feeding the SM pool. The GraphReduce
Data Movement Engine leans on both: concurrent shard transfers overlap
kernels, and spray streams keep all queues fed (Section 5.1).
"""

from __future__ import annotations

import itertools

from repro.sim.engine import SimulationError, Simulator
from repro.sim.memory import DeviceMemoryAllocator
from repro.sim.resources import FluidResource
from repro.sim.specs import DeviceSpec
from repro.sim.stream import Stream
from repro.sim.trace import TraceRecorder


class GPUDevice:
    """One simulated accelerator attached to the host over PCIe."""

    def __init__(
        self,
        sim: Simulator,
        spec: DeviceSpec | None = None,
        trace: TraceRecorder | None = None,
    ):
        self.sim = sim
        self.spec = spec or DeviceSpec()
        # Note: TraceRecorder has __len__, so an empty recorder is falsy
        # -- must compare against None, not truthiness.
        self.trace = trace if trace is not None else TraceRecorder()
        self.trace.sim = sim  # records in sim's phase-local time, folds with it
        sim.attach(self.trace)
        self.memory = DeviceMemoryAllocator(self.spec.memory_bytes)
        # One copy engine per direction: FIFO at link bandwidth.
        self._h2d = FluidResource(
            sim, self.spec.pcie_bandwidth, max_concurrent=1, name="h2d-engine"
        )
        self._d2h = FluidResource(
            sim, self.spec.pcie_bandwidth, max_concurrent=1, name="d2h-engine"
        )
        # SM pool: capacity normalized to 1.0 machine-seconds/second.
        self.sm_pool = FluidResource(
            sim, 1.0, max_concurrent=self.spec.hyperq, name="sm-pool"
        )
        self.ssd: FluidResource | None = None  # host flash, when attached
        self._streams: list[Stream] = []
        self._stream_ids = itertools.count()

    # ------------------------------------------------------------------
    def copy_engine(self, direction: str) -> FluidResource:
        if direction == "h2d":
            return self._h2d
        if direction == "d2h":
            return self._d2h
        raise ValueError(f"unknown direction {direction!r}")

    def create_stream(self, name: str | None = None) -> Stream:
        """Create a new stream (the CUDA default-stream caveats do not
        apply: every stream here is a non-blocking stream)."""
        if name is None:
            name = f"stream{next(self._stream_ids)}"
        stream = Stream(self, name)
        self._streams.append(stream)
        return stream

    @property
    def streams(self) -> tuple[Stream, ...]:
        return tuple(self._streams)

    def synchronize(self, tape=None, inputs=None) -> tuple | None:
        """Run the simulator until every stream has drained

        (cudaDeviceSynchronize). Simulated time advances accordingly, and
        the drained phase folds into the global clock: returns its
        record for :meth:`Simulator.replay`. A stream still waiting once
        no event is left waits on an event nobody will record: raises
        :class:`SimulationError` naming it. A ``tape`` recorder records
        the phase; a ``tape`` with its ``inputs`` folds an unissued phase
        instead (:meth:`Simulator.play`).
        """
        if inputs is not None:
            return self.sim.play(tape, inputs)
        self.sim.run()
        blocked = [f"{s.name} ({s.current.label})" for s in self._streams if not s.idle]
        if blocked:
            raise SimulationError(
                "synchronize: streams blocked forever: " + ", ".join(blocked)
            )
        return self.sim.fold(tape)

    def engine_snapshots(self) -> dict[str, dict]:
        """Per-engine occupancy data (see FluidResource.profile_snapshot),
        keyed by profiler name."""
        engines = {"h2d": self._h2d, "d2h": self._d2h, "sm": self.sm_pool, "ssd": self.ssd}
        return {name: res.profile_snapshot() for name, res in engines.items() if res is not None}

    # ------------------------------------------------------------------
    def transfer_time(self, nbytes: int) -> float:
        """Analytic solo-transfer duration (setup + bytes over the link)."""
        return self.spec.memcpy_setup + nbytes / self.spec.pcie_bandwidth

    def kernel_time(self, items: int, kind: str = "edge_seq") -> float:
        """Analytic solo-kernel duration including launch overhead."""
        work = items / self.spec.kernel_rate(kind)
        return self.spec.kernel_launch_overhead + max(work, self.spec.kernel_min_time)
