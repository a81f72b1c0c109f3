"""Discrete-event simulation of an accelerator-based HPC node.

This package is the hardware substrate for the GraphReduce reproduction.
The paper evaluates on a real NVIDIA K20c attached to a Xeon host over
PCIe; here we model the same machine with a discrete-event simulator:

* :mod:`repro.sim.engine` -- the event loop and simulated clock.
* :mod:`repro.sim.resources` -- shared rate resources (PCIe copy engines,
  the GPU SM pool) with water-filling bandwidth allocation and bounded
  concurrency, plus FIFO queueing.
* :mod:`repro.sim.stream` -- CUDA-stream semantics: operations issued to a
  stream execute in issue order; operations on different streams may
  overlap, bounded by the device's hardware queues (Hyper-Q).
* :mod:`repro.sim.specs` -- machine descriptions (a K20c-like device and a
  Xeon-E5-2670-like host) including every calibrated cost constant.
* :mod:`repro.sim.device` -- the simulated GPU: copy engines, SM pool,
  memory allocator and stream factory.
* :mod:`repro.sim.memory` -- device memory accounting with OOM errors.
* :mod:`repro.sim.transfer` -- models of the three CUDA host/device data
  exchange mechanisms compared in Figure 4 of the paper.
* :mod:`repro.sim.trace` -- operation timelines and memcpy/compute
  aggregation used to regenerate Figure 15.

Simulated time is completely decoupled from wall time: graph computation
runs eagerly in NumPy while the simulator accounts for when each transfer
and kernel would have started and finished on the modeled hardware.
"""

from repro.sim.engine import Simulator
from repro.sim.memory import DeviceMemoryAllocator, DeviceOOMError
from repro.sim.resources import FluidResource
from repro.sim.specs import (
    DeviceSpec, HostSpec, MachineSpec, K20C, XEON_E5_2670, default_machine,
)
from repro.sim.device import GPUDevice
from repro.sim.stream import Kernel, Memcpy, Stream
from repro.sim.trace import TraceRecorder

__all__ = [
    "Simulator", "FluidResource", "DeviceMemoryAllocator", "DeviceOOMError",
    "DeviceSpec", "HostSpec", "MachineSpec", "K20C", "XEON_E5_2670",
    "default_machine", "GPUDevice", "Stream", "Memcpy", "Kernel", "TraceRecorder",
]
