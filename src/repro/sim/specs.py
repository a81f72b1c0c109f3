"""Machine descriptions and calibrated cost constants.

The paper's testbed is a 16-core Xeon E5-2670 host (32 GB DDR3) with one
NVIDIA K20c (13 SMX, 4.8 GB usable GDDR5) over PCIe gen2 x16, CUDA 6.5.

The reproduction scales the machine *and* the datasets down by the same
factor ``SCALE`` (default 64): device memory is 4.8 GB / 64 = 75 MiB and
the Table-1 stand-in graphs carry ~1/64 of the paper's edges, so the
in-memory / out-of-memory classification and all byte-ratio-driven
behaviour match the paper while NumPy execution stays laptop-friendly.
Bandwidths, launch overheads and per-item rates are *not* scaled -- they
are physical properties of the modeled parts -- so simulated times come
out roughly 1/SCALE of the paper's wall times and every *ratio* (speedup,
memcpy fraction, optimization benefit) is directly comparable.

Every constant that feeds a cost model lives here so calibration is one
diff away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Down-scaling factor applied to device memory and dataset sizes.
SCALE = 64

#: The paper counts ~54 bytes per edge for its in-memory sizes (float
#: states, CSC+CSR copies, CUDA-aligned temporaries); the reproduction's
#: lean NumPy layout stores ~20 bytes per edge. Device memory is reduced
#: by the same ratio so Table 1's in-memory / out-of-memory classification
#: is preserved at reproduction scale.
BYTE_DENSITY_RATIO = 2.75


@dataclass(frozen=True)
class DeviceSpec:
    """A discrete accelerator (GPU) model."""

    name: str = "K20c-sim"
    #: usable global memory in bytes (paper: 4.8 GB, scaled by SCALE and
    #: by BYTE_DENSITY_RATIO -- see module docstring)
    memory_bytes: int = int(4.8 * 2**30 / SCALE / BYTE_DENSITY_RATIO)
    #: number of SMX multiprocessors (K20c: 13)
    sm_count: int = 13
    #: hardware queues -- concurrent kernels (Kepler Hyper-Q: 32)
    hyperq: int = 32
    #: PCIe gen2 x16 peak per direction, bytes/s -- what pinned zero-copy
    #: access approaches (Figure 4)
    pcie_peak_bandwidth: float = 6.0e9
    #: effective copy-engine bandwidth for explicit transfers from
    #: pageable host memory (the mechanism GraphReduce chose in
    #: Section 3.2): the driver bounces through a staging buffer, cutting
    #: throughput well below peak
    pcie_bandwidth: float = 3.3e9
    #: per-cudaMemcpyAsync driver/launch overhead, seconds
    memcpy_setup: float = 10e-6
    #: per-kernel launch overhead, seconds
    kernel_launch_overhead: float = 6e-6
    #: floor on a kernel's solo execution time (one "wave"), seconds
    kernel_min_time: float = 4e-6
    #: device memory bandwidth, bytes/s (K20c GDDR5 ~208 GB/s peak)
    memory_bandwidth: float = 150e9
    #: throughput for edge-centric phases with coalesced/sequential edge
    #: access and random (but on-device) vertex access, edges/s
    edge_rate_seq: float = 2.0e9
    #: throughput when edge access itself is random, edges/s
    edge_rate_random: float = 0.6e9
    #: throughput for vertex-centric phases (apply/gatherReduce), items/s
    vertex_rate: float = 2.0e9

    def kernel_rate(self, kind: str) -> float:
        """Items/second for a saturating kernel of the given kind."""
        rates = {
            "edge_seq": self.edge_rate_seq,
            "edge_random": self.edge_rate_random,
            "vertex": self.vertex_rate,
        }
        try:
            return rates[kind]
        except KeyError:
            raise ValueError(f"unknown kernel kind {kind!r}") from None


@dataclass(frozen=True)
class HostSpec:
    """The CPU host the accelerator is attached to."""

    name: str = "XeonE5-2670-sim"
    cores: int = 16
    #: host DRAM capacity, bytes (paper: 32 GB, scaled)
    memory_bytes: int = int(32 * 2**30) // SCALE
    #: peak DRAM bandwidth, bytes/s (4-channel DDR3-1600)
    memory_bandwidth: float = 51.2e9
    #: achievable multicore sequential streaming bandwidth, bytes/s
    stream_bandwidth: float = 25.0e9
    #: aggregate random-access rate across cores, accesses/s
    random_access_rate: float = 160e6
    #: aggregate scalar op throughput for graph kernels, ops/s
    compute_rate: float = 8.0e9
    #: SSD sequential read bandwidth, bytes/s (SATA-era drive, as in
    #: GraphChi's original target platform; used when the host memory
    #: spills to storage -- the paper's future-work item 2)
    ssd_bandwidth: float = 500e6
    #: concurrent requests the SSD serves at full rate
    ssd_queue_depth: int = 4


@dataclass(frozen=True)
class LinkSpec:
    """The inter-device fabric of a multi-accelerator node.

    The paper's testbed has one K20c, so this models its natural
    extension: a PCIe-gen2 switch hierarchy where devices hanging off
    the same switch can DMA peer-to-peer (one link crossing), while
    devices on different switches must stage through host memory (two
    crossings through the root complex).
    """

    name: str = "PCIe-gen2-switch"
    #: devices per switch; pairs within the same switch use peer DMA
    switch_radix: int = 4
    #: effective peer-to-peer DMA bandwidth, bytes/s (slightly below
    #: the 6 GB/s link peak; no host staging buffer in the path)
    p2p_bandwidth: float = 5.0e9
    #: per-peer-copy setup overhead, seconds (cheaper than a host-staged
    #: pair of cudaMemcpyAsync calls)
    p2p_setup: float = 8e-6


@dataclass(frozen=True)
class MachineSpec:
    """One heterogeneous node: host + attached accelerator."""

    device: DeviceSpec = field(default_factory=DeviceSpec)
    host: HostSpec = field(default_factory=HostSpec)
    #: inter-device fabric for multi-accelerator configurations
    link: LinkSpec = field(default_factory=LinkSpec)


#: The paper's GPU at reproduction scale.
K20C = DeviceSpec()

#: The paper's host at reproduction scale.
XEON_E5_2670 = HostSpec()


def default_machine() -> MachineSpec:
    """The evaluation platform of Section 6.1 (scaled by ``SCALE``)."""
    return MachineSpec(device=K20C, host=XEON_E5_2670)
