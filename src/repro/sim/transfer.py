"""Models of the three CUDA host/device data-exchange mechanisms.

Figure 4 of the paper compares, for sequential and random access to a
100M-element double array:

* **Explicit H2D** (``cudaMemcpy`` from pageable memory): a staged copy
  over PCIe (pageable copies bounce through a driver staging buffer, well
  below link bandwidth) followed by accesses at device-memory speed.
  Best for *random* access -- the data ends up in fast memory.
* **Pinned / UVA zero-copy**: loads/stores cross PCIe directly. With
  sequential access, memory-level parallelism and prefetching drive the
  link near peak, making it the best sequential mechanism; with random
  access every load is an individual PCIe round trip with bounded
  outstanding transactions -- the worst case.
* **Managed (Unified) memory** (CUDA 6): pages migrate on fault. Pays
  per-page fault handling on first touch, then runs at device speed.

These orderings (pinned best sequential / worst random; explicit best
random) are exactly the Section-3.2 motivation for GraphReduce mapping
random accesses to device memory via explicit transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.specs import DeviceSpec, LinkSpec

#: Recognized access patterns.
PATTERNS = ("sequential", "random")

#: Mechanisms compared in Figure 4.
MECHANISMS = ("explicit", "pinned", "managed")


@dataclass(frozen=True)
class TransferModel:
    """Analytic timing for the three mechanisms on a given device."""

    spec: DeviceSpec
    #: pinned zero-copy sequential efficiency (MLP + prefetch)
    pinned_seq_efficiency: float = 0.92
    #: outstanding zero-copy transactions the SMs can keep in flight
    pinned_outstanding: int = 32
    #: PCIe round-trip latency per zero-copy transaction, seconds
    pcie_latency: float = 1.0e-6
    #: managed-memory page size, bytes
    page_size: int = 4096
    #: per-page fault-handling overhead, seconds
    fault_overhead: float = 3.0e-6
    #: device-memory random access rate, accesses/s
    device_random_rate: float = 1.0e9

    # ------------------------------------------------------------------
    def _device_access_time(self, nbytes: int, n_accesses: int, pattern: str) -> float:
        if pattern == "sequential":
            return nbytes / self.spec.memory_bandwidth
        return n_accesses / self.device_random_rate

    def explicit_time(self, nbytes: int, elem_size: int, pattern: str) -> float:
        """Pageable cudaMemcpy (spec.pcie_bandwidth is the effective

        staged-copy rate) + on-device access."""
        self._check(pattern)
        copy = self.spec.memcpy_setup + nbytes / self.spec.pcie_bandwidth
        return copy + self._device_access_time(nbytes, nbytes // elem_size, pattern)

    def pinned_time(self, nbytes: int, elem_size: int, pattern: str) -> float:
        """Zero-copy access over the PCIe link at near-peak bandwidth."""
        self._check(pattern)
        if pattern == "sequential":
            return nbytes / (self.spec.pcie_peak_bandwidth * self.pinned_seq_efficiency)
        # Random: each access is a latency-bound round trip; MLP overlaps
        # up to ``pinned_outstanding`` of them.
        n_accesses = nbytes // elem_size
        return n_accesses * self.pcie_latency / self.pinned_outstanding

    def managed_time(self, nbytes: int, elem_size: int, pattern: str) -> float:
        """First-touch page migration + on-device access."""
        self._check(pattern)
        n_pages = -(-nbytes // self.page_size)
        migrate = n_pages * self.fault_overhead + nbytes / self.spec.pcie_peak_bandwidth
        return migrate + self._device_access_time(nbytes, nbytes // elem_size, pattern)

    # ------------------------------------------------------------------
    def time(self, mechanism: str, nbytes: int, elem_size: int, pattern: str) -> float:
        fn = {
            "explicit": self.explicit_time,
            "pinned": self.pinned_time,
            "managed": self.managed_time,
        }
        try:
            return fn[mechanism](nbytes, elem_size, pattern)
        except KeyError:
            raise ValueError(f"unknown mechanism {mechanism!r}") from None

    def throughput(self, mechanism: str, nbytes: int, elem_size: int, pattern: str) -> float:
        """Useful bytes per second for the whole exchange+access."""
        return nbytes / self.time(mechanism, nbytes, elem_size, pattern)

    def compare(self, n_elements: int, elem_size: int = 8) -> dict[str, dict[str, float]]:
        """Figure-4 table: pattern -> mechanism -> seconds."""
        nbytes = n_elements * elem_size
        return {
            pattern: {
                mech: self.time(mech, nbytes, elem_size, pattern)
                for mech in MECHANISMS
            }
            for pattern in PATTERNS
        }

    @staticmethod
    def _check(pattern: str) -> None:
        if pattern not in PATTERNS:
            raise ValueError(f"unknown access pattern {pattern!r}")


@dataclass(frozen=True)
class InterconnectModel:
    """Analytic device-to-device transfer timing on a multi-GPU node.

    Two routes, chosen by switch topology (:class:`LinkSpec`):

    * **peer**: both devices hang off the same PCIe switch, so the copy
      is a single peer DMA -- one link crossing at ``p2p_bandwidth``.
    * **host-staged**: the devices sit on different switches; the copy
      bounces through host DRAM as a D2H followed by an H2D, each a
      full ``cudaMemcpyAsync`` with its own setup and staged-copy rate.

    The multi-device scheduler uses :meth:`peer_capable` to decide how
    many link crossings each replication pair enqueues on the simulated
    streams.
    """

    device: DeviceSpec
    link: LinkSpec

    def peer_capable(self, a: int, b: int) -> bool:
        """True when devices ``a`` and ``b`` share a switch (and differ)."""
        radix = max(self.link.switch_radix, 1)
        return a != b and a // radix == b // radix
