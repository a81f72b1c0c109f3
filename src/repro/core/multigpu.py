"""Multi-device GraphReduce scheduler (the paper's future work, Section 8).

Scales the single-device engine to N simulated accelerators on one
host. Shard ownership is a total, single-owner assignment
(:class:`OwnershipMap`): each device owns a contiguous block of shards
for the whole run, so edge data never migrates and each device's vertex
intervals form one contiguous range.

The resident vertex arrays are logically replicated, but the
iteration-end exchange is *sparse*: each producer device publishes only
the vertices **it owns that changed this iteration** (value + index),
never the full array, and never other devices' changes (the legacy
design all-gathered every changed vertex from every device to every
device, an N^2 blow-up of redundant bytes). Two frontier policies
govern what rides along:

* ``replicated`` -- each producer ships the full frontier bitmap with
  its changed values, keeping complete bitmaps on every device (the
  classic multi-GPU GAS design).
* ``partitioned`` -- a producer ships consumer ``e`` only the changed
  vertices ``e`` actually reads across the ownership boundary
  (``boundary_matrix[(e, d)]``), plus that pair's boundary bits.

Transfer routing follows the node's switch topology
(:class:`repro.sim.specs.LinkSpec` via
:class:`repro.sim.transfer.InterconnectModel`): same-switch pairs use a
single peer-DMA link crossing; cross-switch pairs stage through host
DRAM as a D2H + H2D pair. Both routes are enqueued on the simulated
streams, so the scaling curve reflects the topology.

Semantics are exact: one shared :class:`ComputeEngine` executes every
shard, so vertex values, iteration counts, and convergence are
bit-identical regardless of device count or frontier policy -- only the
performance plane (sim time, transfer bytes) changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import GASProgram
from repro.core.compute import ComputeEngine
from repro.core.frontier import FrontierManager
from repro.core.fusion import build_plan
from repro.core.movement import DataMovementEngine, MovementConfig
from repro.core.partition import IDX_BYTES, PartitionEngine
from repro.core.runtime import (
    GraphReduce,
    GraphReduceOptions,
    RuntimeContext,
    iteration_limit,
)
from repro.graph.edgelist import EdgeList
from repro.sim.device import GPUDevice
from repro.sim.engine import Simulator
from repro.sim.specs import MachineSpec, default_machine
from repro.sim.trace import TraceRecorder
from repro.sim.transfer import InterconnectModel


#: Recognized frontier exchange policies.
FRONTIER_POLICIES = ("replicated", "partitioned")


def check_frontier_policy(policy: str) -> str:
    if policy not in FRONTIER_POLICIES:
        raise ValueError(
            f"unknown frontier_policy {policy!r}; expected one of "
            f"{FRONTIER_POLICIES}"
        )
    return policy


@dataclass(frozen=True)
class OwnershipMap:
    """A total shard -> owner assignment (every shard, exactly one owner).

    ``owner_of[i]`` is the owner of shard ``i``. Owners are dense ids
    ``0..num_owners-1``; an owner may end up with zero shards only when
    there are more owners than shards.
    """

    num_owners: int
    owner_of: tuple

    @classmethod
    def contiguous(cls, num_partitions: int, num_owners: int) -> "OwnershipMap":
        """Block assignment: owner ``w`` gets a contiguous run of shards,
        so its vertex intervals are contiguous too (shard intervals are
        sorted)."""
        if num_owners < 1:
            raise ValueError(f"num_owners must be >= 1, got {num_owners!r}")
        num_owners = min(num_owners, max(num_partitions, 1))
        bounds = np.linspace(0, num_partitions, num_owners + 1).astype(np.int64)
        owner_of = np.repeat(np.arange(num_owners), np.diff(bounds))
        return cls(num_owners=num_owners, owner_of=tuple(int(o) for o in owner_of))

    def shards_of(self, owner: int) -> list[int]:
        return [i for i, o in enumerate(self.owner_of) if o == owner]

    def validate(self) -> None:
        """Every shard has exactly one owner in ``[0, num_owners)``."""
        if self.num_owners < 1:
            raise ValueError("ownership needs at least one owner")
        for i, o in enumerate(self.owner_of):
            if not isinstance(o, int) or not (0 <= o < self.num_owners):
                raise ValueError(
                    f"shard {i} has invalid owner {o!r} "
                    f"(num_owners={self.num_owners})"
                )


def owned_vertex_mask(sharded, ownership: OwnershipMap, owner: int) -> np.ndarray:
    """Bool mask of the vertices inside ``owner``'s shard intervals."""
    mask = np.zeros(sharded.num_vertices, dtype=bool)
    for i in ownership.shards_of(owner):
        s = sharded.shards[i]
        mask[s.start : s.stop] = True
    return mask


def boundary_matrix(sharded, ownership: OwnershipMap) -> dict:
    """Pairwise boundary sets: ``(consumer, producer) -> vertex ids``.

    ``matrix[(c, p)]`` holds the sorted vertices owned by ``p`` that
    consumer ``c`` reads -- the CSC source vertices of ``c``'s shards
    that fall inside ``p``'s intervals -- which is the exact vertex set a
    partitioned-frontier exchange from ``p`` to ``c`` must cover. Pairs
    with no crossing edge and the diagonal (an owner never ships to
    itself) are absent.
    """
    owners = range(ownership.num_owners)
    owned = [owned_vertex_mask(sharded, ownership, w) for w in owners]
    reads = [np.zeros(sharded.num_vertices, dtype=bool) for _ in owners]
    for shard in sharded.shards:
        src = shard.csc.indices
        if len(src):
            reads[ownership.owner_of[shard.index]][src] = True
    matrix = {}
    for c in owners:
        for p in owners:
            if c != p:
                vids = np.flatnonzero(reads[c] & owned[p])
                if len(vids):
                    matrix[(c, p)] = vids
    return matrix


@dataclass
class DeviceReport:
    """Per-device accounting for one multi-device run."""

    device: int
    owned_shards: int
    owned_vertices: int
    #: replication bytes this device produced (sent to peers/host)
    bytes_sent: int = 0
    #: replication bytes this device ingested
    bytes_received: int = 0


@dataclass
class MultiGPUResult:
    vertex_values: np.ndarray
    iterations: int
    converged: bool
    sim_time: float
    num_devices: int
    num_partitions: int
    frontier_policy: str
    #: summed transfer time across all devices
    memcpy_time: float
    #: total vertex-replication traffic, bytes (sum over ordered pairs)
    replication_bytes: int
    #: replication bytes that moved over peer DMA (same-switch pairs)
    p2p_bytes: int
    #: replication bytes that staged through host DRAM (cross-switch)
    host_staged_bytes: int
    per_device: list = field(default_factory=list)


class MultiGPUGraphReduce:
    """GraphReduce across ``num_devices`` simulated accelerators."""

    def __init__(
        self,
        edges: EdgeList,
        num_devices: int = 2,
        machine: MachineSpec | None = None,
        options: GraphReduceOptions | None = None,
        frontier_policy: str = "replicated",
    ):
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices!r}")
        self.edges = edges
        self.num_devices = num_devices
        self.machine = machine or default_machine()
        self.options = options or GraphReduceOptions()
        self.frontier_policy = check_frontier_policy(frontier_policy)

    def run(self, program: GASProgram, max_iterations: int | None = None) -> MultiGPUResult:
        opts = self.options
        limit = iteration_limit(max_iterations, opts)
        program.validate()
        edges = self.edges
        if program.needs_weights and edges.weights is None:
            edges = edges.with_unit_weights()
        ctx = RuntimeContext(edges)
        with_weights = program.needs_weights
        with_state = program.edge_dtype is not None

        resident_bytes = GraphReduce._resident_bytes(program, edges.num_vertices)
        p_per_device = opts.num_partitions or PartitionEngine.choose_num_partitions(
            edges,
            self.machine.device.memory_bytes,
            with_weights,
            with_state,
            resident_bytes,
        )
        # At least one shard per device.
        p = max(p_per_device, self.num_devices)
        sharded = PartitionEngine().partition(edges, p, opts.partition_logic)

        ownership = OwnershipMap.contiguous(p, self.num_devices)
        ownership.validate()
        owner = ownership.owner_of
        owned_masks = [
            owned_vertex_mask(sharded, ownership, d)
            for d in range(self.num_devices)
        ]
        partitioned = self.frontier_policy == "partitioned"
        pair_vids = boundary_matrix(sharded, ownership) if partitioned else {}

        sim = Simulator()
        devices = [
            GPUDevice(sim, self.machine.device, TraceRecorder())
            for _ in range(self.num_devices)
        ]
        movements = [
            DataMovementEngine(
                dev,
                sharded,
                MovementConfig(async_streams=opts.async_streams, spray=opts.spray),
                with_weights,
                with_state,
            )
            for dev in devices
        ]
        resident = GraphReduce._resident_buffers(program, edges.num_vertices)
        for movement in movements:
            movement.upload_resident(resident)  # replicated vertex arrays
            movement.reserve_stage_slots()

        frontier = FrontierManager(
            sharded, np.asarray(program.init_frontier(ctx), dtype=bool)
        )
        compute = ComputeEngine(sharded, program, ctx, frontier)
        plan = build_plan(program, optimized=opts.fusion, fuse_gather=opts.fuse_gather)
        interconnect = InterconnectModel(self.machine.device, self.machine.link)

        reports = [
            DeviceReport(
                device=d,
                owned_shards=len(ownership.shards_of(d)),
                owned_vertices=int(owned_masks[d].sum()),
            )
            for d in range(self.num_devices)
        ]
        vdt = np.dtype(program.vertex_dtype).itemsize
        full_bitmap_bytes = edges.num_vertices // 8 + 1
        replication_bytes = 0
        p2p_bytes = 0
        host_staged_bytes = 0
        converged = False
        iteration = 0
        while iteration < limit:
            if frontier.size == 0:
                converged = True
                break
            if program.converged(ctx, iteration, frontier.size):
                converged = True
                break
            compute.begin_iteration(iteration)
            for group in plan:
                shards, skipped = GraphReduce._select_shards(group, sharded, frontier, opts)
                per_device: list[list] = [[] for _ in range(self.num_devices)]
                for shard in shards:
                    per_device[owner[shard.index]].append(shard)
                for d, dev_shards in enumerate(per_device):
                    movements[d].run_phase(
                        group,
                        dev_shards,
                        skipped if d == 0 else 0,
                        lambda shard, g=group: compute.run_group(
                            g.phases, shard, count_full=not opts.frontier_skipping
                        ),
                        barrier=False,  # devices proceed concurrently
                    )
                for dev in devices:
                    dev.synchronize()  # BSP barrier across all devices
            # Sparse replication: each producer device publishes only the
            # vertices it owns that changed this iteration. Routing and
            # payload per ordered (producer, consumer) pair follow the
            # switch topology and the frontier policy.
            changed = frontier.changed
            for d in range(self.num_devices):
                changed_owned = int(np.count_nonzero(changed[owned_masks[d]]))
                for e in range(self.num_devices):
                    if e == d:
                        continue
                    if partitioned:
                        vids = pair_vids.get((e, d))
                        if vids is None:
                            continue  # no edge crosses this pair
                        k = int(np.count_nonzero(changed[vids]))
                        payload = k * (vdt + IDX_BYTES) + (len(vids) + 7) // 8
                    else:
                        payload = (
                            changed_owned * (vdt + IDX_BYTES) + full_bitmap_bytes
                        )
                    if interconnect.peer_capable(d, e):
                        # One link crossing: peer DMA from d straight
                        # into e's memory.
                        movements[d].streams[0].memcpy_d2h(
                            payload, label="replicate-peer"
                        )
                        p2p_bytes += payload
                    else:
                        # Two crossings through host DRAM.
                        movements[d].streams[0].memcpy_d2h(
                            payload, label="replicate-out"
                        )
                        movements[e].streams[0].memcpy_h2d(
                            payload, label="replicate-in"
                        )
                        host_staged_bytes += payload
                    replication_bytes += payload
                    reports[d].bytes_sent += payload
                    reports[e].bytes_received += payload
            for dev in devices:
                dev.synchronize()
            frontier.advance()
            iteration += 1
        else:
            converged = frontier.size == 0

        return MultiGPUResult(
            vertex_values=compute.vertex_values,
            iterations=iteration,
            converged=converged,
            sim_time=sim.now,
            num_devices=self.num_devices,
            num_partitions=sharded.num_partitions,
            frontier_policy=self.frontier_policy,
            memcpy_time=sum(d.trace.memcpy_time() for d in devices),
            replication_bytes=replication_bytes,
            p2p_bytes=p2p_bytes,
            host_staged_bytes=host_staged_bytes,
            per_device=reports,
        )
