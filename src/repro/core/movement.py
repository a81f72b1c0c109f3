"""The Data Movement Engine (Sections 4.3 and 5.1).

Owns the simulated device's streams and turns each phase of each
iteration into asynchronous transfer + kernel schedules:

* **Static Stream Creator** -- K long-lived streams process shards
  round-robin, overlapping one shard's H2D with another's kernel
  (compute-transfer) and concurrent sub-saturating kernels
  (compute-compute). K comes from the paper's Equations (1)/(2):
  ``K * (V/P) + K * B <= M`` with ``B = alpha*|E| + beta*|V|`` the
  per-shard streaming-buffer footprint.
* **Spray Stream Creator** -- a shard is many sub-arrays, each needing
  its own deep copy; spraying them over dynamically created streams
  overlaps the per-``cudaMemcpyAsync`` driver setup with in-flight DMA
  and keeps the hardware queues busy (Figure 11(b)).
* **Double buffering** falls out of K >= 2 staged shard slots.
* Buffer characterization (Section 3.2): resident read-only buffers are
  uploaded once and never copied back; mutable streamed buffers are the
  only D2H traffic.

In the *unoptimized* configuration everything collapses to one stream
with synchronous full-shard copies -- the Figure 15 baseline.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.compute import WorkItems
from repro.core.fusion import PhaseGroup
from repro.core.partition import Shard, ShardedGraph
from repro.obs.span import NULL_OBSERVER
from repro.sim.device import GPUDevice
from repro.sim.resources import FluidResource
from repro.sim.stream import Kernel, Memcpy, ResourceOp, StreamEvent
from repro.sim.tape import TapeRecorder


@dataclass
class MovementConfig:
    """Optimization switches (each is one Section-5 technique)."""

    async_streams: bool = True  # K > 1 streams, asynchronous execution
    spray: bool = True          # per-sub-array deep copies on spray streams
    max_concurrent_shards: int = 32  # the paper's K <= 32 bound on Kepler


@dataclass
class MovementStats:
    """Counters the benchmarks report (Figure 15's memcpy accounting

    comes from the device trace; these are structural counts)."""

    h2d_count: int = 0
    d2h_count: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    spray_batches: int = 0
    spray_copies: int = 0
    kernel_launches: int = 0
    kernel_items: int = 0
    shards_processed: int = 0
    shards_skipped: int = 0
    phase_barriers: int = 0
    per_group_bytes: dict = field(default_factory=dict)


#: the MovementStats counters a phase's copy and kernel issue moves, and
#: the obs counter each feeds
_ISSUE_COUNTERS = {
    "h2d_bytes": "movement.h2d.bytes", "h2d_count": "movement.h2d.copies",
    "d2h_bytes": "movement.d2h.bytes", "d2h_count": "movement.d2h.copies",
    "spray_batches": "movement.spray.batches", "spray_copies": "movement.spray.copies",
    "kernel_launches": "movement.kernel.launches", "kernel_items": "movement.kernel.items",
}
#: bounds on a book's phase tapes, in all and per skeleton; ``TAPES = 0``
#: runs every phase through the event loop, the tests' oracle
TAPES = 1024
TAPE_VARIANTS = 32


def optimal_concurrent_shards(
    device_memory: int,
    resident_bytes: int,
    interval_bytes: int,
    shard_bytes: int,
    num_partitions: int,
    hardware_limit: int = 32,
) -> int:
    """Equations (1)/(2): the number of concurrently staged shards.

    ``K * (V/P) + K * B <= M_available`` where ``B`` is the streaming
    buffer size of the largest shard and ``V/P`` its interval's share of
    vertex-indexed staging. Clamped to [1, min(P, hardware_limit)].
    """
    avail = device_memory - resident_bytes
    per_slot = interval_bytes + shard_bytes
    if per_slot <= 0:
        return min(num_partitions, hardware_limit) or 1
    k = avail // per_slot
    return int(max(1, min(k, num_partitions, hardware_limit)))


class HostPrefetcher:
    """Budgeted shard residency for out-of-core runs.

    The host-side mirror of this module's device streaming: shards live
    in an on-disk :class:`~repro.core.shardstore.ShardStore` (one file,
    mapped once) and are acquired into a cache whose capacity comes
    from the same Eq. (1)/(2) resident-set formula, applied to a *host*
    memory budget instead of device memory. A fault is a lookup of the
    store's memoized views plus a residency change, so residency is
    about pages, not objects: evicting a shard ``madvise(MADV_DONTNEED)``s
    its page range (:meth:`ShardStore.release`), which is what makes the
    budget bound RSS. With ``advise`` on, the shards coming up in the
    runtime's schedule get ``MADV_WILLNEED`` so the OS reads them in
    while the current shard computes; no thread of ours is involved.

    The victim is the most recently acquired shard (MRU). Every phase
    scans its shards in ascending order, and for a cyclic scan longer
    than the cache MRU is the Belady victim: it keeps ``capacity - 1``
    shards resident from one pass to the next, where LRU keeps none.

    Frontier awareness falls out of the integration point: the runtime
    calls :meth:`schedule` with exactly the shards the FrontierManager
    selected for a phase that streams edges, so skipped shards -- and
    every shard of a phase reading only vertex arrays or the edge
    update array -- are neither hinted nor faulted in: the paper's
    shard-skip and phase-elimination optimizations applied to I/O.

    Everything here is wall-clock only and invisible to the simulated
    timeline. One lock guards all state, so :meth:`snapshot` may be
    called from any thread.
    """

    def __init__(self, store, capacity: int, obs=None, unit_weights: bool = False, advise: bool = True):
        self.store = store
        self.capacity = max(1, int(capacity))
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.unit_weights = unit_weights
        self.advise = advise
        self.hits = 0
        self.faults = 0
        self.evictions = 0
        self.bytes_loaded = 0
        #: bytes handed back to the OS by eviction and shutdown
        self.released_bytes = 0
        self._cache: "OrderedDict[int, object]" = OrderedDict()
        self._order: list[int] = []
        self._pos: dict[int, int] = {}
        self._hinted = 0
        self._lock = threading.Lock()

    # -- scheduling ----------------------------------------------------
    def schedule(self, shard_ids) -> None:
        """Set the phase's shard order and hint its first shards."""
        with self._lock:
            self._order = list(shard_ids)
            self._pos = {idx: i for i, idx in enumerate(self._order)}
            self._hinted = 0
            self._hint_from(0)

    def _hint_from(self, cursor: int) -> None:
        """(lock held) ``MADV_WILLNEED`` the not-yet-hinted scheduled
        shards in the ``capacity - 1`` positions from ``cursor`` (one
        slot stays for the shard currently computing)."""
        if not self.advise:
            return
        stop = min(len(self._order), cursor + max(1, self.capacity - 1))
        for j in range(max(cursor, self._hinted), stop):
            if self._order[j] not in self._cache:
                self.store.will_need(self._order[j])
        self._hinted = max(self._hinted, stop)

    # -- acquisition ---------------------------------------------------
    def get(self, index: int):
        """Acquire one shard's arrays for compute (counts hit/fault).

        Called once per (shard, edge-streaming phase) by the runtime's
        compute wrapper; a full cache first evicts the most recently
        acquired shard.
        """
        with self._lock:
            arrays = self._cache.get(index)
            if arrays is not None:
                self._cache.move_to_end(index)
                self.hits += 1
                self.obs.add("prefetch.hits")
            else:
                arrays = self.store.load_arrays(index, unit_weights=self.unit_weights)
                self.faults += 1
                self.bytes_loaded += arrays.nbytes
                self.obs.add("prefetch.faults")
                self.obs.add("prefetch.bytes", arrays.nbytes)
                while len(self._cache) >= self.capacity:
                    old, _views = self._cache.popitem()
                    self.evictions += 1
                    self.obs.add("prefetch.evictions")
                    self._release(old)
                self._cache[index] = arrays
            pos = self._pos.get(index)
            if pos is not None:
                self._hint_from(pos + 1)
            return arrays

    def arrays(self, index: int):
        """Uncounted access for lazy-shard properties: serve from cache,
        fall back to a counted :meth:`get` if the shard was evicted
        between acquisition and use."""
        with self._lock:
            got = self._cache.get(index)
        return got if got is not None else self.get(index)

    def _release(self, index: int) -> None:
        """(lock held) Hand one shard's pages back to the OS."""
        released = self.store.release(index)
        self.released_bytes += released
        self.obs.add("prefetch.released_bytes", released)

    # -- lifecycle / reporting -----------------------------------------
    def shutdown(self) -> None:
        """Release every resident shard's pages. Idempotent; counters
        stay readable."""
        with self._lock:
            for index in self._cache:
                self._release(index)
            self._cache.clear()

    def snapshot(self) -> dict:
        """The counters (the result's ``prefetch``)."""
        with self._lock:
            total = self.hits + self.faults
            return {
                "capacity": self.capacity,
                "hits": self.hits,
                "faults": self.faults,
                "evictions": self.evictions,
                "bytes_loaded": self.bytes_loaded,
                "released_bytes": self.released_bytes,
                "hit_rate": self.hits / total if total else 0.0,
            }


class DataMovementEngine:
    """Schedules shard movement and kernels on the simulated device."""

    def __init__(
        self,
        device: GPUDevice,
        sharded: ShardedGraph,
        config: MovementConfig,
        with_weights: bool,
        with_edge_state: bool,
        obs=None,
    ):
        self.device = device
        self.sharded = sharded
        self.config = config
        self.with_weights = with_weights
        self.with_edge_state = with_edge_state
        self.obs = obs if obs is not None else NULL_OBSERVER
        #: SSD backing: (shared FluidResource, spilled fraction of every
        #: host read) or None when the graph fits host DRAM.
        self.ssd: tuple[FluidResource, float] | None = None
        self.stats = MovementStats()
        self._resident_named: list[str] = []
        self._cached = False  # all shards resident (in-memory mode)
        #: (group name, shard index) -> its (h2d, d2h) copy recipes; both
        #: depend on nothing else, so they are built on first visit
        self._recipes: dict[tuple[str, int], tuple] = {}
        #: phase tapes: skeleton -> [(tape, issue-counter deltas, group
        #: bytes)], most recently played first ([]: seen once); the
        #: runtime shares one book per graph and :meth:`tape_key`
        self.tapes: dict[tuple, list] = {}

        max_shard = sharded.max_shard_bytes(with_weights, with_edge_state)
        max_interval = max(
            (s.num_interval_vertices for s in sharded.shards), default=0
        )
        self._max_shard_bytes = max_shard
        self._interval_bytes = max_interval * 4  # staged vertex-update slice

        if config.async_streams:
            self.k = optimal_concurrent_shards(
                device.memory.capacity,
                0,  # residents are allocated before stage_slots reserves
                self._interval_bytes,
                max_shard,
                sharded.num_partitions,
                config.max_concurrent_shards,
            )
        else:
            self.k = 1
        self.streams = [device.create_stream(f"shard{i}") for i in range(self.k)]
        # Spray streams are created dynamically per main stream on use.
        self._spray_pools: list[list] = [[] for _ in range(self.k)]

    @property
    def max_shard_bytes(self) -> int:
        """B in Eq. (2): streaming-buffer footprint of the largest shard."""
        return self._max_shard_bytes

    @property
    def interval_bytes(self) -> int:
        """V/P staging share per slot in Eq. (1)."""
        return self._interval_bytes

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def upload_resident(self, buffers: dict[str, int]) -> None:
        """Allocate + one-time H2D of the static buffers (vertex values,

        gather temp, frontier flags...). Static buffers stay on device
        for the lifetime of the execution (Section 3.2).
        """
        stream = self.streams[0]
        for name, nbytes in buffers.items():
            self.device.memory.alloc(f"resident:{name}", nbytes)
            self._resident_named.append(f"resident:{name}")
            stream.memcpy_h2d(nbytes, label=f"resident:{name}")
            self.stats.h2d_count += 1
            self.stats.h2d_bytes += nbytes
            self.obs.add("movement.h2d.bytes", nbytes)
            self.obs.add("movement.h2d.copies")
        self.device.synchronize()

    def reserve_stage_slots(self) -> int:
        """Reserve K staging slots of max-shard size; shrinks K when the

        device is too full (re-deriving Eq. (1) against what is left
        after residents). Returns the final K.
        """
        while self.k > 1:
            need = self.k * (self._max_shard_bytes + self._interval_bytes)
            if need <= self.device.memory.free_bytes:
                break
            self.k -= 1
        for i in range(self.k):
            self.device.memory.alloc(
                f"stage:{i}", self._max_shard_bytes + self._interval_bytes
            )
        self.streams = self.streams[: self.k]
        self._spray_pools = self._spray_pools[: self.k]
        return self.k

    def cache_all_shards(self) -> bool:
        """In-memory mode: upload every shard once; later phases launch

        kernels with no per-iteration PCIe traffic. Returns False (and
        uploads nothing) when the shards do not all fit.
        """
        total = sum(
            s.total_bytes(self.with_weights, self.with_edge_state)
            for s in self.sharded.shards
        )
        if total > self.device.memory.free_bytes:
            return False
        stream_i = 0
        before = self._snapshot()
        try:
            for shard in self.sharded.shards:
                nbytes = shard.total_bytes(self.with_weights, self.with_edge_state)
                self.device.memory.alloc(f"shardcache:{shard.index}", nbytes)
                self._issue_copies(
                    self.streams[stream_i % self.k],
                    stream_i % self.k,
                    self._recipe(shard, f"cache:{shard.index}"),
                    "h2d",
                )
                stream_i += 1
        finally:
            self._report_since(before)
        self.device.synchronize()
        self._cached = True
        return True

    @property
    def cached(self) -> bool:
        return self._cached

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def run_phase(
        self,
        group: PhaseGroup,
        shards: list[Shard],
        skipped: int,
        compute,  # Callable[[Shard], WorkItems]
        barrier: bool = True,
    ) -> None:
        """Stream the selected shards through the phase, then barrier.

        ``compute`` runs the actual NumPy work eagerly (shard results
        within one phase are independent, so host-side order does not
        matter); the simulator accounts for when the transfers and the
        kernel would have executed.

        A phase that may use tapes (:meth:`_tapeable`) issues once every
        shard has computed, unless a tape of its skeleton (group,
        residency, ordered shards) folds it (:meth:`_play`).
        """
        self.stats.shards_skipped += skipped
        if skipped:
            self.obs.add("movement.shards.skipped", skipped)
        key = recorder = None
        defer = barrier and self._tapeable()
        issued = []  # (stream, shard, work) per computed shard
        resident = self._cached
        before = self._snapshot()
        try:
            for i, shard in enumerate(shards):
                stream_i = i % self.k
                work = compute(shard)
                issued.append((stream_i, shard, work))
                if not defer:
                    self._issue_shard(group, stream_i, shard, work, resident)
                self.stats.shards_processed += 1
                if not self.config.async_streams:
                    self.device.synchronize()  # fully synchronous baseline
            if defer:
                key = (group, resident, tuple(shard.index for _, shard, _ in issued))
                inputs = [x for _, _, work in issued for x in self._kernel_inputs(work)]
                if self._play(key, inputs):
                    defer = False
                else:
                    recorder = self._recorder(key)
        finally:
            # A phase whose compute raised still issues and reports what
            # its computed shards would have.
            if defer and issued:
                traced = recorder.inputs(inputs) if recorder else [None] * (2 * len(issued))
                for n, args in enumerate(issued):
                    self._issue_shard(group, *args, resident, kernel=traced[2 * n:2 * n + 2])
            self._report_since(before)
            span = self.obs.current  # the phase's: one column per shard field
            if span is not None:
                streams, computed, works = zip(*issued) if issued else ((),) * 3
                span.set(shard_ids=tuple(shard.index for shard in computed), streams=streams,
                         resident=(resident,) * len(issued),
                         items=tuple(work.total for work in works))
        if barrier:
            # BSP barrier between phases. Multi-device callers pass
            # barrier=False, issue every device's work, then synchronize
            # all devices so per-device phases overlap.
            if key is None or defer:
                self._barrier(key, recorder, before)
            self.stats.phase_barriers += 1

    def iteration_sync(self, frontier_bytes: int) -> None:
        """Per-iteration frontier copy-back (tiny, vertex-bitmap sized):
        a phase without inputs."""
        key = ("frontier", frontier_bytes) if self._tapeable() else None
        before = self._snapshot()
        played = key is not None and self._play(key, [])
        if not played:
            self.streams[0].memcpy_d2h(frontier_bytes, label="frontier")
            self.stats.d2h_count += 1
            self.stats.d2h_bytes += frontier_bytes
        self._report_since(before)
        if not played:
            self._barrier(key, None if key is None else self._recorder(key), before)

    # ------------------------------------------------------------------
    # Phase tapes
    # ------------------------------------------------------------------
    def tape_key(self) -> tuple:
        """What the event loop reads besides a phase's issue list (the
        runtime adds the sharded graph)."""
        config = self.config
        return (self.device.spec, config.async_streams, config.spray,
                config.max_concurrent_shards, self.k, self.with_weights,
                self.with_edge_state, self.device.trace.enabled)

    def _tapeable(self) -> bool:
        """Whether a barrier phase issued now is a function of its key.

        The device must be quiescent at a phase start (a non-barrier
        phase before may have left work in flight), and nothing may
        carry across phases: SSD spill does, and the synchronous baseline
        barriers inside the phase.
        """
        return (
            TAPES > 0
            and self.device.sim.quiescent
            and self.config.async_streams
            and self.ssd is None
        )

    def _kernel_inputs(self, work: WorkItems) -> tuple[float, int]:
        """A shard kernel's tape inputs: its seconds and its items."""
        spec = self.device.spec
        seconds = work.edge_items / spec.edge_rate_seq + work.vertex_items / spec.vertex_rate
        return float(seconds), int(work.total)

    def _play(self, key, inputs: list) -> bool:
        """Fold phase ``key`` from the first of its tapes whose guards hold
        on ``inputs``, adding its issue counters; False when none does."""
        variants = self.tapes.get(key)
        for n, (tape, counts, groups) in enumerate(variants or ()):
            if self.device.synchronize(tape, inputs) is not None:
                stats = self.stats
                for name, delta in zip(_ISSUE_COUNTERS, counts):
                    setattr(stats, name, getattr(stats, name) + delta)
                stats.kernel_items += sum(inputs[1::2])
                for group, nbytes in groups.items():
                    stats.per_group_bytes[group] = stats.per_group_bytes.get(group, 0) + nbytes
                variants.insert(0, variants.pop(n))
                self.obs.add("movement.tape.hits")
                return True
        if variants:
            self.obs.add("movement.tape.fallbacks")
        return False

    def _recorder(self, key) -> TapeRecorder | None:
        """A recorder for phase ``key`` on its second sighting, or when its
        tapes all failed, within ``TAPES`` / ``TAPE_VARIANTS``."""
        variants = self.tapes.get(key)
        if variants is None:
            if len(self.tapes) < 16 * TAPES:
                self.tapes[key] = []
            return None
        if len(variants) >= TAPE_VARIANTS or sum(map(len, self.tapes.values())) >= TAPES:
            return None
        return TapeRecorder()

    def _barrier(self, key, recorder, before: tuple) -> None:
        """End a phase at the device barrier; keep the tape ``recorder``
        made of it, with the phase's issue counters."""
        self.device.synchronize(recorder)
        if recorder is None or recorder.tape is None:
            return
        (counts, _, groups), now = before, self.stats
        deltas = [getattr(now, f) - n for f, n in zip(_ISSUE_COUNTERS, counts)]
        deltas[list(_ISSUE_COUNTERS).index("kernel_items")] = 0  # added per play
        self.tapes[key].insert(0, (
            recorder.tape,
            tuple(deltas),
            {g: n - groups.get(g, 0) for g, n in now.per_group_bytes.items()
             if n != groups.get(g, 0)},
        ))
        self.obs.add("movement.tape.records")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple:
        """The issue counters, ``shards_processed`` and a copy of
        ``per_group_bytes``: what :meth:`_report_since` and a tape's
        deltas are taken against."""
        stats = self.stats
        counts = tuple(getattr(stats, f) for f in _ISSUE_COUNTERS)
        return counts, stats.shards_processed, dict(stats.per_group_bytes)

    def _report_since(self, before: tuple) -> None:
        """Emit the copies and kernels issued since ``before`` (a
        :meth:`_snapshot`) as one counter increment per name: the issue
        paths only touch ``stats``, so a phase costs a handful of
        ``obs.add`` calls instead of several per shard."""
        (counts, processed, _), stats, add = before, self.stats, self.obs.add
        for (field, metric), was in zip(_ISSUE_COUNTERS.items(), counts):
            now = getattr(stats, field)
            if now != was:
                add(metric, now - was)
        if stats.shards_processed != processed:
            add("movement.shards.processed", stats.shards_processed - processed)

    def _issue_shard(self, group: PhaseGroup, stream_i: int, shard: Shard,
                     work: WorkItems, resident: bool, kernel=(None, None)) -> None:
        """One shard's phase on its stream: H2D, kernel, D2H (copies

        only when the shard is not device-resident); ``kernel``: its
        traced (seconds, items) while a tape records."""
        stream = self.streams[stream_i]
        if not resident:
            recipes = self._recipes.get((group.name, shard.index))
            if recipes is None:
                label = f"{group.name}:{shard.index}"
                recipes = self._recipes[group.name, shard.index] = (
                    self._recipe(shard, label, group.h2d_buffers),
                    self._recipe(shard, label, group.d2h_buffers),
                )
            self._issue_copies(stream, stream_i, recipes[0], "h2d")
        self._issue_kernel(stream, group, shard, work, *kernel)
        if not resident:
            self._issue_copies(stream, stream_i, recipes[1], "d2h")

    def _recipe(self, shard: Shard, label: str, names=None) -> tuple:
        """The static part of one copy batch: ``(label, total bytes,
        [(bytes, copy label)])`` over the non-empty sub-arrays of the
        logical buffers ``names`` (None: the whole shard)."""
        flags = (self.with_weights, self.with_edge_state)
        if names is None:
            sizes = shard.sub_array_bytes(*flags)
        else:
            sizes = shard.expand_buffers(names, *flags)
        copies = [(n, f"{label}:{name}") for name, n in sizes.items() if n > 0]
        return label, sum(n for n, _ in copies), copies

    def _issue_copies(self, stream, stream_i: int, recipe: tuple, direction: str) -> None:
        label, nbytes, copies = recipe
        if not copies:
            return
        if direction == "h2d":
            self.stats.h2d_count += len(copies)
            self.stats.h2d_bytes += nbytes
        else:
            self.stats.d2h_count += len(copies)
            self.stats.d2h_bytes += nbytes
        agg = self.stats.per_group_bytes
        group = label.split(":")[0]
        agg[group] = agg.get(group, 0) + nbytes

        def ssd_fetch(target_stream, copy_label: str, nbytes: int) -> None:
            """The spilled fraction of a host buffer lives on flash;

            fetch it (contending with every other stream's reads) on the
            same stream, so the DMA cannot start before the read lands."""
            if self.ssd is None or direction != "h2d":
                return
            resource, spill = self.ssd
            if spill > 0:
                target_stream.enqueue(
                    ResourceOp(resource, nbytes * spill, label=f"ssd:{copy_label}")
                )

        if self.config.spray and len(copies) > 1:
            self.stats.spray_batches += 1
            self.stats.spray_copies += len(copies)
            # Deep copies sprayed over dynamically created streams; the
            # issuing stream joins them via events (Figure 11(b)). D2H
            # sprays additionally gate on the issuing stream (the kernel
            # must finish before results copy back).
            pool = self._spray_pools[stream_i]
            gate = None
            if direction == "d2h":
                gate = StreamEvent(f"{label}:gate")
                stream.record_event(gate)
            joins = []
            for j, (nbytes, copy_label) in enumerate(copies):
                while j >= len(pool):
                    pool.append(self.device.create_stream(f"spray{stream_i}.{len(pool)}"))
                ev = StreamEvent(copy_label)
                if gate is not None:
                    pool[j].wait_event(gate)
                ssd_fetch(pool[j], copy_label, nbytes)
                pool[j].enqueue(Memcpy(nbytes, direction, copy_label))
                pool[j].record_event(ev)
                joins.append(ev)
            for ev in joins:
                stream.wait_event(ev)
        else:
            for nbytes, copy_label in copies:
                ssd_fetch(stream, copy_label, nbytes)
                stream.enqueue(Memcpy(nbytes, direction, copy_label))

    def _issue_kernel(self, stream, group: PhaseGroup, shard: Shard, work: WorkItems,
                      seconds=None, items=None) -> None:
        if seconds is None:
            seconds, items = self._kernel_inputs(work)
        stream.enqueue(
            Kernel(
                items=items,
                kind="edge_seq",
                label=f"{group.name}:{shard.index}",
                work_seconds=seconds,
            )
        )
        self.stats.kernel_launches += 1
        self.stats.kernel_items += work.total
