"""Process-parallel shard compute over partitioned shard ownership.

The ``--parallel-shards`` thread path scales poorly for the NumPy-light
phases (gatherReduce, apply, frontier activation) because the workers
serialize on the GIL between kernels. This module provides the
``cluster`` backend: a persistent, spawn-safe ``multiprocessing`` worker
pool in which every worker owns a contiguous block of shards
(:class:`repro.core.ownership.OwnershipMap`) and holds a **zero-copy**
view of just those shards' CSC/CSR sub-arrays --

* in-RAM runs export each owner's shard arrays once into a read-only
  ``multiprocessing.shared_memory`` segment that only that worker maps,
  and
* shard-store runs let each worker open the
  :class:`~repro.core.shardstore.ShardStore` itself -- one read-only
  mapping of the packed shard file per worker -- and bind only its owned
  shards (the others stay manifest entries whose pages it never
  touches),

so per-worker resident bytes shrink with the worker count instead of
staying at the full-graph footprint.

Determinism is preserved by construction, not by luck: workers never
write shared state. Each worker keeps *private* copies of the mutable
arrays (vertex values, frontier masks, edge state), bootstrapped once
from a state segment at attach. Between phase groups the main process
diffs the live state against its shadow of what was shipped and packs,
per tasked worker, only the **pending rows that worker can read** (its
owned intervals plus its in-boundary source vertices) into a fixed-slot
shared-memory mailbox -- sparse ``(indices, values)`` records plus
packed activation bitmaps (full under the ``replicated`` frontier
policy, the owned slice under ``partitioned``). Each task runs the phase
kernels against the worker's synced copy and returns only **deltas** --
per-interval ``vertex_update_array`` slices, changed-row ids, frontier
target vids, scattered edge-state writes -- through a result queue. The
main process replays those deltas in the fixed shard order the serial
path uses, so vertex values, frontier history, observer counters and the
simulated timeline are bit-identical to serial execution.

Mailboxes are filled in fixed owner order and each worker's tasks are
enqueued right after its mailbox write, so the first owner is already
computing while later owners' deltas are still being packed. Slots are
sized to the worker's full readable set, so a publish can never
overflow; a publish whose vertex slot fills completely is counted as a
*mailbox stall* (the sparse exchange degenerated to a full replication
for that worker).

Shards are pinned to their owner so the worker-local ``gather_temp``
scratch keeps exactly the stale values the serial engine would hold, and
the parked gatherMap output of the unfused plan is popped by the same
worker's gatherReduce. Each worker also runs its own
:class:`~repro.core.plans.PlanCache` (same ``dense`` switch, same LRU
budget) over its synced masks: plan queries read the masks as of the
last mailbox ingest, so nothing about plan freshness crosses the process
boundary -- a task message names a shard and a phase group, no more.

Crash safety: if a worker dies (or a task raises, or times out), the
pool raises :class:`WorkerCrashed`; the runtime catches it, emits a
``RuntimeWarning`` and re-runs the whole computation serially -- the
run is deterministic, so the fallback result is identical to what the
pool would have produced. All shared-memory segments are unlinked by
the owning (main) process on shutdown, crash or not.
"""

from __future__ import annotations

import os
import queue
import traceback
from time import perf_counter

import numpy as np

from repro.core.compute import ComputeEngine, WorkItems
from repro.core.kernels import resolve_backend
from repro.core.plans import PlanCache
from repro.graph.csr import CSR
from repro.obs.span import NULL_OBSERVER

#: Set in pool workers (to the worker id) before any task runs; lets
#: test programs detect they are executing inside a pool worker.
ENV_WORKER_FLAG = "REPRO_POOL_WORKER"

_STOP = "stop"
_TASK = "task"

#: /dev/shm segments are named with this prefix so tests can assert
#: none leak.
SHM_PREFIX = "repro_pool"

_shm_seq = 0


class WorkerCrashed(RuntimeError):
    """A pool worker died, raised, or timed out; callers fall back to
    serial execution (deterministic, so results are unchanged)."""


# ----------------------------------------------------------------------
# Shared-memory packing
# ----------------------------------------------------------------------
def _pack_layout(arrays: dict) -> tuple[int, dict]:
    """(total bytes, name -> (offset, shape, dtype str)) for one segment."""
    toc = {}
    offset = 0
    for name, arr in arrays.items():
        offset = (offset + 63) & ~63  # cache-line align each sub-array
        toc[name] = (offset, tuple(arr.shape), arr.dtype.str)
        offset += arr.nbytes
    return max(offset, 1), toc


def _create_segment(arrays: dict, tag: str):
    """Export ``arrays`` into one named shared-memory segment."""
    from multiprocessing import shared_memory

    global _shm_seq
    size, toc = _pack_layout(arrays)
    while True:
        _shm_seq += 1
        name = f"{SHM_PREFIX}_{os.getpid()}_{_shm_seq}_{tag}"
        try:
            shm = shared_memory.SharedMemory(create=True, name=name, size=size)
            break
        except FileExistsError:  # pragma: no cover - stale name collision
            continue
    for name_, arr in arrays.items():
        off, shape, dt = toc[name_]
        view = np.ndarray(shape, dtype=np.dtype(dt), buffer=shm.buf, offset=off)
        view[...] = arr
    return shm, toc


def _attach_segment(name: str):
    # Spawned workers inherit the main process's resource-tracker, so
    # the attach-side register is an idempotent set-add against the
    # create-side one; the single unregister happens in the owner's
    # ``unlink()`` at shutdown. (Python 3.13 adds ``track=False``; with
    # a shared tracker the default tracking is already correct.)
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _segment_views(shm, toc: dict, writable: bool) -> dict:
    views = {}
    for name, (off, shape, dt) in toc.items():
        view = np.ndarray(tuple(shape), dtype=np.dtype(dt), buffer=shm.buf, offset=off)
        if not writable:
            view.flags.writeable = False
        views[name] = view
    return views


def _shard_arrays(shard) -> dict:
    """One shard's CSC/CSR sub-arrays under segment-unique names."""
    pre = f"s{shard.index}."
    arrays = {
        pre + "csc.indptr": shard.csc.indptr,
        pre + "csc.indices": shard.csc.indices,
        pre + "csc.edge_ids": shard.csc.edge_ids,
        pre + "csr.indptr": shard.csr.indptr,
        pre + "csr.indices": shard.csr.indices,
        pre + "csr.edge_ids": shard.csr.edge_ids,
    }
    if shard.csc_weights is not None:
        arrays[pre + "csc.weights"] = shard.csc_weights
    if shard.csr_weights is not None:
        arrays[pre + "csr.weights"] = shard.csr_weights
    return arrays


def _shard_from_views(views: dict, index: int, start: int, stop: int):
    """Inverse of :func:`_shard_arrays` over an attached segment."""
    from repro.core.partition import Shard

    pre = f"s{index}."
    return Shard(
        index=index,
        start=start,
        stop=stop,
        csc=CSR(
            views[pre + "csc.indptr"],
            views[pre + "csc.indices"],
            views[pre + "csc.edge_ids"],
        ),
        csr=CSR(
            views[pre + "csr.indptr"],
            views[pre + "csr.indices"],
            views[pre + "csr.edge_ids"],
        ),
        csc_weights=views.get(pre + "csc.weights"),
        csr_weights=views.get(pre + "csr.weights"),
    )


# ----------------------------------------------------------------------
# Worker-side shims
# ----------------------------------------------------------------------
class _WorkerFrontier:
    """Frontier facade over the worker's synced frontier masks.

    Read queries serve the masks as of the last mailbox ingest;
    mutations are *captured* as replay deltas instead of applied. The
    one read-after-write the serial engine relies on -- a fused
    ``apply``+``frontier_activate`` group reading the changed rows its
    own apply just marked -- is honored through a task-local overlay
    copy of the changed mask.
    """

    natural = False  # workers run shard by shard, never the rows pass that relays

    def __init__(self, current, changed):
        self.current = current
        self._synced_changed = changed
        self._local_changed = None
        self.deltas: list | None = None

    @property
    def changed(self):
        if self._local_changed is not None:
            return self._local_changed
        return self._synced_changed

    def begin_sync(self) -> None:
        """A new publish was ingested: drop the task-local overlay."""
        self._local_changed = None

    # -- mask queries used by the plan cache ---------------------------
    def active_in(self, start: int, stop: int) -> np.ndarray:
        return start + np.flatnonzero(self.current[start:stop])

    def changed_in(self, start: int, stop: int) -> np.ndarray:
        return start + np.flatnonzero(self.changed[start:stop])

    def dense_active_in(self, start: int, stop: int) -> bool:
        return bool(self.current[start:stop].all())

    def dense_changed_in(self, start: int, stop: int) -> bool:
        return bool(self.changed[start:stop].all())

    # -- captured mutations --------------------------------------------
    def mark_changed(self, vids: np.ndarray) -> None:
        self.deltas.append(("mc", vids))
        if len(vids):
            if self._local_changed is None:
                self._local_changed = self._synced_changed.copy()
            self._local_changed[vids] = True

    def activate_next(self, vids: np.ndarray, count: int | None = None) -> None:
        self.deltas.append(("an", vids, count))


class _WorkerEngine(ComputeEngine):
    """Compute engine whose mutable-state writes become deltas.

    ``vertex_values``/``edge_state`` are the runner's private copies,
    written only by its mailbox ingest; ``gather_temp``/``gather_has``
    are worker-local (correct under shard pinning: only this worker's
    shards ever read or write its intervals, mirroring the serial
    engine's buffer).
    """

    def __init__(self, program, ctx, frontier, plans, vertex_values, edge_state,
                 kernels=None):
        self.sharded = None
        self.program = program
        self.ctx = ctx
        self.frontier = frontier
        self.obs = NULL_OBSERVER
        self.plans = plans
        self.vertex_values = vertex_values
        n = len(vertex_values)
        # Matches the main engine's buffer shape: batched programs carry
        # one gather column per query (vertex_values arrives 2-D here).
        self.gather_temp = np.full(
            vertex_values.shape, program.gather_identity, dtype=program.gather_dtype
        )
        self.gather_has = np.zeros(n, dtype=bool)
        self.edge_state = edge_state
        self.iteration = 0
        self._pending = {}
        self.deltas: list | None = None
        self._setup_kernels(kernels)

    def _write_vertex_values(self, shard, rows, dense, out):
        if self.kernels is not None:
            # Fused kernels return views of the backend's scratch arena,
            # which the *next* task reuses before the result queue's
            # feeder thread pickles this task's deltas. Snapshot now.
            out = np.array(out, copy=True)
        if dense:
            self.deltas.append(("vd", shard.start, shard.stop, out))
        else:
            self.deltas.append(("vr", rows, out))

    def _write_edge_state(self, eids, new_states):
        self.deltas.append(("es", eids, np.asarray(new_states)))


class _SharedContext:
    """RuntimeContext stand-in backed by exported degree arrays."""

    def __init__(self, num_vertices, num_edges, out_degrees, in_degrees):
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.out_degrees = out_degrees
        self.in_degrees = in_degrees


class _WorkerSharded:
    """Just enough of a ShardedGraph for the worker's plan cache."""

    def __init__(self, num_vertices, boundaries, shards):
        self.num_vertices = num_vertices
        self.boundaries = boundaries
        self.shards = shards
        self.num_partitions = len(shards)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _WorkerRunner:
    """One pool worker: its owned shards, private run state, mailbox.

    * **Graph**: only the worker's *owned* shards are attached -- the
      per-worker shm segment holds just their arrays, and store-backed
      runs bind just the owned lazy shards (the others are never
      faulted). Per-worker resident bytes scale down with ownership.
    * **State**: the worker keeps *private writable copies* of the
      vertex values, frontier masks and edge state, bootstrapped once
      from the state segment at attach.
    * **Sync**: before the first task of each phase group the worker
      ingests its fixed-slot mailbox -- sparse ``(indices, values)``
      vertex records, packed frontier bitmaps (full or owned-slice, per
      the frontier policy) and sparse edge-state records -- written by
      the main process before that task was enqueued.
    """

    def __init__(self, spec, segments: list):
        self.worker_id = spec["worker_id"]
        self.t0 = spec["t0"]
        num_vertices = spec["num_vertices"]

        def attach(name, toc):
            shm = _attach_segment(name)
            segments.append(shm)
            return _segment_views(shm, toc, writable=False)

        if spec["graph"][0] == "shm":
            _, seg_name, toc = spec["graph"]
            views = attach(seg_name, toc)
            shards = [
                _shard_from_views(views, index, start, stop)
                for index, start, stop in spec["shards"]
            ]
        else:
            from repro.core.shardstore import ShardStore

            _, path, unit_weights = spec["graph"]
            store = ShardStore.open(path)
            lazy = store.sharded_graph(unit_weights=unit_weights).shards
            # Bind only the owned shards: the others stay manifest
            # entries whose pages this process never touches.
            shards = [lazy[index] for index, _start, _stop in spec["shards"]]
        state = attach(*spec["state"])
        # Private writable copies: the mailbox ingest below is the only
        # writer, so the worker's view of the run state advances exactly
        # one publish at a time, and the full-state segment is touched
        # once (bootstrap), not per phase.
        self._vertex_values = np.array(state["vertex_values"])
        self._current = np.array(state["current"])
        self._changed = np.array(state["changed"])
        self._edge_state = (
            np.array(state["edge_state"]) if "edge_state" in state else None
        )
        ctx = _SharedContext(
            num_vertices,
            spec["num_edges"],
            state["out_degrees"],
            state["in_degrees"],
        )
        self._mbox = attach(*spec["mailbox"])
        self._mbox_seen = 0
        self._mask_lo, self._mask_hi = spec["mask_range"]

        self.shards = {s.index: s for s in shards}
        self.frontier = _WorkerFrontier(self._current, self._changed)
        sharded = _WorkerSharded(num_vertices, spec["boundaries"], shards)
        self.plans = PlanCache(
            sharded,
            self.frontier,
            dense=spec["dense"],
            budget=spec["plan_budget"],
        )
        self.engine = _WorkerEngine(
            spec["program"],
            ctx,
            self.frontier,
            self.plans,
            self._vertex_values,
            self._edge_state,
            kernels=resolve_backend(spec["kernel_backend"]),
        )
        self._sync_id = -1
        self._iteration_seen = False

    def _ingest_mailbox(self) -> None:
        """Apply the mailbox the main process wrote for this publish.

        The header sequence number decouples mailbox freshness from the
        task sync id: a worker with no tasks for several phases sees one
        mailbox carrying the *accumulated* pending rows, applied once.
        Safe by construction: the main process writes a mailbox only
        while this worker is idle (all its previous-phase results were
        collected before the next publish), and the queue message that
        triggers this read is sent after the write completes.
        """
        header = self._mbox["header"]
        seq = int(header[0])
        if seq == self._mbox_seen:
            return
        self._mbox_seen = seq
        k = int(header[1])
        if k:
            rows = self._mbox["vidx"][:k]
            self._vertex_values[rows] = self._mbox["vvals"][:k]
            self.engine.invalidate_premap()
        lo, hi = self._mask_lo, self._mask_hi
        span = hi - lo
        self._current[lo:hi] = np.unpackbits(
            self._mbox["cur"], count=span
        ).view(bool)
        self._changed[lo:hi] = np.unpackbits(
            self._mbox["chg"], count=span
        ).view(bool)
        if self._edge_state is not None:
            m = int(header[2])
            if m:
                eids = self._mbox["eidx"][:m]
                self._edge_state[eids] = self._mbox["evals"][:m]

    def run_task(self, msg):
        _, sync_id, iteration, phases, shard_index, count_full = msg
        t_start = perf_counter() - self.t0
        if sync_id != self._sync_id:
            self._sync_id = sync_id
            self._ingest_mailbox()
            self.frontier.begin_sync()
        if not self._iteration_seen or iteration != self.engine.iteration:
            self.engine.begin_iteration(iteration)
            self._iteration_seen = True
        deltas: list = []
        self.engine.deltas = deltas
        self.frontier.deltas = deltas
        shard = self.shards[shard_index]
        self.engine.begin_group(phases)
        per_phase = []
        for phase in phases:
            w = getattr(self.engine, "_" + phase)(shard, count_full)
            per_phase.append((phase, w.edge_items, w.vertex_items))
        t_end = perf_counter() - self.t0
        return ("ok", shard_index, self.worker_id, per_phase, deltas, t_start, t_end)


def _worker_main(spec, task_q, result_q):  # pragma: no cover - child process
    os.environ[ENV_WORKER_FLAG] = str(spec["worker_id"])
    segments: list = []
    try:
        runner = _WorkerRunner(spec, segments)
    except Exception:
        result_q.put(("init_error", spec["worker_id"], traceback.format_exc()))
        return
    result_q.put(("ready", spec["worker_id"]))
    try:
        while True:
            msg = task_q.get()
            if msg[0] == _STOP:
                break
            try:
                result_q.put(runner.run_task(msg))
            except Exception:
                result_q.put(
                    ("task_error", msg[4], spec["worker_id"], traceback.format_exc())
                )
    finally:
        result_q.put(
            (
                "bye",
                spec["worker_id"],
                runner.plans.stats(),
                runner.engine.kernel_stats(),
            )
        )
        for shm in segments:
            try:
                shm.close()
            except Exception:
                pass


# ----------------------------------------------------------------------
# Main-process pool
# ----------------------------------------------------------------------
class ProcessPool:
    """Persistent spawn-based, ownership-partitioned worker pool for one
    GraphReduce run.

    Construction assigns every shard one owner, exports each owner's
    shard arrays (in-RAM runs), the bootstrap state and a per-worker
    mailbox to shared memory, spawns the workers and waits for their
    attach handshake. :meth:`phase_run` ships each tasked worker the
    rows that changed since its last publish, fans one phase group's
    shard tasks out to the owners and returns a per-shard collector the
    Data Movement Engine calls in shard order -- which is where the
    deltas are replayed, keeping the merge deterministic.
    :meth:`shutdown` (idempotent, always called from the runtime's
    ``finally``) stops the workers and closes + unlinks every segment,
    so nothing survives in ``/dev/shm`` on normal exit or crash.
    """

    def __init__(
        self,
        *,
        sharded,
        program,
        ctx,
        frontier,
        compute,
        obs=None,
        workers: int,
        dense: bool,
        plan_budget: int | None = None,
        kernel_backend: str = "off",
        frontier_policy: str = "replicated",
        store=None,
        unit_weights: bool = False,
        task_timeout: float = 300.0,
        telemetry=None,
    ):
        import multiprocessing as mp

        from repro.core.ownership import check_frontier_policy

        self._policy = check_frontier_policy(frontier_policy)
        self._frontier = frontier
        self._compute = compute
        self._obs = obs if obs is not None else NULL_OBSERVER
        self.num_workers = max(1, min(int(workers), sharded.num_partitions))
        self.task_timeout = task_timeout
        # Health-watchdog hookup (repro.obs.telemetry.RunTelemetry):
        # workers register heartbeats on attach, beat on every task
        # result, and carry a busy flag while tasks are outstanding.
        # A busy worker whose heartbeat goes quiet past the stall
        # timeout is escalated from the blocking result wait as
        # WorkerCrashed -- the runtime's serial fallback takes over.
        self._telemetry = telemetry
        self._heartbeats = telemetry.heartbeats if telemetry is not None else None
        self._stall_timeout = (
            telemetry.config.stall_timeout if telemetry is not None else 0.0
        )
        self._outstanding = [0] * self.num_workers
        self.tasks = 0
        self.max_inflight = 0
        self.publish_seconds = 0.0
        self.wait_seconds = 0.0
        self.boundary_bytes_sent = 0
        self.delta_bytes_merged = 0
        self.mailbox_stalls = 0
        self.mailbox_publishes = 0
        self.lane: list[tuple] = []
        self.worker_plan_stats: list[dict] = []
        self.worker_kernel_stats: list[dict] = []
        self._segments: list = []
        self._procs: list = []
        self._task_qs: list = []
        self._closed = False
        self._sync_id = 0
        self._t0 = perf_counter()

        try:
            self._start(
                mp, sharded, program, ctx, store, unit_weights, dense,
                plan_budget, kernel_backend,
            )
        except WorkerCrashed:
            self.shutdown()
            raise
        except Exception as exc:
            self.shutdown()
            raise WorkerCrashed(f"pool startup failed: {exc!r}") from exc

    # ------------------------------------------------------------------
    def _start(
        self, mp, sharded, program, ctx, store, unit_weights, dense,
        plan_budget, kernel_backend,
    ):
        from repro.core.ownership import (
            OwnershipMap,
            boundary_sets,
            estimate_shard_bytes,
        )

        spawn = mp.get_context("spawn")
        n = sharded.num_vertices
        num_edges = getattr(ctx, "num_edges", 0)
        ownership = OwnershipMap.contiguous(sharded.num_partitions, self.num_workers)
        ownership.validate()
        self._ownership = ownership
        self._owner_of = ownership.owner_of
        in_bounds, out_bounds = boundary_sets(sharded, ownership)
        self.boundary_in_sizes = [len(b) for b in in_bounds]
        self.boundary_out_sizes = [len(b) for b in out_bounds]

        if store is not None:
            # Count math only -- never fault the store's pages.
            with_weights = bool(store.weighted or unit_weights)
            shard_bytes = {
                s.index: estimate_shard_bytes(
                    s.stop - s.start, s.num_in_edges, s.num_out_edges, with_weights
                )
                for s in sharded.shards
            }
        else:
            # In-RAM shards are already materialized: use the actual
            # array footprints so worker/single comparisons share units
            # (the per-worker segment holds exactly these arrays).
            shard_bytes = {
                s.index: sum(a.nbytes for a in _shard_arrays(s).values())
                for s in sharded.shards
            }

        # --- bootstrap state segment (doubles as the main-side shadow) --
        out_deg = np.asarray(ctx.out_degrees)
        in_deg = np.asarray(ctx.in_degrees)
        state_arrays = {
            "vertex_values": self._compute.vertex_values,
            "current": self._frontier.current,
            "changed": self._frontier.changed,
            "out_degrees": out_deg,
            "in_degrees": in_deg,
        }
        if self._compute.edge_state is not None:
            state_arrays["edge_state"] = self._compute.edge_state
        state_shm, state_toc = _create_segment(state_arrays, "state")
        self._segments.append(state_shm)
        self._state_views = _segment_views(state_shm, state_toc, writable=True)

        vv = self._compute.vertex_values
        self._vrow_bytes = vv.nbytes // max(n, 1)
        es = self._compute.edge_state
        self._erow_bytes = es.nbytes // max(num_edges, 1) if es is not None else 0
        # Worker-side run state: values + gather scratch (same shape),
        # bool masks + gather_has, edge state, degree arrays.
        state_bytes = (
            2 * vv.nbytes
            + 3 * n
            + (es.nbytes if es is not None else 0)
            + out_deg.nbytes
            + in_deg.nbytes
        )

        self._pending_v = [np.zeros(n, dtype=bool) for _ in range(self.num_workers)]
        self._readable_v = []
        self._pending_e = (
            [np.zeros(num_edges, dtype=bool) for _ in range(self.num_workers)]
            if es is not None
            else None
        )
        self._mask_range = []
        self._mailboxes = []
        self._mbox_seq = [0] * self.num_workers
        self.worker_resident_bytes = []
        self.single_process_bytes = sum(shard_bytes.values()) + state_bytes

        spec_base = {
            "t0": self._t0,
            "program": program,
            "num_vertices": n,
            "num_edges": num_edges,
            "boundaries": np.asarray(sharded.boundaries),
            "state": (state_shm.name, state_toc),
            "dense": dense,
            "plan_budget": plan_budget,
            "kernel_backend": kernel_backend,
        }
        self._result_q = spawn.Queue()
        for w in range(self.num_workers):
            owned = [sharded.shards[i] for i in ownership.shards_of(w)]
            # Contiguous ownership: the owned vertex set is one range.
            lo = min(s.start for s in owned)
            hi = max(s.stop for s in owned)

            if store is not None:
                graph_spec = ("store", str(store.path), bool(unit_weights))
                # Store workers fault in their owned shards (count math).
                graph_bytes = sum(shard_bytes[s.index] for s in owned)
            else:
                arrays = {}
                for s in owned:
                    arrays.update(_shard_arrays(s))
                graph_shm, graph_toc = _create_segment(arrays, f"graph{w}")
                self._segments.append(graph_shm)
                graph_spec = ("shm", graph_shm.name, graph_toc)
                # Mapped zero-copy, so the segment's size *is* the
                # worker's shard footprint.
                graph_bytes = graph_shm.size

            readable = np.zeros(n, dtype=bool)
            readable[lo:hi] = True
            readable[in_bounds[w]] = True
            self._readable_v.append(readable)
            mask_lo, mask_hi = (lo, hi) if self._policy == "partitioned" else (0, n)
            self._mask_range.append((mask_lo, mask_hi))

            # Fixed mailbox slots sized to the worker's full readable
            # set -- the sparse exchange can never overflow them.
            cap_v = (hi - lo) + len(in_bounds[w])
            packed = (mask_hi - mask_lo + 7) // 8
            mbox_arrays = {
                "header": np.zeros(4, dtype=np.int64),
                "vidx": np.zeros(cap_v, dtype=np.int64),
                "vvals": np.zeros((cap_v,) + vv.shape[1:], dtype=vv.dtype),
                "cur": np.zeros(packed, dtype=np.uint8),
                "chg": np.zeros(packed, dtype=np.uint8),
            }
            if es is not None:
                mbox_arrays["eidx"] = np.zeros(num_edges, dtype=np.int64)
                mbox_arrays["evals"] = np.zeros(num_edges, dtype=es.dtype)
            mbox_shm, mbox_toc = _create_segment(mbox_arrays, f"mbox{w}")
            self._segments.append(mbox_shm)
            self._mailboxes.append(
                {
                    "views": _segment_views(mbox_shm, mbox_toc, writable=True),
                    "cap_v": cap_v,
                    "packed": packed,
                }
            )
            self.worker_resident_bytes.append(
                graph_bytes + state_bytes + mbox_shm.size
            )

            spec = dict(
                spec_base,
                worker_id=w,
                shards=[(s.index, s.start, s.stop) for s in owned],
                graph=graph_spec,
                mailbox=(mbox_shm.name, mbox_toc),
                mask_range=(mask_lo, mask_hi),
            )
            task_q = spawn.SimpleQueue()
            proc = spawn.Process(
                target=_worker_main,
                args=(spec, task_q, self._result_q),
                name=f"repro-pool-{w}",
                daemon=True,
            )
            proc.start()
            self._task_qs.append(task_q)
            self._procs.append(proc)
        self._await_ready()

    def _await_ready(self) -> None:
        ready = 0
        deadline = perf_counter() + 120.0
        while ready < self.num_workers:
            try:
                msg = self._result_q.get(timeout=0.2)
            except queue.Empty:
                self._check_alive()
                if perf_counter() > deadline:
                    raise WorkerCrashed("pool workers did not finish attaching in time")
                continue
            if msg[0] == "ready":
                ready += 1
                if self._heartbeats is not None:
                    self._heartbeats.register(f"worker-{msg[1]}", kind="worker")
            elif msg[0] == "init_error":
                raise WorkerCrashed(f"worker {msg[1]} failed to attach:\n{msg[2]}")

    def _check_alive(self) -> None:
        for w, proc in enumerate(self._procs):
            if not proc.is_alive():
                raise WorkerCrashed(f"worker {w} died (exit code {proc.exitcode})")

    # ------------------------------------------------------------------
    def _accumulate_pending(self) -> None:
        """Diff live state vs the shadow; fold dirty rows into pending.

        An O(n) compare instead of tracking every mutation site: robust
        to any write path (delta replay, ``frontier.advance``, reseeds,
        the direction controller's ``activate_all``). The shadow then
        catches up, so each row is shipped to each worker at most once
        per change.
        """
        t0 = perf_counter()
        views = self._state_views
        live = self._compute.vertex_values
        shadow = views["vertex_values"]
        dirty = live != shadow
        if dirty.ndim > 1:
            dirty = dirty.any(axis=1)
        if dirty.any():
            rows = np.flatnonzero(dirty)
            shadow[rows] = live[rows]
            for w in range(self.num_workers):
                readable = self._readable_v[w]
                self._pending_v[w][rows[readable[rows]]] = True
        es = self._compute.edge_state
        if es is not None:
            e_shadow = views["edge_state"]
            e_dirty = es != e_shadow
            if e_dirty.ndim > 1:
                e_dirty = e_dirty.any(axis=1)
            if e_dirty.any():
                eids = np.flatnonzero(e_dirty)
                e_shadow[eids] = es[eids]
                for w in range(self.num_workers):
                    self._pending_e[w][eids] = True
        self.publish_seconds += perf_counter() - t0

    def _fill_mailbox(self, w: int) -> None:
        """Pack worker ``w``'s pending rows + fresh bitmaps; bump seq."""
        mb = self._mailboxes[w]
        views = mb["views"]
        pend = self._pending_v[w]
        rows = np.flatnonzero(pend)
        k = len(rows)
        if k:
            views["vidx"][:k] = rows
            views["vvals"][:k] = self._compute.vertex_values[rows]
            pend[:] = False
        lo, hi = self._mask_range[w]
        views["cur"][...] = np.packbits(self._frontier.current[lo:hi])
        views["chg"][...] = np.packbits(self._frontier.changed[lo:hi])
        m = 0
        if self._pending_e is not None:
            pe = self._pending_e[w]
            eids = np.flatnonzero(pe)
            m = len(eids)
            if m:
                views["eidx"][:m] = eids
                views["evals"][:m] = self._compute.edge_state[eids]
                pe[:] = False
        self._mbox_seq[w] += 1
        header = views["header"]
        header[1] = k
        header[2] = m
        # The sequence number is written last: a worker acts on the
        # payload only after seeing the new seq (and only after the
        # task-queue message that itself follows this write).
        header[0] = self._mbox_seq[w]
        self.mailbox_publishes += 1
        if k >= mb["cap_v"]:
            self.mailbox_stalls += 1
        self.boundary_bytes_sent += (
            k * (8 + self._vrow_bytes) + 2 * mb["packed"] + m * (8 + self._erow_bytes)
        )

    def phase_run(self, group, shards, iteration: int, count_full: bool):
        """Mailbox publish + dispatch, one owner at a time; returns the
        collector.

        Owner ``w``'s tasks are enqueued immediately after its mailbox
        write, so its compute overlaps the packing of every later
        owner's deltas. The returned callable is handed to
        ``DataMovementEngine.run_phase`` as the per-shard compute
        function: it blocks for that shard's result and replays its
        deltas. ``run_phase`` consumes shards in their original order,
        so the replay -- and with it every frontier/vertex write and
        observer count -- lands in exactly the serial order.
        """
        self._accumulate_pending()
        self._sync_id += 1
        by_worker: dict[int, list] = {}
        for shard in shards:
            by_worker.setdefault(self._owner_of[shard.index], []).append(shard)
        for w in sorted(by_worker):
            self._fill_mailbox(w)
            for shard in by_worker[w]:
                self._task_qs[w].put(
                    (
                        _TASK,
                        self._sync_id,
                        iteration,
                        tuple(group.phases),
                        shard.index,
                        count_full,
                    )
                )
        self.tasks += len(shards)
        self.max_inflight = max(self.max_inflight, len(shards))
        self._obs.add("procpool.tasks", len(shards))
        if self._heartbeats is not None:
            for shard in shards:
                w = self._owner_of[shard.index]
                self._outstanding[w] += 1
                self._heartbeats.busy(f"worker-{w}", True)
        pending: dict[int, tuple] = {}

        def collect(shard):
            payload = self._await_result(shard.index, pending)
            return self._replay(payload)

        return collect

    def _await_result(self, index: int, pending: dict) -> tuple:
        t0 = perf_counter()
        deadline = t0 + self.task_timeout
        while index not in pending:
            try:
                msg = self._result_q.get(timeout=0.1)
            except queue.Empty:
                self._check_alive()
                self._check_stalled(index)
                if perf_counter() > deadline:
                    raise WorkerCrashed(f"timed out waiting for shard {index}")
                continue
            kind = msg[0]
            if kind == "ok":
                pending[msg[1]] = msg
                if self._heartbeats is not None:
                    w = msg[2]
                    self._outstanding[w] -= 1
                    self._heartbeats.beat(f"worker-{w}")
                    if self._outstanding[w] <= 0:
                        self._heartbeats.busy(f"worker-{w}", False)
            elif kind == "task_error":
                raise WorkerCrashed(f"worker {msg[2]} raised on shard {msg[1]}:\n{msg[3]}")
            # "ready"/"bye" stragglers are ignored
        self.wait_seconds += perf_counter() - t0
        return pending.pop(index)

    def _check_stalled(self, index: int) -> None:
        """Escalate a confirmed worker stall to :class:`WorkerCrashed`.

        Run from the blocking result wait: the one place the pool can
        still act on a hang. A worker counts as stalled only when it
        has tasks outstanding (idle workers legitimately emit no beats)
        and its last heartbeat is older than the telemetry stall
        timeout -- a SIGSTOP'd or livelocked worker, not a slow one.
        """
        if self._heartbeats is None or not self._stall_timeout:
            return
        w = self._owner_of[index]
        if self._outstanding[w] <= 0:
            return
        name = f"worker-{w}"
        age = self._heartbeats.age(name)
        if age is None or age <= self._stall_timeout:
            return
        from repro.obs.health import Incident

        incident = Incident(
            kind="stall",
            component=name,
            component_kind="worker",
            age=age,
            wall_time=self._heartbeats.clock(),
            details=(
                f"worker {w} has shard {index} outstanding with no "
                f"heartbeat for {age:.3f}s "
                f"(stall timeout {self._stall_timeout:.3f}s); "
                "escalating to serial fallback"
            ),
        )
        if self._telemetry is not None:
            self._telemetry.watchdog.incident(incident)
        raise WorkerCrashed(incident.details)

    def _replay(self, payload: tuple) -> WorkItems:
        _, shard_index, worker_id, per_phase, deltas, t_start, t_end = payload
        obs = self._obs
        compute = self._compute
        frontier = self._frontier
        work = WorkItems()
        record = obs.enabled
        for phase, edge_items, vertex_items in per_phase:
            if record:
                obs.add(f"compute.{phase}.edge_items", edge_items)
                obs.add(f"compute.{phase}.vertex_items", vertex_items)
            work.edge_items += edge_items
            work.vertex_items += vertex_items
        for d in deltas:
            self.delta_bytes_merged += sum(
                part.nbytes for part in d[1:] if isinstance(part, np.ndarray)
            )
            kind = d[0]
            if kind == "vd":
                compute.vertex_values[d[1] : d[2]] = d[3]
                compute.invalidate_premap()
            elif kind == "vr":
                compute.vertex_values[d[1]] = d[2]
                compute.invalidate_premap()
            elif kind == "mc":
                frontier.mark_changed(d[1])
            elif kind == "an":
                frontier.activate_next(d[1], count=d[2])
            elif kind == "es":
                compute.edge_state[d[1]] = d[2]
        self.lane.append((worker_id, shard_index, t_start, t_end))
        return work

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._heartbeats is not None:
            for w in range(self.num_workers):
                self._heartbeats.unregister(f"worker-{w}")
        for task_q in self._task_qs:
            try:
                task_q.put((_STOP,))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        # Best-effort: collect the workers' parting plan-cache stats.
        while True:
            try:
                msg = self._result_q.get_nowait()
            except Exception:
                break
            if msg[0] == "bye":
                self.worker_plan_stats.append(msg[2])
                if len(msg) > 3 and msg[3]:
                    self.worker_kernel_stats.append(msg[3])
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        try:
            self._result_q.close()
        except Exception:
            pass
        for shm in self._segments:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        self._segments = []

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Totals + wall-clock lane for the profiler and Chrome trace."""
        plans = None
        if self.worker_plan_stats:
            plans = {
                key: sum(s.get(key, 0) for s in self.worker_plan_stats)
                for key in (
                    "hits", "misses", "evictions", "sparse_bypass", "held_bytes",
                )
            }
            total = plans["hits"] + plans["misses"]
            plans["hit_rate"] = plans["hits"] / total if total else 0.0
        kernels = None
        if self.worker_kernel_stats:
            kernels = {"backend": self.worker_kernel_stats[0].get("backend")}
            for key in (
                "fused_calls", "fallbacks", "premaps", "merged_groups",
                "allocations", "reuses", "held_bytes",
            ):
                kernels[key] = sum(
                    s.get(key, 0) for s in self.worker_kernel_stats
                )
        return {
            "workers": self.num_workers,
            "tasks": self.tasks,
            "max_inflight": self.max_inflight,
            "publish_seconds": self.publish_seconds,
            "wait_seconds": self.wait_seconds,
            "plan_cache": plans,
            "kernels": kernels,
            "lane": list(self.lane),
            "frontier_policy": self._policy,
            "owned_shards": [
                len(self._ownership.shards_of(w)) for w in range(self.num_workers)
            ],
            "boundary_in_sizes": list(self.boundary_in_sizes),
            "boundary_out_sizes": list(self.boundary_out_sizes),
            "worker_resident_bytes": list(self.worker_resident_bytes),
            "single_process_bytes": self.single_process_bytes,
            "boundary_bytes_sent": self.boundary_bytes_sent,
            "delta_bytes_merged": self.delta_bytes_merged,
            "mailbox_publishes": self.mailbox_publishes,
            "mailbox_stalls": self.mailbox_stalls,
        }
