"""The bottleneck-attribution profiler.

Consumes a finished run's span tree (:mod:`repro.obs.span`), device
interval trace (:mod:`repro.sim.trace`) and per-engine utilization
timelines (:meth:`repro.sim.resources.FluidResource.profile_snapshot`)
and produces a structured :class:`ProfileReport`:

* **per-engine occupancy** -- busy/idle timelines for the h2d/d2h copy
  engines and the SM pool, plus per-stream activity (spray streams
  included), reconciling exactly with the Chrome trace export because
  both read the same service windows;
* **overlap efficiency** -- the fraction of PCIe transfer time hidden
  under kernels (the paper's Figure-5 argument), overall and per
  iteration;
* **frontier-skip effectiveness** -- shards skipped, the traffic that
  skipping avoided (Figures 16-17);
* a **bottleneck verdict** with the single highest-leverage tuning
  recommendation (:mod:`repro.obs.attribution`); and
* a **model-validation pass** replaying Eq. (1)/(2) and the
  ``docs/cost-model.md`` per-op models against observed timings.

``repro profile`` wires this into the CLI (human-readable table +
machine-readable ``profile.json``); ``repro bench-diff`` compares two
such documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.attribution import (
    MODEL_TOLERANCE,
    ModelCheck,
    Verdict,
    diagnose,
    predict_concurrent_shards,
    validate_cost_model,
)

PROFILE_VERSION = 1


# ----------------------------------------------------------------------
# Interval algebra (plain (start, end) pairs)
# ----------------------------------------------------------------------
def merge_intervals(pairs) -> list[tuple[float, float]]:
    """Union of (start, end) pairs as a sorted, disjoint list."""
    merged: list[list[float]] = []
    for start, end in sorted(pairs):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def intersect_intervals(a, b) -> list[tuple[float, float]]:
    """Intersection of two disjoint sorted interval lists."""
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def total_length(pairs) -> float:
    return sum(e - s for s, e in pairs)


def clip_intervals(pairs, t0: float, t1: float) -> list[tuple[float, float]]:
    """The part of a disjoint sorted interval list inside [t0, t1]."""
    return [(max(s, t0), min(e, t1)) for s, e in pairs if s < t1 and e > t0]


# ----------------------------------------------------------------------
# Report pieces
# ----------------------------------------------------------------------
def plan_summary(pc: dict) -> str:
    """One-line reading of a ``PlanCache.stats()`` block: dense-plan
    reuse, row-built queries, pinned bytes."""
    hits, misses = pc.get("hits", 0), pc.get("misses", 0)
    rate = 100 * hits / (hits + misses) if hits + misses else 0.0
    return (
        f"dense plans: {hits} hits / {misses} misses ({rate:.1f}%) · "
        f"row-built: {pc.get('sparse_bypass', 0)} · "
        f"held: {pc.get('held_bytes', 0) / 1e6:.1f} MB"
    )


def kernel_summary(k: dict) -> str:
    """One-line reading of ``ComputeEngine.kernel_stats()``: calls
    fused, iteration-scoped routes taken."""
    verified = {None: "not attempted", True: "true", False: "false"}[k.get("relay_verified")]
    return (
        f"{k.get('backend')} backend, "
        f"{k.get('fused_calls', 0)} fused calls, "
        f"{k.get('fallbacks', 0)} fallbacks, "
        f"{k.get('premaps', 0)} premaps, "
        f"{k.get('merged_groups', 0)} merged groups, "
        f"{k.get('relayed_gathers', 0)} relayed gathers (relay verified: {verified}), "
        f"arena {k.get('reuses', 0)} reuses"
    )


@dataclass
class EngineProfile:
    """Busy/idle accounting for one hardware engine."""

    name: str
    #: wall time with at least one job in service (union of windows)
    busy_seconds: float
    #: capacity-weighted integral -- busy_seconds discounts sharing,
    #: this does not (a half-rate second counts 0.5)
    utilization_seconds: float
    #: total work units delivered (bytes for copy engines,
    #: machine-seconds for the SM pool)
    served_work: float
    #: busy_seconds / makespan
    occupancy: float
    #: merged (start, end) busy windows -- the idle gaps between them
    #: are exactly the engine's idle timeline
    busy_intervals: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "busy_seconds": self.busy_seconds,
            "utilization_seconds": self.utilization_seconds,
            "served_work": self.served_work,
            "occupancy": self.occupancy,
            "busy_intervals": [list(p) for p in self.busy_intervals],
        }


@dataclass
class StreamProfile:
    """Activity summary for one simulated stream (spray streams too)."""

    name: str
    busy_seconds: float
    transfers: int
    kernels: int
    bytes: float
    items: float

    def to_dict(self) -> dict:
        return {
            "busy_seconds": self.busy_seconds,
            "transfers": self.transfers,
            "kernels": self.kernels,
            "bytes": self.bytes,
            "items": self.items,
        }


@dataclass
class IterationOverlap:
    """Per-iteration compute/transfer overlap (the Figure-5 view)."""

    index: int
    start: float
    end: float
    frontier: int
    transfer_busy: float
    kernel_busy: float
    hidden_transfer: float
    shards_processed: int
    shards_skipped: int

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of this iteration's transfer time hidden under kernels."""
        return self.hidden_transfer / self.transfer_busy if self.transfer_busy else 0.0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "frontier": self.frontier,
            "transfer_busy": self.transfer_busy,
            "kernel_busy": self.kernel_busy,
            "hidden_transfer": self.hidden_transfer,
            "overlap_efficiency": self.overlap_efficiency,
            "shards_processed": self.shards_processed,
            "shards_skipped": self.shards_skipped,
        }


@dataclass
class OverlapSummary:
    transfer_busy: float
    kernel_busy: float
    hidden_transfer: float
    device_busy: float

    @property
    def efficiency(self) -> float:
        """Overall fraction of PCIe transfer time hidden under kernels."""
        return self.hidden_transfer / self.transfer_busy if self.transfer_busy else 0.0

    def to_dict(self) -> dict:
        return {
            "transfer_busy": self.transfer_busy,
            "kernel_busy": self.kernel_busy,
            "hidden_transfer": self.hidden_transfer,
            "device_busy": self.device_busy,
            "efficiency": self.efficiency,
        }


@dataclass
class FrontierSkipProfile:
    shards_processed: int
    shards_skipped: int
    iterations: int
    iterations_with_skips: int
    #: estimated PCIe bytes that skipping avoided (skipped shards at the
    #: observed average streamed-bytes-per-processed-shard)
    est_bytes_saved: float

    @property
    def skip_rate(self) -> float:
        total = self.shards_processed + self.shards_skipped
        return self.shards_skipped / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "shards_processed": self.shards_processed,
            "shards_skipped": self.shards_skipped,
            "skip_rate": self.skip_rate,
            "iterations": self.iterations,
            "iterations_with_skips": self.iterations_with_skips,
            "est_bytes_saved": self.est_bytes_saved,
        }


@dataclass
class ProfileReport:
    """Everything ``repro profile`` prints and serializes."""

    algo: str
    graph: str
    sim_time: float
    memcpy_time: float
    kernel_time: float
    iterations: int
    concurrent_shards: int
    engines: dict[str, EngineProfile]
    streams: dict[str, StreamProfile]
    overlap: OverlapSummary
    per_iteration: list[IterationOverlap]
    frontier: FrontierSkipProfile
    phases: dict[str, dict]
    counters: dict
    verdict: Verdict
    validation: list[ModelCheck]
    #: gather-plan cache totals of the host fast paths (repro.core.plans)
    plan_cache: dict = field(default_factory=dict)
    #: host shard-prefetch counters of out-of-core runs (repro.core.movement)
    prefetch: dict = field(default_factory=dict)
    #: multi-device scaling projection (``repro profile --devices N``):
    #: the same run re-executed on the simulated multi-device scheduler
    devices: dict = field(default_factory=dict)
    #: fused-kernel layer totals (repro.core.kernels): backend name,
    #: fused calls, fallbacks, scratch-arena reuse
    kernels: dict = field(default_factory=dict)
    #: histogram summaries (count/mean/p50/p90/p99 + log2 buckets) of
    #: every observed distribution (frontier sizes, ...)
    histograms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_VERSION,
            "profile_version": PROFILE_VERSION,
            "algo": self.algo,
            "graph": self.graph,
            "sim_time": self.sim_time,
            "memcpy_time": self.memcpy_time,
            "kernel_time": self.kernel_time,
            "iterations": self.iterations,
            "concurrent_shards": self.concurrent_shards,
            "engines": {n: e.to_dict() for n, e in self.engines.items()},
            "streams": {n: s.to_dict() for n, s in self.streams.items()},
            "overlap": self.overlap.to_dict(),
            "per_iteration": [it.to_dict() for it in self.per_iteration],
            "frontier": self.frontier.to_dict(),
            "phases": self.phases,
            "counters": self.counters,
            "histograms": self.histograms,
            "plan_cache": self.plan_cache,
            "prefetch": self.prefetch,
            "devices": self.devices,
            "kernels": self.kernels,
            "verdict": self.verdict.to_dict(),
            "model_validation": [c.to_dict() for c in self.validation],
        }

    def to_text(self) -> str:
        t = self.sim_time or 1e-30
        lines = [
            f"profile: {self.algo} on {self.graph} "
            f"({self.iterations} iterations, K={self.concurrent_shards})",
            f"simulated time     : {self.sim_time:.6f} s",
            "",
            f"{'engine':10s} {'busy (s)':>12s} {'occupancy':>10s} {'served':>14s}",
        ]
        for name in sorted(self.engines):
            e = self.engines[name]
            unit = "items·s" if name == "sm" else "B"
            lines.append(
                f"{name:10s} {e.busy_seconds:12.6f} {100 * e.occupancy:9.1f}% "
                f"{e.served_work:14.3e} {unit}"
            )
        lines += [
            "",
            f"overlap            : transfer busy {self.overlap.transfer_busy:.6f} s, "
            f"kernel busy {self.overlap.kernel_busy:.6f} s",
            f"                     {100 * self.overlap.efficiency:.1f}% of transfer "
            "time hidden under kernels",
            f"frontier skipping  : {self.frontier.shards_skipped}/"
            f"{self.frontier.shards_processed + self.frontier.shards_skipped} shard-"
            f"phases skipped ({100 * self.frontier.skip_rate:.1f}%), "
            f"~{self.frontier.est_bytes_saved / 2**20:.2f} MiB of PCIe avoided",
            self._plan_cache_line(),
            self._kernels_line(),
            self._prefetch_line(),
            self._devices_line(),
            "",
            f"bottleneck         : {self.verdict.bottleneck} "
            f"({100 * self.verdict.share:.0f}% of makespan)",
            f"  why              : {self.verdict.reason}",
            f"  recommendation   : {self.verdict.recommendation}",
            "",
            "model validation (predicted vs observed):",
        ]
        for c in self.validation:
            mark = "ok " if c.ok else "FAIL"
            lines.append(
                f"  [{mark}] {c.name:24s} {c.predicted:.6e} vs {c.observed:.6e} "
                f"(err {100 * c.rel_error:.2f}%, tol {100 * c.tolerance:.0f}%)"
            )
        busiest = sorted(
            self.streams.values(), key=lambda s: -s.busy_seconds
        )[:8]
        if busiest:
            lines += ["", f"{'stream':14s} {'busy (s)':>12s} {'copies':>7s} {'kernels':>8s}"]
            for s in busiest:
                lines.append(
                    f"{s.name:14s} {s.busy_seconds:12.6f} {s.transfers:7d} {s.kernels:8d}"
                )
        if self.histograms:
            lines += [
                "",
                f"{'distribution':26s} {'count':>8s} {'mean':>11s} "
                f"{'p50':>11s} {'p90':>11s} {'p99':>11s}",
            ]
            for name in sorted(self.histograms):
                h = self.histograms[name]
                p = h.get("percentiles", {})
                lines.append(
                    f"{name:26s} {h.get('count', 0):8d} {h.get('mean', 0.0):11.4g} "
                    f"{p.get('p50', 0.0):11.4g} {p.get('p90', 0.0):11.4g} "
                    f"{p.get('p99', 0.0):11.4g}"
                )
        return "\n".join(lines)

    def _plan_cache_line(self) -> str:
        pc = self.plan_cache
        if not (pc.get("hits") or pc.get("misses") or pc.get("sparse_bypass")):
            return "plan cache         : disabled (no plan queries recorded)"
        return f"plan cache         : {plan_summary(pc)} (host fast path)"

    def _kernels_line(self) -> str:
        k = self.kernels
        if not k.get("backend"):
            return "kernels            : n/a (kernel backend off)"
        return (
            f"kernels            : {kernel_summary(k)} / "
            f"{k.get('allocations', 0)} allocations "
            f"({k.get('held_bytes', 0) / 2**20:.2f} MiB held)"
        )

    def _prefetch_line(self) -> str:
        pf = self.prefetch
        acquired = pf.get("hits", 0) + pf.get("faults", 0)
        if not acquired:
            return "host prefetch      : n/a (in-RAM run)"
        line = (
            f"host prefetch      : {pf.get('hits', 0)}/{acquired} resident "
            f"({100 * pf.get('hit_rate', 0.0):.1f}%), "
            f"{pf.get('faults', 0)} faults, {pf.get('evictions', 0)} evictions, "
            f"{pf.get('bytes_loaded', 0) / 2**20:.2f} MiB faulted in, "
            f"{pf.get('released_bytes', 0) / 2**20:.2f} MiB released"
        )
        if "capacity" in pf:
            line += f" (capacity {pf['capacity']})"
        return line

    def _devices_line(self) -> str:
        d = self.devices
        if not d:
            return "devices            : 1 (pass --devices N for a multi-device projection)"
        return (
            f"devices            : {d.get('num_devices', 0)} simulated, "
            f"frontier {d.get('frontier_policy', '?')}, "
            f"sim {d.get('sim_time', 0.0):.6f} s "
            f"({d.get('speedup_vs_profiled', 0.0):.2f}x vs profiled run); "
            f"replication {d.get('replication_bytes', 0) / 2**20:.2f} MiB "
            f"(peer DMA {d.get('p2p_bytes', 0) / 2**20:.2f}, "
            f"host-staged {d.get('host_staged_bytes', 0) / 2**20:.2f})"
        )

    @property
    def validation_ok(self) -> bool:
        return all(c.ok for c in self.validation)


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def build_profile(result, machine=None, tolerance: float = MODEL_TOLERANCE) -> ProfileReport:
    """Profile one :class:`~repro.core.runtime.GraphReduceResult`.

    Needs the default observability switches (``observe=True``,
    ``trace=True``); raises ValueError otherwise. ``machine`` is the
    spec the run executed on (defaults to the standard testbed).
    """
    from repro.core.report import build_report

    if result.trace is None or not result.trace.enabled:
        raise ValueError("profiling needs the device trace (options.trace=True)")
    obs = result.observer
    if obs is None or not obs.enabled:
        raise ValueError("profiling needs the span tree (options.observe=True)")
    makespan = result.sim_time or 1e-30

    # -- engines --------------------------------------------------------
    engines: dict[str, EngineProfile] = {}
    for name, snap in (result.engine_snapshots or {}).items():
        busy = merge_intervals(
            (s, e) for s, e, _frac in snap["timeline"]
        )
        engines[name] = EngineProfile(
            name=name,
            busy_seconds=total_length(busy),
            utilization_seconds=snap["busy_time"],
            served_work=snap["served_work"],
            occupancy=total_length(busy) / makespan,
            busy_intervals=busy,
        )

    # -- streams --------------------------------------------------------
    intervals = result.trace.intervals  # built on each read: read once
    per_stream: dict[str, list] = {}
    for iv in intervals:
        per_stream.setdefault(iv.stream, []).append(iv)
    streams = {}
    for name, ivs in per_stream.items():
        streams[name] = StreamProfile(
            name=name,
            busy_seconds=total_length(
                merge_intervals((iv.service_begin, iv.end) for iv in ivs)
            ),
            transfers=sum(1 for iv in ivs if iv.category in ("h2d", "d2h")),
            kernels=sum(1 for iv in ivs if iv.category == "kernel"),
            bytes=sum(iv.amount for iv in ivs if iv.category in ("h2d", "d2h")),
            items=sum(iv.amount for iv in ivs if iv.category == "kernel"),
        )

    # -- overlap --------------------------------------------------------
    transfer_iv = merge_intervals(
        (iv.service_begin, iv.end) for iv in intervals if iv.category in ("h2d", "d2h")
    )
    kernel_iv = merge_intervals(
        (iv.service_begin, iv.end) for iv in intervals if iv.category == "kernel"
    )
    hidden_iv = intersect_intervals(transfer_iv, kernel_iv)
    device_iv = merge_intervals((iv.service_begin, iv.end) for iv in intervals)
    overlap = OverlapSummary(
        transfer_busy=total_length(transfer_iv),
        kernel_busy=total_length(kernel_iv),
        hidden_transfer=total_length(hidden_iv),
        device_busy=total_length(device_iv),
    )

    # -- per-iteration overlap -----------------------------------------
    stats_by_index = {st.iteration: st for st in result.iteration_stats}
    per_iteration: list[IterationOverlap] = []
    for sp in obs.find(category="iteration"):
        t0, t1 = sp.start, sp.end if sp.end is not None else sp.start
        tr = clip_intervals(transfer_iv, t0, t1)
        kr = clip_intervals(kernel_iv, t0, t1)
        st = stats_by_index.get(sp.attrs.get("index"))
        per_iteration.append(IterationOverlap(
            index=int(sp.attrs.get("index", len(per_iteration))),
            start=t0,
            end=t1,
            frontier=int(sp.attrs.get("frontier", 0)),
            transfer_busy=total_length(tr),
            kernel_busy=total_length(kr),
            hidden_transfer=total_length(intersect_intervals(tr, kr)),
            shards_processed=st.shards_processed if st else 0,
            shards_skipped=st.shards_skipped if st else 0,
        ))

    # -- frontier skipping ---------------------------------------------
    processed = result.stats.shards_processed
    skipped = result.stats.shards_skipped
    bytes_per_shard = (
        result.stats.h2d_bytes / processed if processed else 0.0
    )
    frontier = FrontierSkipProfile(
        shards_processed=processed,
        shards_skipped=skipped,
        iterations=result.iterations,
        iterations_with_skips=sum(
            1 for st in result.iteration_stats if st.shards_skipped
        ),
        est_bytes_saved=skipped * bytes_per_shard,
    )

    # -- phases ---------------------------------------------------------
    report = build_report(result)
    phases = {
        name: {
            "h2d_bytes": ph.h2d_bytes,
            "d2h_bytes": ph.d2h_bytes,
            "transfer_time": ph.transfer_time,
            "kernel_time": ph.kernel_time,
            "kernel_launches": ph.kernel_launches,
            "wall_time": ph.wall_time,
            "total_time": ph.total_time,
            "shards": ph.shards,
            "skipped": ph.skipped,
        }
        for name, ph in report.phases.items()
    }

    # -- verdict + validation ------------------------------------------
    cache_attrs: dict = {}
    for sp in obs.find(category="phase", name="cache"):
        cache_attrs = sp.attrs
        break
    eq2_optimum = predict_concurrent_shards({**cache_attrs, "async_streams": True})
    metrics = obs.metrics
    sm = engines.get("sm")
    verdict = diagnose(
        makespan=makespan,
        transfer_busy=overlap.transfer_busy,
        kernel_busy=overlap.kernel_busy,
        hidden_transfer=overlap.hidden_transfer,
        device_busy=overlap.device_busy,
        skip_rate=frontier.skip_rate,
        kernel_launches=metrics.value("movement.kernel.launches"),
        copies=metrics.value("movement.h2d.copies")
        + metrics.value("movement.d2h.copies"),
        concurrent_shards=result.concurrent_shards,
        eq2_optimum=eq2_optimum,
        spray_batches=metrics.value("movement.spray.batches"),
        sm_occupancy=sm.occupancy if sm else 0.0,
        cache_policy=str(cache_attrs.get("policy", "")),
        machine=machine,
    )
    validation = validate_cost_model(result, machine=machine, tolerance=tolerance)

    # -- host plan cache (repro.core.plans) ----------------------------
    plan_cache = getattr(result, "plan_cache", None)
    if plan_cache is None:
        hits = metrics.value("plans.hits")
        misses = metrics.value("plans.misses")
        plan_cache = {
            "hits": int(hits),
            "misses": int(misses),
            "sparse_bypass": int(metrics.value("plans.sparse_bypass")),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

    # -- host shard prefetch (repro.core.movement) ---------------------
    prefetch = getattr(result, "prefetch", None)
    if prefetch is None:
        hits = metrics.value("prefetch.hits")
        faults = metrics.value("prefetch.faults")
        acquired = hits + faults
        prefetch = {}
        if acquired:
            prefetch = {
                "hits": int(hits),
                "faults": int(faults),
                "evictions": int(metrics.value("prefetch.evictions")),
                "bytes_loaded": int(metrics.value("prefetch.bytes")),
                "released_bytes": int(metrics.value("prefetch.released_bytes")),
                "hit_rate": hits / acquired,
            }

    # -- fused kernel layer (repro.core.kernels) -----------------------
    kernels = getattr(result, "kernels", None)
    if kernels is None:
        fused = metrics.value("kernels.fused_calls")
        fallbacks = metrics.value("kernels.fallbacks")
        kernels = {}
        if fused or fallbacks:
            kernels = {"fused_calls": int(fused), "fallbacks": int(fallbacks)}

    run_attrs: dict = {}
    for sp in obs.find(category="run"):
        run_attrs = sp.attrs
        break
    return ProfileReport(
        algo=str(run_attrs.get("algo", "?")),
        graph=str(run_attrs.get("graph", "?")),
        sim_time=result.sim_time,
        memcpy_time=result.memcpy_time,
        kernel_time=result.kernel_time,
        iterations=result.iterations,
        concurrent_shards=result.concurrent_shards,
        engines=engines,
        streams=streams,
        overlap=overlap,
        per_iteration=per_iteration,
        frontier=frontier,
        phases=phases,
        counters={n: c.value for n, c in sorted(metrics.counters.items())},
        histograms={
            n: h.to_dict() for n, h in sorted(metrics.histograms.items()) if h.count
        },
        verdict=verdict,
        validation=validation,
        plan_cache=plan_cache,
        prefetch=prefetch,
        kernels=kernels,
    )


def write_profile(path, report: ProfileReport) -> Path:
    """Serialize a report to ``profile.json`` form; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return path
