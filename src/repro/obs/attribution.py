"""Bottleneck attribution and cost-model validation.

Two consumers of a finished run's evidence:

* :func:`diagnose` turns the occupancy/overlap numbers into a
  **bottleneck verdict** -- transfer-bound, compute-bound,
  launch-overhead or skip-dominated -- with the single
  highest-leverage tuning recommendation and an estimated speedup,
  the way a human reads a Perfetto timeline (Figure 5, Figure 15).
* :func:`validate_cost_model` **replays the cost model** -- the
  Eq. (1)/(2) resident-shard derivation of K and the per-op models of
  ``docs/cost-model.md`` -- against the observed run and flags any
  divergence beyond tolerance. The simulator and the analytic model
  share their constants, so the expected error is ~0; a check that
  fails means the model in the docs and the model in the code have
  drifted apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Relative error beyond which a model check fails. The DES implements
#: the analytic model directly, so agreement should be near-exact; 2%
#: leaves room only for float accumulation order.
MODEL_TOLERANCE = 0.02


@dataclass(frozen=True)
class ModelCheck:
    """One predicted-vs-observed comparison of the cost model."""

    name: str
    predicted: float
    observed: float
    tolerance: float
    detail: str = ""

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.predicted), abs(self.observed))
        if scale == 0:
            return 0.0
        return abs(self.predicted - self.observed) / scale

    @property
    def ok(self) -> bool:
        return self.rel_error <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "predicted": self.predicted,
            "observed": self.observed,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Verdict:
    """Where the time went, and the one knob most worth turning."""

    bottleneck: str  # transfer-bound | compute-bound | launch-overhead | skip-dominated
    share: float  # fraction of the makespan attributed to the bottleneck
    reason: str
    recommendation: str
    estimated_speedup: float

    def to_dict(self) -> dict:
        return {
            "bottleneck": self.bottleneck,
            "share": self.share,
            "reason": self.reason,
            "recommendation": self.recommendation,
            "estimated_speedup": self.estimated_speedup,
        }


# ----------------------------------------------------------------------
# Eq. (1)/(2) replay
# ----------------------------------------------------------------------
def predict_concurrent_shards(cache_attrs: dict) -> int | None:
    """Re-derive K from the Eq. (1)/(2) inputs the runtime recorded.

    ``cache_attrs`` is the attribute dict of the runtime's ``cache``
    span. Returns None when the run kept every shard resident (K is
    not meaningful in the Table-4 in-memory mode) or the span predates
    the profiler and lacks the inputs.
    """
    needed = ("max_shard_bytes", "interval_bytes", "resident_bytes",
              "device_memory", "num_partitions")
    if cache_attrs.get("in_memory") or any(k not in cache_attrs for k in needed):
        return None
    if not cache_attrs.get("async_streams", True):
        return 1
    from repro.core.movement import optimal_concurrent_shards

    shard = int(cache_attrs["max_shard_bytes"])
    interval = int(cache_attrs["interval_bytes"])
    memory = int(cache_attrs["device_memory"])
    # Initial Eq. (2) choice, made before the resident buffers land...
    k = optimal_concurrent_shards(
        memory, 0, interval, shard, int(cache_attrs["num_partitions"])
    )
    # ...then shrunk against what the residents actually left free,
    # exactly mirroring DataMovementEngine.reserve_stage_slots.
    free = memory - int(cache_attrs["resident_bytes"])
    while k > 1 and k * (shard + interval) > free:
        k -= 1
    return k


def validate_cost_model(result, machine=None, tolerance: float = MODEL_TOLERANCE) -> list[ModelCheck]:
    """Predicted-vs-observed checks of the Eq. (1)/(2) and per-op models.

    Requires a result carrying the span tree, the device trace and the
    engine snapshots (the defaults). ``machine`` is the
    :class:`~repro.sim.specs.MachineSpec` the run executed on; omit it
    for runs on the default machine.
    """
    from repro.sim.specs import default_machine

    if result.observer is None or result.trace is None or not result.trace.enabled:
        raise ValueError("model validation needs observe=True and trace=True")
    spec = (machine or default_machine()).device
    engines = result.engine_snapshots or {}
    metrics = result.observer.metrics
    checks: list[ModelCheck] = []

    # -- Eq. (1)/(2): concurrently staged shards ------------------------
    cache_spans = list(result.observer.find(category="phase", name="cache"))
    if cache_spans:
        k_pred = predict_concurrent_shards(cache_spans[0].attrs)
        if k_pred is not None:
            checks.append(ModelCheck(
                "eq2_concurrent_shards",
                predicted=float(k_pred),
                observed=float(result.concurrent_shards),
                tolerance=0.0,
                detail="K from Eq. (1)/(2) replayed over the cache span's "
                       "memory inputs vs the K the Data Movement Engine used",
            ))

    # -- PCIe transfer model: bytes / effective bandwidth ---------------
    for direction, nbytes in (
        ("h2d", result.stats.h2d_bytes),
        ("d2h", result.stats.d2h_bytes),
    ):
        observed = result.trace.total_duration(direction)
        if observed == 0 and nbytes == 0:
            continue
        checks.append(ModelCheck(
            f"pcie_{direction}_seconds",
            predicted=nbytes / spec.pcie_bandwidth,
            observed=observed,
            tolerance=tolerance,
            detail=f"{direction} DMA service time vs bytes / "
                   f"{spec.pcie_bandwidth / 1e9:.1f} GB/s (docs/cost-model.md t_copy)",
        ))

    # -- Transfer volume: structural counters vs DMA work served --------
    dma_bytes = sum(
        engines[e]["served_work"] for e in ("h2d", "d2h") if e in engines
    )
    if engines:
        checks.append(ModelCheck(
            "transfer_volume_bytes",
            predicted=float(result.stats.h2d_bytes + result.stats.d2h_bytes),
            observed=float(dma_bytes),
            tolerance=tolerance,
            detail="bytes the movement engine issued vs bytes the copy "
                   "engines actually served",
        ))

    # -- Kernel work census: phase counters vs SM work served -----------
    if "sm" in engines:
        edge_items = sum(
            c.value for n, c in metrics.counters.items()
            if n.startswith("compute.") and n.endswith(".edge_items")
        )
        vertex_items = sum(
            c.value for n, c in metrics.counters.items()
            if n.startswith("compute.") and n.endswith(".vertex_items")
        )
        predicted = edge_items / spec.edge_rate_seq + vertex_items / spec.vertex_rate
        if predicted > 0 or engines["sm"]["served_work"] > 0:
            checks.append(ModelCheck(
                "kernel_work_seconds",
                predicted=predicted,
                observed=engines["sm"]["served_work"],
                tolerance=tolerance,
                detail="machine-seconds from the compute census at the "
                       "calibrated rates vs work the SM pool served",
            ))
    return checks


# ----------------------------------------------------------------------
# Bottleneck verdict
# ----------------------------------------------------------------------
def diagnose(
    *,
    makespan: float,
    transfer_busy: float,
    kernel_busy: float,
    hidden_transfer: float,
    device_busy: float,
    skip_rate: float,
    kernel_launches: float,
    copies: float,
    concurrent_shards: int,
    eq2_optimum: int | None,
    spray_batches: float,
    sm_occupancy: float,
    cache_policy: str = "",
    machine=None,
) -> Verdict:
    """One bottleneck verdict over a run's occupancy evidence.

    All times in simulated seconds; ``device_busy`` is the union of all
    device activity (any engine serving), so ``makespan - device_busy``
    is time the device sat idle waiting on launches, setups and host
    synchronization.
    """
    from repro.sim.specs import default_machine

    spec = (machine or default_machine()).device
    makespan = max(makespan, 1e-30)
    exposed_transfer = max(0.0, transfer_busy - hidden_transfer)
    idle = max(0.0, makespan - device_busy)
    overhead_est = (
        kernel_launches * spec.kernel_launch_overhead + copies * spec.memcpy_setup
    )

    buckets = {
        "transfer-bound": exposed_transfer,
        "compute-bound": kernel_busy,
        "launch-overhead": idle,
    }
    bottleneck = max(buckets, key=buckets.get)
    if bottleneck == "launch-overhead" and skip_rate >= 0.5:
        bottleneck = "skip-dominated"
    share = buckets.get(bottleneck, idle) / makespan

    # Best case achievable by scheduling alone: perfect overlap leaves
    # max(transfer, kernel) on the critical path plus the idle gaps.
    ideal = max(transfer_busy, kernel_busy) + idle
    estimated = max(1.0, makespan / max(ideal, 1e-30))

    if bottleneck == "transfer-bound":
        reason = (
            f"PCIe transfers occupy {100 * transfer_busy / makespan:.0f}% of the "
            f"run and only {100 * hidden_transfer / max(transfer_busy, 1e-30):.0f}% "
            "of that is hidden under kernels"
        )
        if eq2_optimum is not None and concurrent_shards < eq2_optimum:
            recommendation = (
                f"raise K from {concurrent_shards} toward the Eq. (2) optimum of "
                f"{eq2_optimum} (options.async_streams staging slots): estimated "
                f"{estimated:.2f}x"
            )
        elif spray_batches == 0 and copies > kernel_launches:
            recommendation = (
                "enable spray streams (options.spray) so per-copy setups overlap "
                f"in-flight DMA: estimated {estimated:.2f}x"
            )
        elif cache_policy == "never":
            recommendation = (
                "enable whole-graph shard caching (cache_policy='auto' or 'greedy') "
                "so shards that fit the device stop re-streaming every iteration"
            )
        else:
            recommendation = (
                "reduce PCIe volume: phase fusion/elimination and frontier "
                "skipping cut the buffers moved per iteration"
            )
    elif bottleneck == "compute-bound":
        reason = (
            f"kernels keep the SM pool busy {100 * kernel_busy / makespan:.0f}% "
            "of the run; transfers are largely hidden"
        )
        if sm_occupancy < 0.5:
            recommendation = (
                f"kernels fill only {100 * sm_occupancy:.0f}% of the machine -- "
                "run more shards concurrently (larger K) so sub-saturating "
                "kernels share the idle SMs (compute-compute overlap)"
            )
        else:
            recommendation = (
                "the machine is saturated; only less work helps -- fuse phases "
                "and skip inactive shards to shrink the kernel census"
            )
    elif bottleneck == "skip-dominated":
        reason = (
            f"frontier skipping removes {100 * skip_rate:.0f}% of shard work; "
            "the remaining time is per-iteration fixed cost, not data movement"
        )
        recommendation = (
            "the sparse tail is latency-bound: consider per-iteration CPU "
            "placement (AdaptiveEngine) for the low-activity iterations"
        )
    else:  # launch-overhead
        reason = (
            f"the device is idle {100 * idle / makespan:.0f}% of the run "
            f"(~{overhead_est:.6f}s of launch/setup overhead across "
            f"{int(kernel_launches)} kernels and {int(copies)} copies)"
        )
        recommendation = (
            "cut per-operation overheads: enable phase fusion (fewer launches) "
            "and spray/async streams (setups overlap DMA)"
        )
    return Verdict(
        bottleneck=bottleneck,
        share=share,
        reason=reason,
        recommendation=recommendation,
        estimated_speedup=estimated,
    )
