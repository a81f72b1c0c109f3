"""The measurement protocol of one workload in one process.

End-to-end numbers (``measure_end_to_end``) come only from untraced
operations: a fixed number of cold starts, then a fixed number of warm
repetitions of the identical query, each timed on its own and reported
as a median. Per-layer numbers (``measure_layers``) come from traced
repetitions in a run of their own. Every cold start and repetition is
one *operation*; one that raises, or whose values or simulated time
differ from the first, counts as failed and is left out of the timings.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from layers import Tracer, layer_metrics
from workloads import Outcome, Workload

COLD_STARTS = 3


class PeakRss:
    """Peak resident set of this process since ``reset``, in MB."""

    def __init__(self):
        self.resettable = True

    def reset(self) -> None:
        try:
            Path("/proc/self/clear_refs").write_text("5")
        except OSError:
            self.resettable = False

    def read_mb(self) -> float:
        if self.resettable:
            for line in Path("/proc/self/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        # Lifetime peak: includes input generation.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Operations:
    """Runs operations, counts attempts and failures, keeps the last good
    outcome and checks every outcome against the first (bit-identity)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.signature: tuple | None = None
        self.last: Outcome | None = None

    def timed(self, operation) -> float | None:
        """Seconds the operation took, or None when it failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            outcome = operation()
        except Exception:
            # Boundary that must keep running: record and count.
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        seconds = perf_counter() - t0
        signature = outcome.signature()
        if self.signature is None:
            self.signature = signature
        elif signature != self.signature:
            print(
                f"operation {self.attempted}: {signature} differs from the "
                f"first operation's {self.signature}",
                file=sys.stderr,
            )
            self.failed += 1
            return None
        self.last = outcome
        return seconds


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {
        "n": len(samples), "median": median, "q1": q1, "q3": q3,
        "min": min(samples), "max": max(samples),
    }


class Session:
    """One workload's engine and operation ledger."""

    def __init__(self, workload: Workload, inputs: dict, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.ops = Operations()
        self.engine = None

    def _cold(self) -> Outcome:
        self.engine = self.workload.cold_start(self.inputs, self.workdir)
        return self.workload.query(self.engine, self.inputs)

    def cold_start(self) -> float | None:
        # Release the previous engine first so two never coexist.
        self.engine = None
        gc.collect()
        return self.ops.timed(self._cold)

    def warm(self) -> float | None:
        return self.ops.timed(lambda: self.workload.query(self.engine, self.inputs))

    def times(self, operation, count: int) -> list[float]:
        samples = [s for s in (operation() for _ in range(count)) if s is not None]
        if not samples:
            raise RuntimeError(f"{self.workload.name}: every operation failed")
        return samples

    def verified(self) -> bool:
        """Reference check of the last good outcome; a mismatch is a
        failed operation."""
        problem = self.workload.verify(self.inputs, self.ops.last)
        if problem is not None:
            print(f"{self.workload.name}: {problem}", file=sys.stderr)
            self.ops.failed += 1
        return problem is None and self.ops.failed == 0

    def profile(self) -> dict:
        graph = self.inputs["graph"]
        run = self.ops.last.run
        return {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "partitions": run.num_partitions,
            "store_bytes": self.workload.store_bytes(self.engine),
            "kernel_backend": (run.kernels or {}).get("backend", "off"),
            "values_hash": self.ops.signature[0],
        }


def measure_end_to_end(session: Session, cold_starts: int, warm_reps: int):
    """(end-to-end metrics, their sample summaries)."""
    rss = PeakRss()
    rss.reset()
    cold = session.times(session.cold_start, cold_starts)
    warm = session.times(session.warm, warm_reps)
    peak_rss_mb = rss.read_mb()
    run = session.ops.last.run
    wall_s = statistics.median(warm)
    metrics = {
        "wall_s": wall_s,
        "edges_per_s": session.workload.work_edges(session.inputs) / wall_s,
        "sim_time_s": run.sim_time,
        "sim_memcpy_s": run.memcpy_time,
        "setup_s": statistics.median(cold),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"wall_s": _summary(warm), "setup_s": _summary(cold)}


def measure_layers(session: Session, traced_reps: int) -> dict:
    """Per-layer metrics from traced repetitions.

    One traced cold start gives the set-up layers. Then each round runs
    one plain, one bare (``observe=False, trace=False``) and one traced
    repetition on that engine: interleaved, so that machine drift during
    the run cannot pass for tracing or observability overhead.
    """
    cold = Tracer()
    with cold.installed():
        session.times(session.cold_start, 1)
    engine = session.engine
    observed = engine.options
    warm = Tracer()
    plain, bare, traced = [], [], []
    for _ in range(traced_reps):
        plain += session.times(session.warm, 1)
        engine.options = observed.replace(observe=False, trace=False)
        try:
            bare += session.times(session.warm, 1)
        finally:
            engine.options = observed
        with warm.installed():
            traced += session.times(session.warm, 1)
    outcome = session.ops.last
    return layer_metrics(
        warm, cold, len(traced), outcome.run,
        {
            "wall_s": statistics.median(plain),
            "bare_wall_s": statistics.median(bare),
            "traced_wall_s": statistics.fmean(traced),
            "store_bytes": session.workload.store_bytes(engine),
            "batch": outcome.batch,
        },
    )
