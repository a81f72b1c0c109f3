"""Typed counters and histograms.

Counters accumulate monotone totals (bytes over PCIe, kernel launches,
shards skipped by the Frontier Manager, fusion decisions); histograms
summarize distributions (frontier sizes, per-copy bytes) with power-of-
two buckets so the summary stays O(64) regardless of run length.

Histograms also answer streaming quantile queries (p50/p90/p99): the
log2 buckets give each percentile's bucket exactly, and linear
interpolation inside the bucket bounds the error to the bucket width --
no per-observation storage, merge-exact, and stable across a JSON
round-trip because the estimate is a pure function of the buckets.

``Counter.add`` and ``Histogram.observe`` refuse NaN and infinities
(``ValueError``, the instrument unchanged). They take a per-instrument
lock: the registry is a thread-safe public API, and ``+=`` on a Python
float is not atomic. Instrument creation in the registry is guarded
separately, so the hot path costs one uncontended lock, not two.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

#: Version stamped on :meth:`MetricsRegistry.snapshot` documents; bump
#: on incompatible layout change so readers can reject cleanly.
METRICS_SCHEMA_VERSION = 1


def _instrument_lock():
    return field(default_factory=threading.Lock, repr=False, compare=False)


@dataclass(slots=True)
class Counter:
    """A monotonically growing total."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = _instrument_lock()

    def add(self, n: float = 1.0) -> None:
        if not math.isfinite(n):
            raise ValueError(f"{self.name}: non-finite value {n!r}")
        with self._lock:
            self.value += n

    def merge(self, other: "Counter") -> "Counter":
        """Fold another counter's total into this one; returns self."""
        with self._lock:
            self.value += other.value
        return self

    def to_dict(self) -> dict:
        v = self.value
        return {"value": int(v) if float(v).is_integer() else v}

    @classmethod
    def from_dict(cls, name: str, d: dict) -> "Counter":
        return cls(name, value=float(d.get("value", 0.0)))


@dataclass
class Histogram:
    """Summary statistics plus log2 buckets.

    ``buckets[k]`` counts observations ``v`` with
    ``2**(k-1) < v <= 2**k`` (``k == 0`` collects everything <= 1,
    including zeros and negatives).
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = _instrument_lock()

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"{self.name}: non-finite value {value!r}")
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            k = 0 if value <= 1 else math.ceil(math.log2(value))
            self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Streaming quantile estimate from the log2 buckets.

        Walks the cumulative bucket counts to the target rank and
        interpolates linearly inside the owning bucket's value range,
        clamped to the exact observed ``[min, max]``. Error is bounded
        by the bucket width (a factor of two); the estimate depends
        only on buckets/min/max, so it is merge-exact and survives the
        JSON round-trip bit-for-bit.
        """
        if not self.count:
            return None
        q = min(1.0, max(0.0, q))
        target = q * self.count
        cum = 0
        for k in sorted(self.buckets):
            n = self.buckets[k]
            if cum + n >= target:
                lo = 0.0 if k == 0 else float(2 ** (k - 1))
                hi = float(2**k)
                frac = (target - cum) / n if n else 0.0
                return min(max(lo + frac * (hi - lo), self.min), self.max)
            cum += n
        return self.max

    def percentiles(self) -> dict:
        """``{"p50": ..., "p90": ..., "p99": ...}`` (empty if no data)."""
        if not self.count:
            return {}
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's observations into this one.

        Exact for count/sum/min/max and the log2 buckets, so summaries
        aggregate across runs and shards losslessly; returns self.
        """
        with self._lock:
            self.count += other.count
            self.total += other.total
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            for k, v in other.buckets.items():
                self.buckets[k] = self.buckets.get(k, 0) + v
        return self

    def to_dict(self) -> dict:
        if not self.count:
            # min/max as null (not +/-inf, which is invalid JSON) so an
            # empty histogram round-trips through json.dumps/loads.
            return {"count": 0, "min": None, "max": None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "percentiles": self.percentiles(),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, name: str, d: dict) -> "Histogram":
        # "percentiles" is derived output, recomputed from the buckets
        # on the next to_dict -- never parsed back.
        h = cls(name)
        h.count = int(d.get("count", 0))
        if not h.count:
            return h
        h.total = float(d.get("sum", 0.0))
        h.min = float(d["min"]) if d.get("min") is not None else math.inf
        h.max = float(d["max"]) if d.get("max") is not None else -math.inf
        h.buckets = {int(k): int(v) for k, v in d.get("buckets", {}).items()}
        return h


class MetricsRegistry:
    """Name-addressed counters and histograms.

    ``add``/``observe`` create the instrument on first use, so call
    sites do not need registration boilerplate.

    Thread-safe end to end: the registry lock guards instrument
    creation (double-checked, so the common path is a plain dict get),
    and each instrument's own lock guards its updates. Reads, merge
    and snapshot run on the main thread between phases.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.get(name)
                if c is None:
                    c = self.counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.get(name)
                if h is None:
                    h = self.histograms[name] = Histogram(name)
        return h

    def add(self, name: str, n: float = 1.0) -> None:
        self.counter(name).add(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str, default: float = 0.0) -> float:
        c = self.counters.get(name)
        return default if c is None else c.value

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in (instrument-wise merge); returns self.

        The aggregation behind multi-run/multi-shard views: counters
        add, histograms combine exactly (``repro bench-diff`` and the
        benchmark replications merge per-run registries this way).
        """
        for name, c in other.counters.items():
            self.counter(name).merge(c)
        for name, h in other.histograms.items():
            self.histogram(name).merge(h)
        return self

    def snapshot(self) -> dict:
        """Schema-versioned document with deterministically sorted keys."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {n: c.to_dict() for n, c in sorted(self.counters.items())},
            "histograms": {n: h.to_dict() for n, h in sorted(self.histograms.items())},
        }

    @classmethod
    def from_snapshot(cls, doc: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output (JSON round-trip).

        Pre-versioning documents (no ``schema`` key) are accepted;
        a present-but-different version is rejected so readers never
        silently misparse a future layout.
        """
        schema = doc.get("schema", METRICS_SCHEMA_VERSION)
        if schema != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics schema mismatch: document has {schema!r}, "
                f"this reader understands {METRICS_SCHEMA_VERSION}"
            )
        reg = cls()
        for name, d in doc.get("counters", {}).items():
            reg.counters[name] = Counter.from_dict(name, d)
        for name, d in doc.get("histograms", {}).items():
            reg.histograms[name] = Histogram.from_dict(name, d)
        return reg
