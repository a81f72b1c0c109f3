"""Operation timelines and the memcpy/compute breakdown.

Section 6.2.3 of the paper reports that memcpy occupies on average >95% of
total execution time for the large graphs and that the Section-5
optimizations cut memcpy time by 51.5% on average (Figure 15). The trace
recorder captures every simulated transfer and kernel interval so those
aggregates can be regenerated.
"""

from __future__ import annotations

from typing import NamedTuple

#: Interval categories recorded by the device.
CATEGORIES = ("h2d", "d2h", "kernel", "storage")


def union_length(spans) -> float:
    """Total length of the union of (start, end) pairs."""
    total = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in sorted(spans):
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


class Interval(NamedTuple):
    """One completed operation on the simulated device (a tuple: tens of
    thousands are built per traced query)."""

    start: float
    end: float
    category: str  # one of CATEGORIES
    stream: str
    amount: float  # bytes for copies, items for kernels
    label: str = ""
    #: When the operation entered *service* on its engine (kernels: SM
    #: entry after launch overhead and Hyper-Q queueing). None means the
    #: service window equals [start, end] -- memcpy intervals already
    #: trace the DMA service window.
    service_start: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def service_begin(self) -> float:
        """Start of the engine-service window (falls back to ``start``)."""
        return self.start if self.service_start is None else self.service_start


class TraceRecorder:
    """Accumulates :class:`Interval` records and computes aggregates.

    Intervals are recorded in phase-local time and kept per phase as
    ``(epoch, intervals)`` blocks (see :meth:`Simulator.fold`); a
    replayed phase shares its recorded block, so repeats cost one tuple.
    :attr:`intervals` applies the epochs on read; the aggregates work
    phase by phase in local time.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._blocks: list[tuple[float, list[Interval]]] = []
        self._open: list[Interval] = []
        self.sim = None  # set by the device: whose phase-local clock is recorded

    def record(
        self,
        start: float,
        end: float,
        category: str,
        stream: str,
        amount: float,
        label: str = "",
        service_start: float | None = None,
    ) -> None:
        if not self.enabled:
            return
        if category not in CATEGORIES:
            raise ValueError(f"unknown trace category {category!r}")
        if not start <= end:  # also refuses NaN
            raise ValueError(f"interval ends before it starts: {start!r}..{end!r}")
        if service_start is not None and not (start <= service_start <= end):
            raise ValueError(
                f"service_start {service_start!r} outside interval {start!r}..{end!r}"
            )
        self._open.append(
            Interval(start, end, category, stream, amount, label, service_start)
        )

    def close_phase(self) -> list[Interval]:
        """Close the current phase; returns its intervals for
        :meth:`replay_phase`."""
        block, self._open = self._open, []
        return block

    def replay_phase(self, epoch: float, block: list[Interval]) -> None:
        if block:
            self._blocks.append((epoch, block))

    def _phases(self) -> list[tuple[float, list[Interval]]]:
        return self._blocks + [(0.0 if self.sim is None else self.sim.epoch, self._open)]

    @property
    def intervals(self) -> list[Interval]:
        """Every interval in global time (built on each read)."""
        return [
            Interval(epoch + iv.start, epoch + iv.end, *iv[2:6],
                     None if iv.service_start is None else epoch + iv.service_start)
            for epoch, block in self._phases() for iv in block
        ]

    def _local(self, categories):
        """Each phase's intervals in ``categories``, in local time."""
        cats = categories or CATEGORIES
        return ([iv for iv in block if iv.category in cats] for _, block in self._phases())

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_duration(self, *categories: str) -> float:
        """Sum of interval durations in the given categories."""
        return sum(iv.end - iv.start for ivs in self._local(categories) for iv in ivs)

    def total_amount(self, *categories: str) -> float:
        return sum(iv.amount for ivs in self._local(categories) for iv in ivs)

    def busy_span(self, *categories: str) -> float:
        """Length of the union of intervals in the given categories.

        Unlike :meth:`total_duration` this does not double-count
        overlapping operations, so ``busy_span('h2d', 'd2h')`` is the time
        during which *any* transfer was in flight -- the paper's "memcpy
        time" once copies overlap compute. Phases are disjoint in time,
        so the union is taken phase by phase, in local time.
        """
        phases = self._local(categories)
        return sum(union_length((iv.start, iv.end) for iv in ivs) for ivs in phases)

    def service_busy_span(self, *categories: str) -> float:
        """Like :meth:`busy_span`, but over engine-*service* windows.

        For transfers the two are identical (memcpy intervals trace the
        DMA service); for kernels this excludes launch overhead and
        Hyper-Q queueing, so it equals the SM pool's busy time.
        """
        phases = self._local(categories)
        return sum(union_length((iv.service_begin, iv.end) for iv in ivs) for ivs in phases)

    def makespan(self) -> float:
        """End time of the last recorded interval (0 when empty)."""
        return max((epoch + iv.end for epoch, block in self._phases() for iv in block), default=0.0)

    def memcpy_time(self) -> float:
        """Total transfer time (sum over both directions, Figure 15)."""
        return self.total_duration("h2d", "d2h")

    def memcpy_bytes(self) -> float:
        return self.total_amount("h2d", "d2h")

    def kernel_time(self) -> float:
        return self.total_duration("kernel")

    def clear(self) -> None:
        self._blocks.clear()
        self._open.clear()

    def __len__(self) -> int:
        return sum(len(block) for _, block in self._phases())
