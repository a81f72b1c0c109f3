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
    """One completed operation on the simulated device, in global time;
    built on read from a :class:`TraceRecorder` row of the same fields."""

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
    """Accumulates trace rows and computes aggregates.

    A row is an exact ``(start, end, category, stream, amount, label,
    service_start)`` tuple in phase-local time, which the garbage
    collector stops tracking. Rows are kept per phase as ``(epoch, rows)``
    blocks (see :meth:`Simulator.fold`); a replayed phase shares its
    recorded block. :attr:`intervals` builds :class:`Interval` objects in
    global time on read; the aggregates work phase by phase in local time.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._blocks: list[tuple[float, list[tuple]]] = []
        self._open: list[tuple] = []
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
        self._open.append((start, end, category, stream, amount, label, service_start))

    def close_phase(self) -> list[tuple]:
        """Close the current phase; returns its rows for :meth:`replay_phase`."""
        block, self._open = self._open, []
        return block

    def replay_phase(self, epoch: float, block: list[tuple]) -> None:
        if block:
            self._blocks.append((epoch, tuple(block)))  # untracked by the GC, like its rows

    def _phases(self) -> list[tuple[float, list[tuple]]]:
        return self._blocks + [(0.0 if self.sim is None else self.sim.epoch, self._open)]

    @property
    def intervals(self) -> list[Interval]:
        """Every interval in global time (built on each read)."""
        return [
            Interval(epoch + row[0], epoch + row[1], *row[2:6],
                     None if row[6] is None else epoch + row[6])
            for epoch, block in self._phases() for row in block
        ]

    def _local(self, categories):
        """Each phase's rows in ``categories``, in local time."""
        cats = categories or CATEGORIES
        return ([row for row in block if row[2] in cats] for _, block in self._phases())

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_duration(self, *categories: str) -> float:
        """Sum of interval durations in the given categories."""
        return sum(row[1] - row[0] for rows in self._local(categories) for row in rows)

    def total_amount(self, *categories: str) -> float:
        return sum(row[4] for rows in self._local(categories) for row in rows)

    def busy_span(self, *categories: str) -> float:
        """Length of the union of intervals in the given categories.

        Unlike :meth:`total_duration` this does not double-count
        overlapping operations, so ``busy_span('h2d', 'd2h')`` is the time
        during which *any* transfer was in flight -- the paper's "memcpy
        time" once copies overlap compute. Phases are disjoint in time,
        so the union is taken phase by phase, in local time.
        """
        phases = self._local(categories)
        return sum(union_length(row[:2] for row in rows) for rows in phases)

    def service_busy_span(self, *categories: str) -> float:
        """Like :meth:`busy_span`, but over engine-*service* windows.

        For transfers the two are identical (memcpy intervals trace the
        DMA service); for kernels this excludes launch overhead and
        Hyper-Q queueing, so it equals the SM pool's busy time.
        """
        phases = self._local(categories)
        return sum(union_length((r[0] if r[6] is None else r[6], r[1]) for r in rows)
                   for rows in phases)

    def makespan(self) -> float:
        """End time of the last recorded interval (0 when empty)."""
        return max((epoch + row[1] for epoch, block in self._phases() for row in block),
                   default=0.0)

    def memcpy_time(self) -> float:
        """Total transfer time (sum over both directions, Figure 15)."""
        return self.total_duration("h2d", "d2h")

    def memcpy_bytes(self) -> float:
        return self.total_amount("h2d", "d2h")

    def kernel_time(self) -> float:
        return self.total_duration("kernel")

    def breakdown(self) -> tuple[float, float, float]:
        """``(memcpy_time(), kernel_time(), busy_span("h2d", "d2h"))`` bit for
        bit, from one walk: ``sum()`` over the same sequences, in order."""
        kernels, unions = [], []

        def copies():
            for _, block in self._phases():
                spans = [row[:2] for row in block if row[2] == "h2d" or row[2] == "d2h"]
                kernels.extend([row[1] - row[0] for row in block if row[2] == "kernel"])
                unions.append(union_length(spans))
                yield from (end - start for start, end in spans)

        return sum(copies()), sum(kernels), sum(unions)

    def clear(self) -> None:
        self._blocks.clear()
        self._open.clear()

    def __len__(self) -> int:
        return sum(len(block) for _, block in self._phases())
